//! Lock-free Hogwild training of the LINE / E-LINE objectives.
//!
//! The offline objective (Eq. (10)) is a sum over millions of sampled
//! edges whose per-sample updates touch only `2 + K` embedding rows out of
//! tens of thousands. Following Hogwild (Niu et al., 2011) and every
//! production LINE/word2vec implementation, workers therefore update one
//! shared embedding matrix *without locks*: conflicting updates are rare
//! (row collisions scale with `K/rows`) and the occasional lost or stale
//! coordinate acts as extra SGD noise that does not harm convergence.
//!
//! Unlike the classic C implementations, the shared access here is not
//! undefined behaviour: the two matrices are exposed as `&[AtomicU32]`
//! views and every read/write on the hot path is a `Relaxed` atomic
//! load/store of the `f32` bit pattern, which x86 and AArch64 compile to
//! the same plain `mov`s the unsafe version would emit. See
//! [`SharedModel`] for the single `unsafe` boundary and its argument.
//!
//! Besides the thread fan-out, this path uses the fast kernels from
//! [`crate::sgd`]: the 1024-entry sigmoid table, unrolled dot products,
//! and single-`u64` alias draws ([`grafics_graph::AliasTable::sample_with`])
//! fed from a per-worker batch buffer that amortises RNG calls. For the
//! common embedding dimensions (4/8/16, covering the paper's default 8)
//! the whole inner step is monomorphised over a compile-time dimension so
//! every row loop fully unrolls with no bounds checks.

#![allow(unsafe_code)]

use crate::config::{EmbedError, EmbeddingConfig, Objective};
use crate::model::{EmbeddingModel, Space};
use crate::sgd::{
    axpy_lanes, dot_fixed, dot_lanes, fast_sigmoid, sigmoid_table, SIGMOID_TABLE_SIZE,
};
use grafics_graph::{AliasTable, BipartiteGraph, NodeIdx};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Workers re-read the global progress counter (for the learning-rate
/// decay) once per this many samples, like word2vec's `word_count_actual`.
const LR_CHUNK: usize = 1024;

/// Size of the per-worker buffer of raw 64-bit random words.
const RAND_BATCH: usize = 512;

/// Alias so the scratch trait's signature stays readable.
type SigmoidTable = [f32; SIGMOID_TABLE_SIZE];

/// A `Sync` view of one [`EmbeddingModel`] that lets every worker read and
/// write rows concurrently.
///
/// Both matrices are re-typed from `&mut [f32]` to `&[AtomicU32]` and all
/// access goes through `Relaxed` atomic load/store of the bit pattern.
///
/// # Safety argument (the only unsafe boundary of the trainer)
///
/// - Layout: `AtomicU32` is documented to have "the same in-memory
///   representation as the underlying integer type, u32" — identical size
///   and alignment to `f32`, so the pointer cast and length are valid.
/// - Aliasing: the view is constructed from `&mut EmbeddingModel`, so for
///   its whole lifetime no other safe reference to the storage exists, and
///   while it exists the storage is accessed *only* through the atomics.
///   This satisfies the conditions documented for `AtomicU32::from_ptr`.
/// - Data races: none, by definition — every access is atomic. Races at
///   the algorithmic level (a worker reading a half-updated *row*) are the
///   Hogwild trade-off and affect convergence noise, not soundness.
pub(crate) struct SharedModel<'a> {
    ego: &'a [AtomicU32],
    context: &'a [AtomicU32],
    dim: usize,
}

impl<'a> SharedModel<'a> {
    fn new(model: &'a mut EmbeddingModel) -> Self {
        let dim = model.dim();
        let (ego, context) = model.matrices_mut();
        // SAFETY: see the type-level safety argument above.
        let ego =
            unsafe { std::slice::from_raw_parts(ego.as_mut_ptr().cast::<AtomicU32>(), ego.len()) };
        // SAFETY: same argument, second matrix.
        let context = unsafe {
            std::slice::from_raw_parts(context.as_mut_ptr().cast::<AtomicU32>(), context.len())
        };
        SharedModel { ego, context, dim }
    }

    #[inline(always)]
    fn row(&self, space: Space, node: NodeIdx) -> &[AtomicU32] {
        let start = node.index() * self.dim;
        match space {
            Space::Ego => &self.ego[start..start + self.dim],
            Space::Context => &self.context[start..start + self.dim],
        }
    }
}

#[inline(always)]
fn store(cell: &AtomicU32, value: f32) {
    cell.store(value.to_bits(), Ordering::Relaxed);
}

#[inline(always)]
fn load(cell: &AtomicU32) -> f32 {
    f32::from_bits(cell.load(Ordering::Relaxed))
}

/// A per-worker pool of raw random words, refilled in blocks so the hot
/// loop consumes pre-generated entropy instead of calling into the
/// generator per draw (batch alias sampling).
struct RandPool {
    rng: ChaCha8Rng,
    buf: [u64; RAND_BATCH],
    pos: usize,
}

impl RandPool {
    fn new(seed: u64) -> Self {
        RandPool {
            rng: ChaCha8Rng::seed_from_u64(seed),
            buf: [0; RAND_BATCH],
            pos: RAND_BATCH,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> u64 {
        if self.pos == RAND_BATCH {
            self.rng.fill_u64(&mut self.buf);
            self.pos = 0;
        }
        let word = self.buf[self.pos];
        self.pos += 1;
        word
    }
}

/// Draws `k` negatives via single-word alias draws, rejecting the
/// endpoints of the positive pair — the shared rejection policy of
/// `sgd::fill_rejecting`, fed from the per-worker entropy pool.
#[inline]
fn sample_negatives_fast(
    alias: &AliasTable,
    i: NodeIdx,
    j: NodeIdx,
    k: usize,
    out: &mut Vec<NodeIdx>,
    pool: &mut RandPool,
) {
    crate::sgd::fill_rejecting(k, out, || {
        let z = NodeIdx(alias.sample_with(pool.next()) as u32);
        (z != i && z != j).then_some(z)
    });
}

/// Per-worker state plus the one directed SGD step; implemented once over
/// heap buffers (any dimension) and once monomorphised per compile-time
/// dimension (no bounds checks, fully unrolled row loops).
trait HogwildScratch {
    fn negatives_mut(&mut self) -> &mut Vec<NodeIdx>;

    /// One lock-free directed step `src → tgt` with the currently drawn
    /// negatives, mirroring the serial trainer's `sgd::step`.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        shared: &SharedModel<'_>,
        table: &SigmoidTable,
        src: (Space, NodeIdx),
        tgt: (Space, NodeIdx),
        neg_space: Space,
        lr: f32,
        dropout_threshold: u8,
        pool: &mut RandPool,
    );
}

/// Applies the accumulated source gradient with per-coordinate dropout:
/// one byte-sized coin per coordinate, eight coins per drawn word —
/// P(drop) = threshold/256, plenty of resolution for the paper's 0.1.
#[inline(always)]
fn apply_source_grad(srow: &[AtomicU32], grad: &[f32], dropout_threshold: u8, pool: &mut RandPool) {
    if dropout_threshold > 0 {
        let mut word = 0u64;
        for (d, (cell, &g)) in srow.iter().zip(grad).enumerate() {
            if d % 8 == 0 {
                word = pool.next();
            }
            let coin = (word >> ((d % 8) * 8)) as u8;
            if coin >= dropout_threshold {
                store(cell, load(cell) + g);
            }
        }
    } else {
        for (cell, &g) in srow.iter().zip(grad) {
            store(cell, load(cell) + g);
        }
    }
}

/// Heap-buffer scratch: handles any embedding dimension.
struct DynScratch {
    src_copy: Vec<f32>,
    tgt_copy: Vec<f32>,
    src_grad: Vec<f32>,
    negatives: Vec<NodeIdx>,
}

impl HogwildScratch for DynScratch {
    fn negatives_mut(&mut self) -> &mut Vec<NodeIdx> {
        &mut self.negatives
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        shared: &SharedModel<'_>,
        table: &SigmoidTable,
        src: (Space, NodeIdx),
        tgt: (Space, NodeIdx),
        neg_space: Space,
        lr: f32,
        dropout_threshold: u8,
        pool: &mut RandPool,
    ) {
        let srow = shared.row(src.0, src.1);
        for (slot, cell) in self.src_copy.iter_mut().zip(srow) {
            *slot = load(cell);
        }
        self.src_grad.fill(0.0);

        // The negatives list is only read here while the other scratch
        // buffers are written; moving it out splits the borrows.
        let negatives = std::mem::take(&mut self.negatives);
        for k in 0..=negatives.len() {
            let ((space, node), label) = if k == 0 {
                (tgt, 1.0f32)
            } else {
                ((neg_space, negatives[k - 1]), 0.0f32)
            };
            let row = shared.row(space, node);
            for (slot, cell) in self.tgt_copy.iter_mut().zip(row) {
                *slot = load(cell);
            }
            let g = lr * (label - fast_sigmoid(table, dot_lanes(&self.src_copy, &self.tgt_copy)));
            // Elementwise passes over the local copies vectorize (the
            // lane-blocked kernels match the fixed-dimension scratch's FMA
            // scheme); only the per-coordinate atomic stores stay scalar.
            axpy_lanes(&mut self.src_grad, g, &self.tgt_copy);
            axpy_lanes(&mut self.tgt_copy, g, &self.src_copy);
            for (cell, &v) in row.iter().zip(&self.tgt_copy) {
                store(cell, v);
            }
        }
        self.negatives = negatives;

        apply_source_grad(srow, &self.src_grad, dropout_threshold, pool);
    }
}

/// Stack-array scratch monomorphised over the embedding dimension.
struct FixedScratch<const DIM: usize> {
    negatives: Vec<NodeIdx>,
}

impl<const DIM: usize> HogwildScratch for FixedScratch<DIM> {
    fn negatives_mut(&mut self) -> &mut Vec<NodeIdx> {
        &mut self.negatives
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        shared: &SharedModel<'_>,
        table: &SigmoidTable,
        src: (Space, NodeIdx),
        tgt: (Space, NodeIdx),
        neg_space: Space,
        lr: f32,
        dropout_threshold: u8,
        pool: &mut RandPool,
    ) {
        let srow: &[AtomicU32; DIM] = shared
            .row(src.0, src.1)
            .try_into()
            .expect("row length equals DIM");
        let mut src_copy = [0.0f32; DIM];
        for d in 0..DIM {
            src_copy[d] = load(&srow[d]);
        }
        let mut src_grad = [0.0f32; DIM];

        for k in 0..=self.negatives.len() {
            let ((space, node), label) = if k == 0 {
                (tgt, 1.0f32)
            } else {
                ((neg_space, self.negatives[k - 1]), 0.0f32)
            };
            let row: &[AtomicU32; DIM] = shared
                .row(space, node)
                .try_into()
                .expect("row length equals DIM");
            let mut t = [0.0f32; DIM];
            for d in 0..DIM {
                t[d] = load(&row[d]);
            }
            let g = lr * (label - fast_sigmoid(table, dot_fixed(&src_copy, &t)));
            for d in 0..DIM {
                src_grad[d] = t[d].mul_add(g, src_grad[d]);
            }
            for d in 0..DIM {
                store(&row[d], src_copy[d].mul_add(g, t[d]));
            }
        }

        apply_source_grad(srow, &src_grad, dropout_threshold, pool);
    }
}

/// Trains the full model with `config.threads` Hogwild workers.
///
/// The caller (`ElineTrainer::train`) has already validated the config.
/// Initialisation consumes the caller's RNG exactly like the serial path
/// (same init draw order), then one seed per worker is derived from it, so
/// a fixed caller seed fixes the whole sampling plan; only the interleaving
/// of floating-point updates varies between runs.
pub(crate) fn train_hogwild<R: Rng + ?Sized>(
    config: &EmbeddingConfig,
    graph: &BipartiteGraph,
    rng: &mut R,
) -> Result<EmbeddingModel, EmbedError> {
    let (edges, weights) = graph.edge_list();
    let edge_alias = AliasTable::new(&weights).ok_or(EmbedError::EmptyGraph)?;
    let neg_alias = AliasTable::new(&graph.negative_sampling_weights(config.negative_exponent))
        .ok_or(EmbedError::EmptyGraph)?;

    let mut model = EmbeddingModel::init(graph.node_capacity(), config.dim, rng);
    let total = config.epochs.saturating_mul(edges.len()).max(1);
    let workers = config.threads.min(total);
    let worker_seed_base = rng.next_u64();

    // The sampling loop only needs the endpoints; a flat 8-byte pair per
    // edge halves the cache footprint of the random-access fetch compared
    // to `EdgeRef` (which drags the unused f64 weight along).
    let endpoints: Vec<(NodeIdx, NodeIdx)> = edges.iter().map(|e| (e.record, e.mac)).collect();

    let progress = AtomicUsize::new(0);
    let shared = SharedModel::new(&mut model);
    let shared_ref = &shared;
    let edges_ref: &[(NodeIdx, NodeIdx)] = &endpoints;
    let edge_alias_ref = &edge_alias;
    let neg_alias_ref = &neg_alias;
    let progress_ref = &progress;

    rayon::scope(|scope| {
        for w in 0..workers {
            let samples = total / workers + usize::from(w < total % workers);
            let seed = worker_seed_base ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            scope.spawn(move |_| {
                let negatives = Vec::with_capacity(config.negatives);
                let run = WorkerRun {
                    config,
                    shared: shared_ref,
                    edges: edges_ref,
                    edge_alias: edge_alias_ref,
                    neg_alias: neg_alias_ref,
                    progress: progress_ref,
                    total,
                    samples,
                    seed,
                };
                // Monomorphised fast paths for the common dimensions
                // (the paper's default is 8); anything else takes the
                // heap-buffer path.
                match config.dim {
                    4 => run.go(FixedScratch::<4> { negatives }),
                    8 => run.go(FixedScratch::<8> { negatives }),
                    16 => run.go(FixedScratch::<16> { negatives }),
                    dim => run.go(DynScratch {
                        src_copy: vec![0.0; dim],
                        tgt_copy: vec![0.0; dim],
                        src_grad: vec![0.0; dim],
                        negatives,
                    }),
                }
            });
        }
    });

    debug_assert!(model.all_finite());
    Ok(model)
}

/// Everything one worker needs, bundled so the scratch dispatch stays tidy.
struct WorkerRun<'a> {
    config: &'a EmbeddingConfig,
    shared: &'a SharedModel<'a>,
    edges: &'a [(NodeIdx, NodeIdx)],
    edge_alias: &'a AliasTable,
    neg_alias: &'a AliasTable,
    progress: &'a AtomicUsize,
    total: usize,
    samples: usize,
    seed: u64,
}

impl WorkerRun<'_> {
    fn go<S: HogwildScratch>(self, mut scratch: S) {
        let config = self.config;
        let table = sigmoid_table();
        let mut pool = RandPool::new(self.seed);
        let lr0 = config.initial_lr as f32;
        // P(drop) = threshold / 256; dropout in (0, 1/256) rounds up to one
        // count rather than silently disabling regularisation.
        let dropout_threshold = if config.dropout > 0.0 {
            ((config.dropout * 256.0) as u8).max(1)
        } else {
            0
        };

        let mut done = 0usize;
        while done < self.samples {
            let chunk = LR_CHUNK.min(self.samples - done);
            let global = self.progress.fetch_add(chunk, Ordering::Relaxed);
            let lr = if config.lr_decay {
                let frac = 1.0 - global as f32 / self.total as f32;
                lr0 * frac.max(1e-4)
            } else {
                lr0
            };

            for _ in 0..chunk {
                let (rec, mac) = self.edges[self.edge_alias.sample_with(pool.next())];
                for (i, j) in [(rec, mac), (mac, rec)] {
                    sample_negatives_fast(
                        self.neg_alias,
                        i,
                        j,
                        config.negatives,
                        scratch.negatives_mut(),
                        &mut pool,
                    );
                    let mut step = |src: (Space, NodeIdx), tgt: (Space, NodeIdx), neg: Space| {
                        scratch.step(
                            self.shared,
                            table,
                            src,
                            tgt,
                            neg,
                            lr,
                            dropout_threshold,
                            &mut pool,
                        );
                    };
                    match config.objective {
                        Objective::LineFirst => {
                            step((Space::Ego, i), (Space::Ego, j), Space::Ego);
                        }
                        Objective::LineSecond => {
                            step((Space::Ego, i), (Space::Context, j), Space::Context);
                        }
                        Objective::LineBoth => {
                            step((Space::Ego, i), (Space::Ego, j), Space::Ego);
                            step((Space::Ego, i), (Space::Context, j), Space::Context);
                        }
                        Objective::ELine => {
                            // Eq. (5) second-order term and its Eq. (8) mirror.
                            step((Space::Ego, i), (Space::Context, j), Space::Context);
                            step((Space::Context, i), (Space::Ego, j), Space::Ego);
                        }
                    }
                }
            }
            done += chunk;
        }
    }
}
