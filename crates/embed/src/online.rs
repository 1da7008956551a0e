//! The online serving path (§V-A): embedding one new record against a
//! frozen model, allocation-free and shareable.
//!
//! Both entry points run the *same* SGD routine, so at equal RNG seeds and
//! equal [`NegativeSampler`] state they produce bit-identical embeddings:
//!
//! - [`ElineTrainer::embed_new_node_with`] — the graph-extending path used
//!   by `Grafics::infer`: the new node's rows live in the (grown)
//!   [`EmbeddingModel`] and stay there.
//! - [`ElineTrainer::embed_query`] — the read-only path used by
//!   `GraficsServer`: the new node's rows (and the fresh rows of any
//!   never-seen MAC) live in the caller's [`OnlineScratch`]; the shared
//!   model, graph, and sampler are only read, so one model can serve many
//!   threads concurrently.
//!
//! Per query the routine touches O(deg) neighbor rows and draws negatives
//! in O(1) from the incrementally maintained [`NegativeSampler`] —
//! replacing the historical per-query O(n) rebuild (`d_z^{3/4}` sweep plus
//! alias-table construction) that dominated serving cost on large graphs.
//! The hot loop reuses the scratch buffers across calls and performs no
//! allocation, and uses the same sigmoid lookup table and unrolled dot
//! kernels as the Hogwild offline trainer.
//!
//! Each sample is kept cheap without changing its arithmetic:
//!
//! - the negative draw is branch-free ([`grafics_graph::AliasTable::sample_with`]
//!   picks column or alias with a conditional move, so a random coin
//!   costs no branch mispredict), and the sampler's draw inlines into
//!   the loop;
//! - for the monomorphised dimensions 4/8/16 the query's ego and context
//!   rows are copied into local `[f32; DIM]` arrays for the whole
//!   refinement and written back once at the end, and each step's
//!   gradient accumulates in a local `[f32; DIM]`, so the rows and the
//!   gradient stay in registers instead of going through memory on
//!   every update. Other dimensions update the rows in place and
//!   accumulate in [`OnlineScratch`].
//!
//! Arithmetic order, RNG draw order, the learning-rate schedule and the
//! probe's placement are those of the slice-based loop, pinned by the
//! golden hashes in `online/golden.rs`.

use crate::config::{EmbedError, EmbeddingConfig, Objective, OnlineBudget};
use crate::model::{EmbeddingModel, Space};
use crate::sgd::{
    axpy_lanes, dot_fixed, dot_lanes, fast_sigmoid, sigmoid_table, SIGMOID_TABLE_SIZE,
};
use grafics_graph::{BipartiteGraph, NegativeSampler, NodeIdx};
use grafics_types::kernels::axpy_fixed_f32;
use grafics_types::SignalRecord;
use rand::Rng;

use crate::trainer::ElineTrainer;

/// Reusable buffers for the online embedding hot loop. Create one per
/// serving thread (or one per [`super::ElineTrainer`] call site) and pass
/// it to every call: after warm-up, a query performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct OnlineScratch {
    /// Neighbor indices of the query node (graph nodes, or virtual
    /// indices past the graph's capacity for never-seen MACs).
    nbrs: Vec<u32>,
    /// Cumulative edge weights parallel to `nbrs`.
    cum: Vec<f64>,
    /// Negative draws of the current step.
    negatives: Vec<u32>,
    /// Source-gradient accumulator of the `d > 16` kernels (fixed
    /// dimensions accumulate in registers).
    grad: Vec<f32>,
    /// Freshly initialised ego rows: the query node's row, then one row
    /// per never-seen MAC (read-only serving path).
    rows_ego: Vec<f32>,
    /// Context counterpart of `rows_ego`.
    rows_context: Vec<f32>,
    /// The finished query embedding as `f64`, ready for the cluster model.
    query: Vec<f64>,
}

impl OnlineScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        OnlineScratch::default()
    }

    /// The ego embedding produced by the last
    /// [`ElineTrainer::embed_query`] call, as `f64`.
    #[must_use]
    pub fn query(&self) -> &[f64] {
        &self.query
    }
}

/// What one budgeted online refinement actually spent — returned by
/// `ElineTrainer::embed_query_budgeted` so serving tiers can report
/// early-stop rates and total refinement work on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineOutcome {
    /// SGD samples executed.
    pub samples: usize,
    /// The ceiling the budget allowed (`max_spe × deg`).
    pub budget: usize,
}

impl RefineOutcome {
    /// `true` if the refinement stopped before exhausting its budget.
    #[must_use]
    pub fn early_stop(&self) -> bool {
        self.samples < self.budget
    }
}

/// The adaptive budget's early-stop probe: `decisive` is called with the
/// current (partially refined) ego row every `chunk` samples — strictly
/// inside the loop, never at sample 0 or after the last sample — and a
/// `true` return ends the refinement. The probe must not consume RNG.
struct Probe<'p> {
    chunk: usize,
    decisive: &'p mut dyn FnMut(&[f32]) -> bool,
}

impl Probe<'_> {
    /// Asks `decisive` about the live ego row. Fixed dimensions hand it
    /// a stack copy, so the register-held row's address never escapes
    /// into the opaque callback (which would pin it to memory for the
    /// whole loop).
    #[inline(always)]
    fn fires<const DIM: usize>(&mut self, row: &[f32]) -> bool {
        if DIM == 0 {
            (self.decisive)(row)
        } else {
            let live: [f32; DIM] = row.try_into().expect("row length equals DIM");
            (self.decisive)(&live)
        }
    }
}

/// Read-only row storage for one online embedding: the frozen matrices
/// (row indices `< node`) plus the fresh rows of MACs first seen with the
/// query (indices `> node`). The query node's own rows are held separately
/// and mutably by the caller.
struct FrozenRows<'a> {
    dim: usize,
    node: usize,
    head_ego: &'a [f32],
    head_context: &'a [f32],
    tail_ego: &'a [f32],
    tail_context: &'a [f32],
}

impl FrozenRows<'_> {
    #[inline(always)]
    fn row(&self, space: Space, idx: usize) -> &[f32] {
        let (head, tail) = match space {
            Space::Ego => (self.head_ego, self.tail_ego),
            Space::Context => (self.head_context, self.tail_context),
        };
        let start = if idx < self.node {
            return &head[idx * self.dim..(idx + 1) * self.dim];
        } else {
            (idx - self.node - 1) * self.dim
        };
        &tail[start..start + self.dim]
    }
}

/// Draws `k` negatives from the incremental sampler (one 64-bit RNG draw
/// each), rejecting the query node and the current positive `j` — the
/// shared rejection policy of `sgd::fill_rejecting`. An exhausted sampler
/// (no positive mass — impossible for an anchored query, whose known
/// MACs all carry degree) yields no negatives and consumes no RNG.
#[inline]
fn draw_negatives<R: Rng + ?Sized>(
    neg: &NegativeSampler,
    node: usize,
    j: usize,
    k: usize,
    out: &mut Vec<u32>,
    rng: &mut R,
) {
    crate::sgd::fill_rejecting(k, out, || {
        let z = neg.sample(rng)?;
        (z.index() != node && z.index() != j).then_some(z.0)
    });
}

/// Dot product monomorphised over the embedding dimension; `DIM == 0`
/// selects the lane-blocked runtime-length kernel (bit-identical to the
/// fixed one at equal lengths — the branch is a compile-time constant
/// and folds away), so `d > 16` serves on the same 4-accumulator FMA
/// scheme as the paper's default dimensions.
#[inline(always)]
fn dot_k<const DIM: usize>(a: &[f32], b: &[f32]) -> f32 {
    if DIM == 0 {
        dot_lanes(a, b)
    } else {
        let a: &[f32; DIM] = a.try_into().expect("row length equals DIM");
        let b: &[f32; DIM] = b.try_into().expect("row length equals DIM");
        dot_fixed::<DIM>(a, b)
    }
}

/// `acc += g * v`, monomorphised like [`dot_k`]; both forms emit fused
/// multiply-adds, the fixed one with no bounds checks.
#[inline(always)]
fn axpy_k<const DIM: usize>(acc: &mut [f32], g: f32, v: &[f32]) {
    if DIM == 0 {
        axpy_lanes(acc, g, v);
    } else {
        let acc: &mut [f32; DIM] = acc.try_into().expect("row length equals DIM");
        let v: &[f32; DIM] = v.try_into().expect("row length equals DIM");
        axpy_fixed_f32::<DIM>(acc, g, v);
    }
}

/// One positive-plus-negatives step updating only `src` (a row of the
/// query node): the source half of the serial trainer's `sgd::step`,
/// with the target and negative rows frozen instead of written, no
/// dropout, and the fast kernels (table sigmoid, [`dot_k`], [`axpy_k`]).
/// Fixed dimensions accumulate the gradient in a local `[f32; DIM]` that
/// stays in registers; `d > 16` (`DIM == 0`) zeroes and reuses the
/// scratch slice `grad`. Both start from zeros and add in the same order,
/// so they agree bit for bit.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pos_neg_step<const DIM: usize>(
    table: &[f32; SIGMOID_TABLE_SIZE],
    frozen: &FrozenRows<'_>,
    src: &mut [f32],
    tgt_row: &[f32],
    neg_space: Space,
    negatives: &[u32],
    lr: f32,
    grad: &mut [f32],
) {
    let mut held = [0.0f32; DIM];
    let grad: &mut [f32] = if DIM == 0 {
        grad.fill(0.0);
        grad
    } else {
        &mut held
    };
    let g = lr * (1.0 - fast_sigmoid(table, dot_k::<DIM>(src, tgt_row)));
    axpy_k::<DIM>(grad, g, tgt_row);
    for &z in negatives {
        let zrow = frozen.row(neg_space, z as usize);
        let g = lr * (0.0 - fast_sigmoid(table, dot_k::<DIM>(src, zrow)));
        axpy_k::<DIM>(grad, g, zrow);
    }
    axpy_k::<DIM>(src, 1.0, grad);
}

/// A positive-only pull of `src` towards a frozen row — the online
/// "node as target" update: the label-1 target write of `sgd::step`
/// (`trow += g · src`), here with the query node's row in the target's
/// place, the other end frozen and no negatives.
#[inline(always)]
fn pos_step<const DIM: usize>(
    table: &[f32; SIGMOID_TABLE_SIZE],
    src: &mut [f32],
    tgt_row: &[f32],
    lr: f32,
) {
    let g = lr * (1.0 - fast_sigmoid(table, dot_k::<DIM>(src, tgt_row)));
    axpy_k::<DIM>(src, g, tgt_row);
}

/// Dispatches the online SGD loop to a kernel monomorphised for the
/// common embedding dimensions (the paper's default is 8); other
/// dimensions take the dynamic-length path. `spe` is the
/// samples-per-edge ceiling; a [`Probe`] can end the loop early.
/// Returns the number of samples executed.
#[allow(clippy::too_many_arguments)]
fn run_online_sgd<R: Rng + ?Sized>(
    cfg: &EmbeddingConfig,
    spe: usize,
    probe: Option<Probe<'_>>,
    frozen: &FrozenRows<'_>,
    node_ego: &mut [f32],
    node_context: &mut [f32],
    nbrs: &[u32],
    cum: &[f64],
    neg: &NegativeSampler,
    negatives: &mut Vec<u32>,
    grad: &mut Vec<f32>,
    rng: &mut R,
) -> usize {
    match cfg.dim {
        4 => run_online_sgd_k::<4, R>(
            cfg,
            spe,
            probe,
            frozen,
            node_ego,
            node_context,
            nbrs,
            cum,
            neg,
            negatives,
            grad,
            rng,
        ),
        8 => run_online_sgd_k::<8, R>(
            cfg,
            spe,
            probe,
            frozen,
            node_ego,
            node_context,
            nbrs,
            cum,
            neg,
            negatives,
            grad,
            rng,
        ),
        16 => run_online_sgd_k::<16, R>(
            cfg,
            spe,
            probe,
            frozen,
            node_ego,
            node_context,
            nbrs,
            cum,
            neg,
            negatives,
            grad,
            rng,
        ),
        _ => run_online_sgd_k::<0, R>(
            cfg,
            spe,
            probe,
            frozen,
            node_ego,
            node_context,
            nbrs,
            cum,
            neg,
            negatives,
            grad,
            rng,
        ),
    }
}

/// The shared online SGD loop. `nbrs`/`cum` list the query's neighbors
/// with cumulative weights; `node_ego`/`node_context` are the only rows
/// written. The learning-rate schedule always spans the full
/// `spe × deg` budget, so an early-stopped refinement is a strict
/// prefix — bit-identical as far as it ran — of the never-stopped one,
/// and a probe that is never decisive changes nothing at all.
///
/// For fixed dimensions the query's rows `home_ego`/`home_context` are
/// copied into local `[f32; DIM]` arrays, refined there (in registers:
/// nothing takes their address) and written back once when the loop
/// ends, early stop included; `DIM == 0` updates the rows in place.
#[allow(clippy::too_many_arguments)]
fn run_online_sgd_k<const DIM: usize, R: Rng + ?Sized>(
    cfg: &EmbeddingConfig,
    spe: usize,
    mut probe: Option<Probe<'_>>,
    frozen: &FrozenRows<'_>,
    home_ego: &mut [f32],
    home_context: &mut [f32],
    nbrs: &[u32],
    cum: &[f64],
    neg: &NegativeSampler,
    negatives: &mut Vec<u32>,
    grad: &mut Vec<f32>,
    rng: &mut R,
) -> usize {
    let table = sigmoid_table();
    grad.resize(cfg.dim, 0.0);
    let mut held_ego = [0.0f32; DIM];
    let mut held_context = [0.0f32; DIM];
    let (node_ego, node_context): (&mut [f32], &mut [f32]) = if DIM == 0 {
        (&mut *home_ego, &mut *home_context)
    } else {
        held_ego.copy_from_slice(home_ego);
        held_context.copy_from_slice(home_context);
        (&mut held_ego, &mut held_context)
    };
    let total = spe * nbrs.len();
    let total_weight = *cum.last().expect("at least one neighbor");
    let mut samples = total;
    for t in 0..total {
        if let Some(p) = probe.as_mut() {
            if t > 0 && t % p.chunk == 0 && p.fires::<DIM>(node_ego) {
                // Early stop: the RNG draws of the skipped samples are
                // *not* burned, so the stream position depends on where
                // the probe fired (read-only queries own their stream;
                // the absorb path never probes).
                samples = t;
                break;
            }
        }
        let lr = cfg.lr_at(t, total);
        // Weighted neighbor pick: one uniform draw, binary search over the
        // cumulative weights (O(log deg), allocation-free).
        let u = rng.gen::<f64>() * total_weight;
        let pick = cum.partition_point(|&c| c <= u).min(nbrs.len() - 1);
        let j = nbrs[pick] as usize;
        draw_negatives(neg, frozen.node, j, cfg.negatives, negatives, rng);

        // Direction node → j: only the node's source vector moves.
        // Direction j → node: only the node's target vector moves.
        match cfg.objective {
            Objective::LineFirst => {
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_ego,
                    frozen.row(Space::Ego, j),
                    Space::Ego,
                    negatives,
                    lr,
                    grad,
                );
            }
            Objective::LineSecond => {
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_ego,
                    frozen.row(Space::Context, j),
                    Space::Context,
                    negatives,
                    lr,
                    grad,
                );
                pos_step::<DIM>(table, node_context, frozen.row(Space::Ego, j), lr);
            }
            Objective::LineBoth => {
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_ego,
                    frozen.row(Space::Ego, j),
                    Space::Ego,
                    negatives,
                    lr,
                    grad,
                );
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_ego,
                    frozen.row(Space::Context, j),
                    Space::Context,
                    negatives,
                    lr,
                    grad,
                );
                pos_step::<DIM>(table, node_context, frozen.row(Space::Ego, j), lr);
            }
            Objective::ELine => {
                // Node as source of both objective terms (Eqs. (5), (8)).
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_ego,
                    frozen.row(Space::Context, j),
                    Space::Context,
                    negatives,
                    lr,
                    grad,
                );
                pos_neg_step::<DIM>(
                    table,
                    frozen,
                    node_context,
                    frozen.row(Space::Ego, j),
                    Space::Ego,
                    negatives,
                    lr,
                    grad,
                );
                // Node as target: u'_node from frozen u_j, u_node from
                // frozen u'_j.
                pos_step::<DIM>(table, node_context, frozen.row(Space::Ego, j), lr);
                pos_step::<DIM>(table, node_ego, frozen.row(Space::Context, j), lr);
            }
        }
    }
    if DIM != 0 {
        home_ego.copy_from_slice(&held_ego);
        home_context.copy_from_slice(&held_context);
    }
    samples
}

impl ElineTrainer {
    /// Embeds one *new* graph node against the frozen model using the
    /// incrementally maintained negative sampler and reusable scratch —
    /// the serving-engine form of [`ElineTrainer::embed_new_node`].
    ///
    /// `neg` must represent the negative distribution the caller wants the
    /// refinement to see; `Grafics` passes the sampler state from *before*
    /// the node's insertion, so the graph-extending path and the read-only
    /// [`ElineTrainer::embed_query`] path see identical distributions (the
    /// frozen background graph) and stay bit-identical per seed.
    ///
    /// # Errors
    ///
    /// - [`EmbedError::InvalidConfig`] if the configuration is out of range.
    /// - [`EmbedError::IsolatedNode`] if the node has no incident edges.
    pub fn embed_new_node_with<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        model: &mut EmbeddingModel,
        node: NodeIdx,
        neg: &NegativeSampler,
        scratch: &mut OnlineScratch,
        rng: &mut R,
    ) -> Result<(), EmbedError> {
        let cfg = self.config();
        cfg.validate()?;
        let neighbors = graph.neighbors(node);
        if neighbors.is_empty() {
            return Err(EmbedError::IsolatedNode);
        }
        model.grow(graph.node_capacity(), rng);

        scratch.nbrs.clear();
        scratch.cum.clear();
        let mut acc = 0.0;
        for &(m, w) in neighbors {
            scratch.nbrs.push(m.0);
            acc += w;
            scratch.cum.push(acc);
        }

        let split = model.split_at_node(node);
        let frozen = FrozenRows {
            dim: cfg.dim,
            node: node.index(),
            head_ego: split.frozen_ego,
            head_context: split.frozen_context,
            tail_ego: split.tail_ego,
            tail_context: split.tail_context,
        };
        // The absorb path always runs its full fixed budget: adaptive
        // early stopping here would shift the RNG stream that WAL replay
        // and the journalled absorb sequence depend on.
        run_online_sgd(
            cfg,
            cfg.online_samples_per_edge,
            None,
            &frozen,
            split.node_ego,
            split.node_context,
            &scratch.nbrs,
            &scratch.cum,
            neg,
            &mut scratch.negatives,
            &mut scratch.grad,
            rng,
        );
        Ok(())
    }

    /// Embeds one query record against the frozen graph and model
    /// **without mutating anything shared**: the query node's rows — and
    /// fresh rows for any MAC the graph has never seen, initialised with
    /// the same draws [`EmbeddingModel::grow`] would make — live entirely
    /// in `scratch`. Returns the query's finished ego embedding.
    ///
    /// Given the same RNG seed and the same sampler state, the returned
    /// embedding is bit-identical to what
    /// [`ElineTrainer::embed_new_node_with`] would write for this record
    /// after a graph insertion.
    ///
    /// # Errors
    ///
    /// - [`EmbedError::InvalidConfig`] if the configuration is out of range.
    /// - [`EmbedError::IsolatedNode`] if no reading maps to a live MAC of
    ///   `graph` — the record cannot be anchored to the frozen building
    ///   graph (§V footnote 1: likely collected outside the building).
    pub fn embed_query<'a, R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        model: &EmbeddingModel,
        record: &SignalRecord,
        neg: &NegativeSampler,
        scratch: &'a mut OnlineScratch,
        rng: &mut R,
    ) -> Result<&'a [f64], EmbedError> {
        let spe = self.config().online_samples_per_edge;
        let (query, _) = self.embed_query_budgeted(
            graph,
            model,
            record,
            neg,
            OnlineBudget::Fixed(spe),
            &mut |_| false,
            scratch,
            rng,
        )?;
        Ok(query)
    }

    /// [`ElineTrainer::embed_query`] with an explicit [`OnlineBudget`]:
    /// an [`OnlineBudget::Adaptive`] budget probes `decisive` with the
    /// current ego row every `min_spe` samples per edge and stops
    /// refining on a `true` return, reporting what it spent in the
    /// returned [`RefineOutcome`].
    ///
    /// Determinism contract: the learning-rate schedule spans the full
    /// `max_spe` budget and the probe consumes no RNG, so a refinement
    /// whose probe never fires — including any `Adaptive` budget with
    /// `margin_ratio <= 0` — is bit-identical to `Fixed(max_spe)`,
    /// ending with the RNG in the same state. An early stop leaves the
    /// RNG wherever the probe fired; that is safe here because the
    /// read-only query path owns its per-record stream, and is exactly
    /// why the mutable absorb path never probes.
    ///
    /// # Errors
    ///
    /// As [`ElineTrainer::embed_query`], plus
    /// [`EmbedError::InvalidConfig`] for an out-of-range `budget`.
    #[allow(clippy::too_many_arguments)]
    pub fn embed_query_budgeted<'a, R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        model: &EmbeddingModel,
        record: &SignalRecord,
        neg: &NegativeSampler,
        budget: OnlineBudget,
        decisive: &mut dyn FnMut(&[f32]) -> bool,
        scratch: &'a mut OnlineScratch,
        rng: &mut R,
    ) -> Result<(&'a [f64], RefineOutcome), EmbedError> {
        let cfg = self.config();
        cfg.validate()?;
        budget.validate()?;
        let dim = cfg.dim;
        let cap = graph.node_capacity();

        // Neighbor worklist in reading order (sorted by MAC — the same
        // order `add_record` creates adjacency in). Never-seen MACs get
        // virtual indices past the node's own, mirroring the indices
        // `add_record` would allocate.
        scratch.nbrs.clear();
        scratch.cum.clear();
        let mut acc = 0.0;
        let mut fresh = 0u32;
        let mut anchored = false;
        for reading in record.readings() {
            let idx = match graph.mac_node(reading.mac) {
                Some(m) if !graph.is_removed(m) => {
                    anchored = true;
                    m.0
                }
                _ => {
                    fresh += 1;
                    cap as u32 + fresh
                }
            };
            scratch.nbrs.push(idx);
            acc += graph.weight_function().weight(reading.rssi);
            scratch.cum.push(acc);
        }
        if !anchored {
            return Err(EmbedError::IsolatedNode);
        }

        // Fresh rows: the query node first, then one row per never-seen
        // MAC. The per-coordinate (ego, context) draw interleaving below
        // replicates `EmbeddingModel::draw_rows` element for element, so
        // this path consumes the RNG exactly like the `grow` call the
        // graph-extending path makes after `add_record`.
        let bound = 0.5 / dim as f32;
        scratch.rows_ego.clear();
        scratch.rows_context.clear();
        for _ in 0..(1 + fresh as usize) * dim {
            scratch.rows_ego.push(rng.gen_range(-bound..=bound));
            scratch.rows_context.push(rng.gen_range(-bound..=bound));
        }
        let (node_ego, tail_ego) = scratch.rows_ego.split_at_mut(dim);
        let (node_context, tail_context) = scratch.rows_context.split_at_mut(dim);

        let (model_ego, model_context) = model.matrices();
        let frozen = FrozenRows {
            dim,
            node: cap,
            head_ego: model_ego,
            head_context: model_context,
            tail_ego,
            tail_context,
        };
        let deg = scratch.nbrs.len();
        let (spe, probe) = match budget {
            OnlineBudget::Fixed(spe) => (spe, None),
            OnlineBudget::Adaptive {
                max_spe,
                min_spe,
                margin_ratio,
            } => {
                // `margin_ratio <= 0` can never be decisive — skip the
                // probe machinery entirely (identical result either way;
                // the probe consumes no RNG).
                let probe = (margin_ratio > 0.0).then_some(Probe {
                    chunk: min_spe * deg,
                    decisive,
                });
                (max_spe, probe)
            }
        };
        let samples = run_online_sgd(
            cfg,
            spe,
            probe,
            &frozen,
            node_ego,
            node_context,
            &scratch.nbrs,
            &scratch.cum,
            neg,
            &mut scratch.negatives,
            &mut scratch.grad,
            rng,
        );

        scratch.query.clear();
        scratch.query.extend(node_ego.iter().map(|&x| f64::from(x)));
        Ok((
            &scratch.query,
            RefineOutcome {
                samples,
                budget: spe * deg,
            },
        ))
    }
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbeddingConfig;
    use grafics_graph::WeightFunction;
    use grafics_types::{MacAddr, Reading, Rssi};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rec(macs: &[u64]) -> SignalRecord {
        SignalRecord::new(
            macs.iter()
                .map(|&m| Reading::new(MacAddr::from_u64(m), Rssi::new(-62.0).unwrap()))
                .collect(),
        )
        .unwrap()
    }

    fn trained(seed: u64) -> (BipartiteGraph, EmbeddingModel, ElineTrainer) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = BipartiteGraph::new(WeightFunction::default());
        for k in 0..16u64 {
            g.add_record(&rec(&[k % 8, (k + 1) % 8, (k + 3) % 8]));
        }
        let trainer = ElineTrainer::new(EmbeddingConfig {
            epochs: 15,
            online_samples_per_edge: 40,
            ..Default::default()
        });
        let model = trainer.train(&g, &mut rng).unwrap();
        (g, model, trainer)
    }

    /// The read-only query path and the graph-extending path produce
    /// bit-identical embeddings at the same seed and sampler state — also
    /// when the record carries a MAC the graph has never seen (virtual
    /// fresh rows).
    #[test]
    fn query_path_matches_insertion_path_bitwise() {
        for (case, query) in [
            rec(&[0, 2, 4]),          // all MACs known
            rec(&[1, 3, 999]),        // one never-seen MAC
            rec(&[5, 700, 800, 900]), // mostly never-seen MACs
        ]
        .into_iter()
        .enumerate()
        {
            let (g, model, trainer) = trained(7);
            let neg = NegativeSampler::from_graph(&g, trainer.config().negative_exponent);

            // Read-only path against the frozen graph/model.
            let mut scratch = OnlineScratch::new();
            let mut rng_q = ChaCha8Rng::seed_from_u64(55);
            let frozen_query = trainer
                .embed_query(&g, &model, &query, &neg, &mut scratch, &mut rng_q)
                .unwrap()
                .to_vec();

            // Graph-extending path with the pre-insertion sampler state.
            let mut g2 = g.clone();
            let mut model2 = model.clone();
            let rid = g2.add_record(&query);
            let node = g2.record_node(rid).unwrap();
            let mut rng_m = ChaCha8Rng::seed_from_u64(55);
            trainer
                .embed_new_node_with(&g2, &mut model2, node, &neg, &mut scratch, &mut rng_m)
                .unwrap();

            assert_eq!(
                frozen_query,
                model2.ego_vec(node),
                "case {case}: paths diverged"
            );
            // The two RNGs must also end in the same state.
            assert_eq!(rng_q.gen::<u64>(), rng_m.gen::<u64>(), "case {case}");
        }
    }

    /// The lane-blocked `d > 16` kernels keep the two online paths
    /// bit-identical too (the dims outside the 4/8/16 monomorphisations
    /// now run 4-accumulator FMA instead of the old non-FMA unroll).
    #[test]
    fn query_path_matches_insertion_path_bitwise_at_dim_32() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut g = BipartiteGraph::new(WeightFunction::default());
        for k in 0..16u64 {
            g.add_record(&rec(&[k % 8, (k + 1) % 8, (k + 3) % 8]));
        }
        let trainer = ElineTrainer::new(EmbeddingConfig {
            dim: 32,
            epochs: 10,
            online_samples_per_edge: 30,
            ..Default::default()
        });
        let model = trainer.train(&g, &mut rng).unwrap();
        let neg = NegativeSampler::from_graph(&g, trainer.config().negative_exponent);
        let query = rec(&[0, 3, 999]);

        let mut scratch = OnlineScratch::new();
        let mut rng_q = ChaCha8Rng::seed_from_u64(21);
        let frozen_query = trainer
            .embed_query(&g, &model, &query, &neg, &mut scratch, &mut rng_q)
            .unwrap()
            .to_vec();

        let mut g2 = g.clone();
        let mut model2 = model.clone();
        let rid = g2.add_record(&query);
        let node = g2.record_node(rid).unwrap();
        let mut rng_m = ChaCha8Rng::seed_from_u64(21);
        trainer
            .embed_new_node_with(&g2, &mut model2, node, &neg, &mut scratch, &mut rng_m)
            .unwrap();
        assert_eq!(frozen_query, model2.ego_vec(node));
    }

    /// An adaptive budget whose probe never fires (here: `margin_ratio`
    /// of 0, the never-decisive guard) is bit-identical to
    /// `Fixed(max_spe)` — same embedding, same final RNG state, full
    /// budget spent.
    #[test]
    fn never_decisive_adaptive_matches_fixed_bitwise() {
        let (g, model, trainer) = trained(13);
        let neg = NegativeSampler::from_graph(&g, trainer.config().negative_exponent);
        let query = rec(&[0, 2, 999]);

        let mut scratch = OnlineScratch::new();
        let mut rng_f = ChaCha8Rng::seed_from_u64(9);
        let (q_fixed, out_fixed) = trainer
            .embed_query_budgeted(
                &g,
                &model,
                &query,
                &neg,
                OnlineBudget::Fixed(40),
                &mut |_| false,
                &mut scratch,
                &mut rng_f,
            )
            .map(|(q, o)| (q.to_vec(), o))
            .unwrap();

        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut probed = 0usize;
        let (q_adaptive, out_adaptive) = trainer
            .embed_query_budgeted(
                &g,
                &model,
                &query,
                &neg,
                OnlineBudget::Adaptive {
                    max_spe: 40,
                    min_spe: 5,
                    margin_ratio: 0.0,
                },
                &mut |_| {
                    probed += 1;
                    true // would stop if the guard ever let it run
                },
                &mut scratch,
                &mut rng_a,
            )
            .map(|(q, o)| (q.to_vec(), o))
            .unwrap();

        assert_eq!(q_fixed, q_adaptive);
        assert_eq!(out_fixed, out_adaptive);
        assert_eq!(probed, 0, "margin_ratio = 0 must never probe");
        assert!(!out_adaptive.early_stop());
        assert_eq!(out_adaptive.samples, out_adaptive.budget);
        assert_eq!(rng_f.gen::<u64>(), rng_a.gen::<u64>());
    }

    /// An always-decisive probe stops at the first chunk boundary:
    /// exactly `min_spe × deg` samples, flagged as an early stop, and
    /// the result equals the prefix a plain `Fixed(min_spe)` run of the
    /// same schedule would *not* produce (the LR schedule still spans
    /// `max_spe`), pinned instead against a manual prefix run.
    #[test]
    fn always_decisive_probe_stops_at_first_chunk() {
        let (g, model, trainer) = trained(29);
        let neg = NegativeSampler::from_graph(&g, trainer.config().negative_exponent);
        let query = rec(&[1, 3, 5]);
        let deg = query.readings().len();

        let mut scratch = OnlineScratch::new();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let (_, out) = trainer
            .embed_query_budgeted(
                &g,
                &model,
                &query,
                &neg,
                OnlineBudget::Adaptive {
                    max_spe: 40,
                    min_spe: 5,
                    margin_ratio: 1.0,
                },
                &mut |_| true,
                &mut scratch,
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.samples, 5 * deg);
        assert_eq!(out.budget, 40 * deg);
        assert!(out.early_stop());
    }

    #[test]
    fn query_with_no_known_mac_is_rejected() {
        let (g, model, trainer) = trained(3);
        let neg = NegativeSampler::from_graph(&g, 0.75);
        let mut scratch = OnlineScratch::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = trainer.embed_query(
            &g,
            &model,
            &rec(&[4000, 4001]),
            &neg,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(err.unwrap_err(), EmbedError::IsolatedNode);
    }

    /// All four objectives run through both online paths and stay finite.
    #[test]
    fn every_objective_supported_online() {
        for objective in [
            Objective::LineFirst,
            Objective::LineSecond,
            Objective::LineBoth,
            Objective::ELine,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let mut g = BipartiteGraph::new(WeightFunction::default());
            for k in 0..10u64 {
                g.add_record(&rec(&[k % 5, (k + 1) % 5]));
            }
            let trainer = ElineTrainer::new(EmbeddingConfig {
                epochs: 10,
                online_samples_per_edge: 20,
                objective,
                ..Default::default()
            });
            let mut model = trainer.train(&g, &mut rng).unwrap();
            let neg = NegativeSampler::from_graph(&g, 0.75);
            let mut scratch = OnlineScratch::new();
            let q = trainer
                .embed_query(&g, &model, &rec(&[0, 2]), &neg, &mut scratch, &mut rng)
                .unwrap();
            assert!(q.iter().all(|x| x.is_finite()), "{objective}");

            let rid = g.add_record(&rec(&[1, 3]));
            let node = g.record_node(rid).unwrap();
            trainer
                .embed_new_node_with(&g, &mut model, node, &neg, &mut scratch, &mut rng)
                .unwrap();
            assert!(model.all_finite(), "{objective}");
        }
    }
}
