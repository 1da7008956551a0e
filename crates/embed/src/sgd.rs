//! Low-level SGD primitives: the serial trainer's one
//! skip-gram-with-negative-sampling [`step`] over a directed
//! (source → target) pair, monomorphised over the embedding dimension,
//! plus the sigmoid lookup table and the negative-rejection policy
//! shared with the Hogwild trainer and the online path.
//!
//! The dot / axpy kernels themselves live in the workspace-wide
//! [`grafics_types::kernels`] layer (one copy shared with the cluster
//! and `nn` crates); this module re-exports them under the historical
//! names so the trainers keep reading naturally:
//!
//! - [`dot`] / [`axpy`] — sequential-exact, the arithmetic of [`step`],
//!   pinned by the serial trainer's golden hashes (`trainer/golden.rs`);
//! - [`dot_fixed`] — fixed-lane FMA for the monomorphised 4/8/16 paths;
//! - [`dot_lanes`] / [`axpy_lanes`] — the lane-blocked FMA path for
//!   every other dimension (bit-identical to the fixed kernels at equal
//!   lengths), which is what `d > 16` models now train and serve on.

use crate::model::{EmbeddingModel, Space};
use grafics_graph::NodeIdx;
use rand::Rng;
use std::hint::select_unpredictable;
use std::sync::OnceLock;

pub(crate) use grafics_types::kernels::{
    axpy_f32 as axpy, axpy_lanes_f32 as axpy_lanes, dot_f32 as dot, dot_fixed_f32 as dot_fixed,
    dot_lanes_f32 as dot_lanes,
};

/// Numerically safe logistic function.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    // Clamp to the range where the gradient is meaningfully non-zero; this
    // mirrors LINE's sigmoid lookup-table bounds and prevents exp overflow.
    let x = x.clamp(-8.0, 8.0);
    1.0 / (1.0 + (-x).exp())
}

/// Entries in the precomputed sigmoid table over `[-SIGMOID_BOUND, +SIGMOID_BOUND)`.
pub(crate) const SIGMOID_TABLE_SIZE: usize = 1024;
/// Clamp bound shared by [`sigmoid`] and the table.
pub(crate) const SIGMOID_BOUND: f32 = 8.0;

static SIGMOID_TABLE: OnceLock<[f32; SIGMOID_TABLE_SIZE]> = OnceLock::new();

/// The shared 1024-entry sigmoid lookup table (built once per process).
/// Each entry holds `σ(midpoint)` of its cell, so the absolute error is
/// bounded by `σ'max · cellwidth / 2 = 0.25 · (16/1024) / 2 ≈ 2e-3` —
/// LINE trains with the same table and converges identically, because SGD
/// noise dwarfs the quantisation.
pub(crate) fn sigmoid_table() -> &'static [f32; SIGMOID_TABLE_SIZE] {
    SIGMOID_TABLE.get_or_init(|| {
        let mut table = [0.0f32; SIGMOID_TABLE_SIZE];
        let cell = 2.0 * SIGMOID_BOUND / SIGMOID_TABLE_SIZE as f32;
        for (i, slot) in table.iter_mut().enumerate() {
            let x = -SIGMOID_BOUND + (i as f32 + 0.5) * cell;
            *slot = sigmoid(x);
        }
        table
    })
}

/// Table-based sigmoid used on the Hogwild hot path.
#[inline(always)]
pub(crate) fn fast_sigmoid(table: &[f32; SIGMOID_TABLE_SIZE], x: f32) -> f32 {
    let scaled = (x + SIGMOID_BOUND) * (SIGMOID_TABLE_SIZE as f32 / (2.0 * SIGMOID_BOUND));
    // Saturated values behave like the clamp in `sigmoid`.
    let idx = (scaled as i32).clamp(0, SIGMOID_TABLE_SIZE as i32 - 1) as usize;
    table[idx]
}

/// Fills `out` with up to `k` values accepted by `draw` (`None` =
/// rejected/unavailable), giving up after `20 · max(k, 1)` attempts —
/// the single rejection policy shared by the serial, Hogwild, and online
/// negative samplers, so the guard bound and semantics can never drift
/// apart between them.
#[inline(always)]
pub(crate) fn fill_rejecting<T>(k: usize, out: &mut Vec<T>, mut draw: impl FnMut() -> Option<T>) {
    out.clear();
    let mut guard = 0;
    while out.len() < k && guard < 20 * k.max(1) {
        if let Some(v) = draw() {
            out.push(v);
        }
        guard += 1;
    }
}

/// A row selector: which matrix, which node.
pub(crate) type RowSel = (Space, NodeIdx);

/// `row` at the step's compile-time length: for `DIM > 0` one length
/// check turns it into `&mut [f32; DIM]`, so every loop over it has a
/// constant trip count and no bounds checks; `DIM == 0` keeps the
/// runtime length.
#[inline(always)]
fn fixed<const DIM: usize>(row: &mut [f32]) -> &mut [f32] {
    if DIM == 0 {
        row
    } else {
        <&mut [f32; DIM]>::try_from(row).expect("row length equals DIM")
    }
}

/// The serial trainer's one SGD step: the directed positive pair
/// `src → tgt` plus `negatives` (rows of the target's space), with
/// learning rate `lr`. Every row involved is written: the targets in
/// turn, then the source once from its accumulated gradient. `dropout`
/// drops each *source-gradient* coordinate with the given probability
/// (the paper trains E-LINE with dropout 0.1).
///
/// For `DIM > 0` the source row is copied into a local `[f32; DIM]`,
/// the gradient accumulates in another, and each target is borrowed at
/// length `DIM`, so the rows and the gradient stay in registers. `DIM ==
/// 0` serves every other dimension from `scratch` (`2 · dim` floats:
/// source copy, gradient); fixed dimensions ignore it.
///
/// The arithmetic is the sequential-exact contract: each dot product
/// adds in ascending coordinate order with the exact `expf` [`sigmoid`],
/// and per coordinate the gradient reads a target before the target is
/// written. Under dropout one `gen::<f32>()` coin per coordinate, in
/// order, picks `row + grad` or `row` without a branch; without dropout
/// no coin is drawn.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn step<const DIM: usize, R: Rng + ?Sized>(
    model: &mut EmbeddingModel,
    src: RowSel,
    tgt: RowSel,
    negatives: &[NodeIdx],
    lr: f32,
    dropout: f32,
    scratch: &mut [f32],
    rng: &mut R,
) {
    let mut held_src = [0.0f32; DIM];
    let mut held_grad = [0.0f32; DIM];
    let (src_copy, grad): (&mut [f32], &mut [f32]) = if DIM == 0 {
        let (src_copy, grad) = scratch.split_at_mut(model.dim());
        grad.fill(0.0);
        (src_copy, grad)
    } else {
        (&mut held_src, &mut held_grad)
    };
    src_copy.copy_from_slice(model.row(src.0, src.1));

    let targets = std::iter::once((tgt.1, 1.0)).chain(negatives.iter().map(|&z| (z, 0.0)));
    for (node, label) in targets {
        let trow = fixed::<DIM>(model.row_mut(tgt.0, node));
        let g = lr * (label - sigmoid(dot(src_copy, trow)));
        axpy(grad, g, trow);
        axpy(trow, g, src_copy);
    }

    let srow = fixed::<DIM>(model.row_mut(src.0, src.1));
    if dropout > 0.0 {
        for (slot, &g) in srow.iter_mut().zip(&*grad) {
            *slot = select_unpredictable(rng.gen::<f32>() >= dropout, *slot + g, *slot);
        }
    } else {
        for (slot, &g) in srow.iter_mut().zip(&*grad) {
            *slot += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fast_sigmoid_tracks_exact_sigmoid() {
        let table = sigmoid_table();
        let mut x = -12.0f32;
        while x < 12.0 {
            let exact = sigmoid(x);
            let approx = fast_sigmoid(table, x);
            assert!(
                (exact - approx).abs() < 3e-3,
                "x={x}: exact {exact} vs table {approx}"
            );
            x += 0.013;
        }
        assert!((fast_sigmoid(table, 0.0) - 0.5).abs() < 3e-3);
        assert!(fast_sigmoid(table, 1e30) > 0.999);
        assert!(fast_sigmoid(table, -1e30) < 0.001);
    }

    #[test]
    fn dot_kernels_agree() {
        let a: Vec<f32> = (0..13).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).cos()).collect();
        let seq = dot(&a, &b);
        let lanes = dot_lanes(&a, &b);
        assert!((seq - lanes).abs() < 1e-5, "{seq} vs {lanes}");
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot_lanes(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut acc = vec![1.0f32, 2.0, 3.0];
        axpy(&mut acc, 2.0, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, vec![21.0, 42.0, 63.0]);
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 0.001);
        assert!(sigmoid(f32::MAX).is_finite());
    }

    #[test]
    fn positive_pair_increases_dot() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = EmbeddingModel::init(3, 4, &mut rng);
        let (i, j) = (NodeIdx(0), NodeIdx(1));
        let dot_before: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(j))
            .map(|(&a, &b)| a * b)
            .sum();
        for _ in 0..200 {
            step::<4, _>(
                &mut model,
                (Space::Ego, i),
                (Space::Context, j),
                &[],
                0.1,
                0.0,
                &mut [],
                &mut rng,
            );
        }
        let dot_after: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(j))
            .map(|(&a, &b)| a * b)
            .sum();
        assert!(
            dot_after > dot_before,
            "{dot_after} should exceed {dot_before}"
        );
        assert!(model.all_finite());
    }

    #[test]
    fn negative_pair_decreases_dot() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut model = EmbeddingModel::init(3, 4, &mut rng);
        let (i, z) = (NodeIdx(0), NodeIdx(2));
        // The runtime-length instance, with its scratch.
        let mut scratch = [0.0f32; 8];
        for _ in 0..200 {
            step::<0, _>(
                &mut model,
                (Space::Ego, i),
                (Space::Context, NodeIdx(1)),
                &[z],
                0.1,
                0.0,
                &mut scratch,
                &mut rng,
            );
        }
        let dot_neg: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(z))
            .map(|(&a, &b)| a * b)
            .sum();
        assert!(
            dot_neg < 0.0,
            "negative dot should be pushed below zero, got {dot_neg}"
        );
    }

    #[test]
    fn full_dropout_blocks_source_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut model = EmbeddingModel::init(2, 4, &mut rng);
        let before: Vec<f32> = model.ego(NodeIdx(0)).to_vec();
        step::<4, _>(
            &mut model,
            (Space::Ego, NodeIdx(0)),
            (Space::Context, NodeIdx(1)),
            &[],
            0.5,
            0.999_999, // effectively drop every coordinate
            &mut [],
            &mut rng,
        );
        assert_eq!(model.ego(NodeIdx(0)), before.as_slice());
    }
}
