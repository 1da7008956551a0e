//! Incrementally maintained weighted sampling for the online serving path.
//!
//! The offline trainer draws negatives from a static [`crate::AliasTable`]
//! built once per training run — O(n) preprocessing amortised over millions
//! of draws. The *online* path is the opposite regime: one query touches a
//! handful of nodes but historically rebuilt the whole `d_z^{3/4}` table
//! (an O(n) `powf` sweep plus an O(n) alias construction) per inference.
//!
//! [`DynamicWeightedSampler`] is a Fenwick (binary indexed) tree over the
//! unnormalised weights: `set`/`push` cost O(log n), one draw costs
//! O(log n), and the exact per-slot weights are kept alongside the tree so
//! the represented distribution never drifts from what the caller set.
//! [`NegativeSampler`] specialises it to the Eq. (10) negative-sampling
//! distribution `Pr(z) ∝ d_z^e` over a [`crate::BipartiteGraph`]'s node
//! space, with O(deg) resync after each graph mutation.

use crate::{AliasTable, BipartiteGraph, NodeIdx};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dynamic discrete distribution over `0..len` supporting O(log n)
/// weight updates, appends, and draws.
///
/// # Examples
///
/// ```
/// use grafics_graph::DynamicWeightedSampler;
/// use rand::SeedableRng;
///
/// let mut s = DynamicWeightedSampler::new(&[1.0, 0.0, 3.0]);
/// s.set(1, 4.0); // slot 1 now carries half the mass
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut counts = [0usize; 3];
/// for _ in 0..8_000 {
///     counts[s.sample(&mut rng).unwrap()] += 1;
/// }
/// assert!(counts[1] > 3_600 && counts[1] < 4_400);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicWeightedSampler {
    /// Exact per-slot weights (the source of truth for the distribution).
    weights: Vec<f64>,
    /// Fenwick partial sums, 1-based: `tree[i]` covers `(i - lowbit(i), i]`.
    tree: Vec<f64>,
    /// Number of slots with positive weight. The tree's sums accumulate
    /// rounding over incremental updates, so emptiness is decided by this
    /// exact counter, never by `total() > 0`.
    positive: usize,
}

#[inline]
const fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl DynamicWeightedSampler {
    /// Builds a sampler over `weights`. Negative or non-finite entries are
    /// clamped to zero (a zero-weight slot is legal and never drawn).
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        let mut s = DynamicWeightedSampler {
            weights: Vec::with_capacity(weights.len()),
            tree: Vec::with_capacity(weights.len() + 1),
            positive: 0,
        };
        s.tree.push(0.0);
        for &w in weights {
            s.push(w);
        }
        s
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the sampler has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The exact weight of `slot`.
    #[must_use]
    pub fn weight(&self, slot: usize) -> f64 {
        self.weights[slot]
    }

    /// The exact per-slot weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total mass as tracked by the tree (may differ from the exact sum of
    /// [`DynamicWeightedSampler::weights`] by accumulated rounding of at
    /// most a few ulps per update).
    #[must_use]
    pub fn total(&self) -> f64 {
        // Prefix sum over the whole range.
        let mut i = self.weights.len();
        let mut t = 0.0;
        while i > 0 {
            t += self.tree[i];
            i -= lowbit(i);
        }
        t
    }

    /// Number of slots with strictly positive weight (tracked exactly).
    #[must_use]
    #[inline]
    pub fn positive_slots(&self) -> usize {
        self.positive
    }

    /// Appends a slot with weight `w` in O(log n).
    pub fn push(&mut self, w: f64) {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        self.positive += usize::from(w > 0.0);
        self.weights.push(w);
        // 1-based index of the new slot; tree[i] = Σ weights over
        // (i - lowbit(i), i]: the new weight plus the already-final
        // subtrees immediately to its left.
        let i = self.weights.len();
        let mut v = w;
        let mut j = i - 1;
        let floor = i - lowbit(i);
        while j > floor {
            v += self.tree[j];
            j -= lowbit(j);
        }
        self.tree.push(v);
    }

    /// Sets the weight of `slot` in O(log n). Negative or non-finite
    /// weights are clamped to zero.
    pub fn set(&mut self, slot: usize, w: f64) {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let delta = w - self.weights[slot];
        if delta == 0.0 {
            return;
        }
        self.positive -= usize::from(self.weights[slot] > 0.0);
        self.positive += usize::from(w > 0.0);
        self.weights[slot] = w;
        let mut i = slot + 1;
        while i <= self.weights.len() {
            self.tree[i] += delta;
            i += lowbit(i);
        }
    }

    /// Draws one slot with probability proportional to its weight, from a
    /// single uniform draw in `[0, 1)`. Returns `None` if the total mass
    /// is zero.
    #[must_use]
    pub fn sample_with(&self, u: f64) -> Option<usize> {
        if self.positive == 0 {
            return None;
        }
        let total = self.total();
        if total.is_nan() || total <= 0.0 {
            // Drift pushed the tracked total to ~0 while exact positive
            // weights remain: fall back to the first positive slot.
            return self.weights.iter().position(|&w| w > 0.0);
        }
        let mut target = u * total;
        let n = self.weights.len();
        let mut mask = n.next_power_of_two();
        let mut pos = 0usize; // count of slots with cumulative sum <= target
        while mask > 0 {
            let next = pos + mask;
            if next <= n && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        let mut slot = pos.min(n - 1);
        // Rounding at a block boundary can land on a zero-weight slot;
        // advance to the next positive one (probability-0 event, bounded
        // by the gap length).
        while self.weights[slot] == 0.0 && slot + 1 < n {
            slot += 1;
        }
        if self.weights[slot] == 0.0 {
            slot = self.weights.iter().rposition(|&w| w > 0.0)?;
        }
        Some(slot)
    }

    /// Draws one slot using `rng` (one `f64` draw). Returns `None` if the
    /// total mass is zero.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        self.sample_with(rng.gen::<f64>())
    }
}

/// The negative-sampling distribution `Pr(z) ∝ d_z^e` (Eq. (10)) over a
/// bipartite graph's node-index space, maintained incrementally.
///
/// Build once from the trained graph with
/// [`NegativeSampler::from_graph`]; after a graph mutation, resync only
/// the touched slots with [`NegativeSampler::sync_node`] /
/// [`NegativeSampler::sync_appended`] — O(deg·log n) per record insertion
/// or removal instead of the O(n) per-query rebuild of
/// [`BipartiteGraph::negative_sampling_weights`] + alias construction.
///
/// Two layers cooperate:
///
/// - the **exact weights** (a [`DynamicWeightedSampler`]) track every
///   mutation immediately, so the represented distribution never drifts —
///   a property test pins it bit-for-bit against the from-scratch sweep
///   under random add/remove sequences;
/// - an **alias-table snapshot** serves the actual draws in O(1). It is
///   rebuilt from the exact weights at *epoch boundaries* — after
///   `max(64, n/16)` slot changes — so a burst of graph mutations pays
///   amortised O(1) extra per touched slot, and pure read-only serving
///   traffic never rebuilds at all.
///
/// Between epochs a draw can therefore see a slightly stale distribution:
/// nodes added since the last epoch are not yet candidates (exactly the
/// frozen-background semantics the online path wants) and up to 1/16 of
/// slots reflect a degree off by the few mutations since. Negatives are
/// noise by construction (Eq. (10) is itself a heuristic), so this has no
/// measurable effect on embedding quality — while keeping the per-draw
/// cost identical to offline training's alias draws.
///
/// Tombstoned and isolated nodes carry zero exact mass, exactly like the
/// from-scratch weight sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegativeSampler {
    exponent: f64,
    sampler: DynamicWeightedSampler,
    /// O(1)-draw snapshot of the exact weights as of the last epoch;
    /// `None` only while no slot carries mass. Serialised so a save/load
    /// roundtrip reproduces the draw stream exactly.
    snapshot: Option<AliasTable>,
    /// Slot changes since the snapshot was built.
    stale: usize,
}

impl NegativeSampler {
    /// Builds the sampler from every node slot of `graph` (O(n)), with a
    /// fresh snapshot.
    #[must_use]
    pub fn from_graph(graph: &BipartiteGraph, exponent: f64) -> Self {
        let sampler = DynamicWeightedSampler::new(&graph.negative_sampling_weights(exponent));
        let snapshot = AliasTable::new(sampler.weights());
        NegativeSampler {
            exponent,
            sampler,
            snapshot,
            stale: 0,
        }
    }

    /// The distribution exponent `e`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Number of node slots covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sampler.len()
    }

    /// `true` if no node slots are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sampler.is_empty()
    }

    /// `true` if no node currently carries sampling mass.
    #[must_use]
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.sampler.positive_slots() == 0
    }

    /// The exact unnormalised weight of `node`'s slot.
    #[must_use]
    pub fn weight(&self, node: NodeIdx) -> f64 {
        self.sampler.weight(node.index())
    }

    /// The exact unnormalised weights, slot per node index.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        self.sampler.weights()
    }

    /// Recomputes the slot of one existing node from the graph's current
    /// degree (O(log n), amortised snapshot upkeep included). Call for
    /// every pre-existing node whose degree a mutation changed (the
    /// neighbors of an inserted/removed node, and the removed node
    /// itself).
    pub fn sync_node(&mut self, graph: &BipartiteGraph, node: NodeIdx) {
        self.sampler.set(
            node.index(),
            graph.negative_sampling_weight(node, self.exponent),
        );
        self.note_changed(1);
    }

    /// Appends slots for nodes created since the sampler last covered the
    /// graph (O(new·log n), amortised snapshot upkeep included). Call
    /// after `add_record` to cover the new record node and any new MAC
    /// nodes.
    pub fn sync_appended(&mut self, graph: &BipartiteGraph) {
        let from = self.sampler.len();
        for i in from..graph.node_capacity() {
            self.sampler
                .push(graph.negative_sampling_weight(NodeIdx(i as u32), self.exponent));
        }
        self.note_changed(self.sampler.len() - from);
    }

    /// The whole resync for one record insertion: covers the appended
    /// nodes (the record and any new MACs) and recomputes every
    /// pre-existing neighbor whose degree the insertion bumped. Call
    /// right after `graph.add_record` created `node`. This is *the*
    /// insert choreography — mutation paths must not hand-roll it.
    pub fn sync_inserted(&mut self, graph: &BipartiteGraph, node: NodeIdx) {
        self.sync_appended(graph);
        for &(m, _) in graph.neighbors(node) {
            if m.index() < node.index() {
                self.sync_node(graph, m);
            }
        }
    }

    /// The whole resync for one node removal: zeroes the removed `node`'s
    /// slot and recomputes each of its `former` neighbors (captured
    /// *before* the removal). This is *the* removal choreography —
    /// mutation paths must not hand-roll it.
    pub fn sync_removed(&mut self, graph: &BipartiteGraph, node: NodeIdx, former: &[NodeIdx]) {
        self.sync_node(graph, node);
        for &n in former {
            self.sync_node(graph, n);
        }
    }

    /// Rebuilds the O(1)-draw snapshot from the exact weights now —
    /// forces an epoch boundary. `Grafics::refresh` calls this through
    /// [`NegativeSampler::from_graph`]; tests use it to compare the live
    /// draw distribution against a from-scratch rebuild.
    pub fn rebuild_snapshot(&mut self) {
        self.snapshot = AliasTable::new(self.sampler.weights());
        self.stale = 0;
    }

    /// Slot changes since the snapshot epoch (diagnostics).
    #[must_use]
    pub fn staleness(&self) -> usize {
        self.stale
    }

    fn note_changed(&mut self, slots: usize) {
        self.stale += slots;
        let threshold = 64.max(self.sampler.len() / 16);
        if self.stale >= threshold || (self.snapshot.is_none() && !self.is_exhausted()) {
            self.rebuild_snapshot();
        }
    }

    /// Draws one node in O(1) from the snapshot (one 64-bit RNG draw).
    /// Returns `None` if every covered node has zero exact mass.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        if self.is_exhausted() {
            return None;
        }
        match &self.snapshot {
            Some(table) => {
                let i = table.sample_with(rng.next_u64());
                Some(NodeIdx(u32::try_from(i).expect("node space fits u32")))
            }
            // Unreachable by the epoch invariant (positive mass forces a
            // snapshot); the exact structure stands in defensively.
            None => self
                .sampler
                .sample(rng)
                .map(|i| NodeIdx(u32::try_from(i).expect("node space fits u32"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AliasTable, WeightFunction};
    use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empirical_distribution_matches_alias_table() {
        let weights = [0.5, 0.0, 3.0, 1.5, 5.0, 0.0, 2.0];
        let total: f64 = weights.iter().sum();
        let dynamic = DynamicWeightedSampler::new(&weights);
        let _alias = AliasTable::new(&weights).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 200_000;
        let mut counts = [0usize; 7];
        for _ in 0..n {
            counts[dynamic.sample(&mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / total;
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "slot {i}: observed {observed}, expected {expected}"
            );
        }
        assert_eq!(counts[1], 0);
        assert_eq!(counts[5], 0);
    }

    #[test]
    fn set_and_push_track_exact_weights() {
        let mut s = DynamicWeightedSampler::new(&[1.0, 2.0]);
        s.push(4.0);
        s.set(0, 0.0);
        s.set(1, 5.0);
        assert_eq!(s.weights(), &[0.0, 5.0, 4.0]);
        assert!((s.total() - 9.0).abs() < 1e-12);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5_000 {
            assert_ne!(s.sample(&mut rng), Some(0));
        }
    }

    #[test]
    fn degenerate_inputs_are_clamped_not_fatal() {
        let mut s = DynamicWeightedSampler::new(&[f64::NAN, -3.0, f64::INFINITY]);
        assert_eq!(s.weights(), &[0.0, 0.0, 0.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), None);
        s.set(1, 2.0);
        assert_eq!(s.sample(&mut rng), Some(1));
        assert!(DynamicWeightedSampler::new(&[]).sample(&mut rng).is_none());
    }

    #[test]
    fn incremental_equals_from_scratch() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut incremental = DynamicWeightedSampler::new(&[]);
        let mut reference: Vec<f64> = Vec::new();
        for step in 0..500 {
            if step % 3 == 0 || reference.is_empty() {
                let w = rng.gen_range(0.0..10.0);
                incremental.push(w);
                reference.push(w);
            } else {
                let i = rng.gen_range(0..reference.len());
                let w = rng.gen_range(0.0..10.0);
                incremental.set(i, w);
                reference[i] = w;
            }
        }
        let scratch = DynamicWeightedSampler::new(&reference);
        assert_eq!(incremental.weights(), scratch.weights());
        assert!((incremental.total() - scratch.total()).abs() <= 1e-9 * scratch.total());
        // Same draw given the same uniform, across the whole unit range.
        for k in 0..1_000 {
            let u = k as f64 / 1_000.0;
            assert_eq!(incremental.sample_with(u), scratch.sample_with(u));
        }
    }

    fn rec(macs: &[(u64, f64)]) -> SignalRecord {
        SignalRecord::new(
            macs.iter()
                .map(|&(m, r)| Reading::new(MacAddr::from_u64(m), Rssi::new(r).unwrap()))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn negative_sampler_tracks_graph_mutations() {
        let mut g = BipartiteGraph::new(WeightFunction::default());
        g.add_record(&rec(&[(1, -66.0), (2, -60.0)]));
        g.add_record(&rec(&[(2, -70.0), (3, -70.0)]));
        let mut neg = NegativeSampler::from_graph(&g, 0.75);

        // Insert: cover the appended nodes, resync the touched MACs.
        let rid = g.add_record(&rec(&[(2, -50.0), (9, -55.0)]));
        let node = g.record_node(rid).unwrap();
        neg.sync_inserted(&g, node);
        assert_eq!(neg.weights(), &g.negative_sampling_weights(0.75)[..]);

        // Remove an AP: resync the tombstone and its former neighbors.
        let mac2 = g.mac_node(MacAddr::from_u64(2)).unwrap();
        let former: Vec<NodeIdx> = g.neighbors(mac2).iter().map(|&(n, _)| n).collect();
        g.remove_mac(MacAddr::from_u64(2)).unwrap();
        neg.sync_removed(&g, mac2, &former);
        assert_eq!(neg.weights(), &g.negative_sampling_weights(0.75)[..]);
        assert!(!neg.is_exhausted());
    }

    #[test]
    fn serde_roundtrip_preserves_draws() {
        let s = DynamicWeightedSampler::new(&[1.0, 2.5, 0.0, 4.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: DynamicWeightedSampler = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        for k in 0..100 {
            let u = k as f64 / 100.0;
            assert_eq!(s.sample_with(u), back.sample_with(u));
        }
    }
}
