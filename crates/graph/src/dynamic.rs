//! Incrementally maintained negative sampling for the online serving path.
//!
//! The offline trainer draws negatives from a static [`crate::AliasTable`]
//! built once per training run — O(n) preprocessing amortised over millions
//! of draws. The *online* path is the opposite regime: one query touches a
//! handful of nodes but historically rebuilt the whole `d_z^{3/4}` table
//! (an O(n) `powf` sweep plus an O(n) alias construction) per inference.
//!
//! [`NegativeSampler`] keeps the Eq. (10) weights `d_z^e` of a
//! [`crate::BipartiteGraph`]'s node space exact under O(deg) resyncs
//! after each graph mutation, and serves draws in O(1) from an alias
//! snapshot that it rebuilds only at epoch boundaries.

use crate::{AliasTable, BipartiteGraph, GraphError, NodeIdx};
use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// The negative-sampling distribution `Pr(z) ∝ d_z^e` (Eq. (10)) over a
/// bipartite graph's node-index space, maintained incrementally.
///
/// Build once from the trained graph with
/// [`NegativeSampler::from_graph`]; after a graph mutation, resync only
/// the touched slots with [`NegativeSampler::sync_node`] /
/// [`NegativeSampler::sync_appended`] — O(deg) per record insertion or
/// removal instead of the O(n) per-query rebuild of
/// [`BipartiteGraph::negative_sampling_weights`] + alias construction.
///
/// Two layers cooperate:
///
/// - the **exact weights** track every mutation immediately, so the
///   represented distribution never drifts — a property test pins it
///   bit-for-bit against the from-scratch sweep under random add/remove
///   sequences;
/// - an **alias-table snapshot** serves every draw in O(1). It is rebuilt
///   from the exact weights at *epoch boundaries* — after
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
///
/// # Persisted form
///
/// Serialization keeps the exponent, the staleness counter and — only
/// while it is stale — the snapshot ([`SamplerState`]). The exact
/// weights equal [`BipartiteGraph::negative_sampling_weights`] bit for
/// bit, and a fresh snapshot (staleness 0) equals the alias table of
/// those weights, so [`NegativeSampler::restore`] derives both from the
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NegativeSampler {
    exponent: f64,
    /// Exact unnormalised weight per node slot.
    weights: Vec<f64>,
    /// Number of slots with positive weight, counted exactly.
    positive: usize,
    /// O(1)-draw snapshot of the exact weights as of the last epoch;
    /// `None` only while no slot carries mass.
    snapshot: Option<AliasTable>,
    /// Slot changes since the snapshot was built.
    stale: usize,
}

/// The part of a [`NegativeSampler`] that cannot be derived from its
/// graph, as read from a model file: the exponent, the staleness counter
/// and, while stale, the snapshot. Turn it back into a sampler with
/// [`NegativeSampler::restore`].
#[derive(Debug, Clone, Deserialize)]
pub struct SamplerState {
    exponent: f64,
    stale: usize,
    snapshot: Option<AliasTable>,
}

/// A weight as the sampler stores it: negative or non-finite is zero.
fn clamp(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

impl NegativeSampler {
    /// The exact weights of every node slot of `graph`, with no snapshot.
    fn weights_of(graph: &BipartiteGraph, exponent: f64) -> Self {
        let weights: Vec<f64> = graph
            .negative_sampling_weights(exponent)
            .into_iter()
            .map(clamp)
            .collect();
        NegativeSampler {
            exponent,
            positive: weights.iter().filter(|&&w| w > 0.0).count(),
            weights,
            snapshot: None,
            stale: 0,
        }
    }

    /// Builds the sampler from every node slot of `graph` (O(n)), with a
    /// fresh snapshot.
    #[must_use]
    pub fn from_graph(graph: &BipartiteGraph, exponent: f64) -> Self {
        let mut sampler = Self::weights_of(graph, exponent);
        sampler.rebuild_snapshot();
        sampler
    }

    /// Rebuilds a persisted sampler over the graph it was saved with:
    /// the weights from `graph`, the snapshot from them unless `state`
    /// is stale.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidFile`] if `state` cannot belong to `graph`:
    /// a staleness at or past the rebuild threshold, a stale snapshot
    /// missing while slots carry mass, or a snapshot that is empty,
    /// longer than the node space, or aliases past its own length.
    pub fn restore(graph: &BipartiteGraph, state: SamplerState) -> Result<Self, GraphError> {
        if state.stale == 0 {
            return Ok(Self::from_graph(graph, state.exponent));
        }
        let mut sampler = Self::weights_of(graph, state.exponent);
        let invalid = |msg: String| Err(GraphError::InvalidFile(msg));
        if state.stale >= sampler.epoch_threshold() {
            return invalid(format!(
                "sampler staleness {} reaches its rebuild threshold",
                state.stale
            ));
        }
        match &state.snapshot {
            Some(table) if !table.fits(sampler.len()) => {
                return invalid(format!(
                    "sampler snapshot of {} slots does not fit {} nodes",
                    table.len(),
                    sampler.len()
                ));
            }
            None if !sampler.is_exhausted() => {
                return invalid("stale sampler carries mass but no snapshot".to_owned());
            }
            _ => {}
        }
        sampler.snapshot = state.snapshot;
        sampler.stale = state.stale;
        Ok(sampler)
    }

    /// The distribution exponent `e`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Number of node slots covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if no node slots are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// `true` if no node currently carries sampling mass.
    #[must_use]
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.positive == 0
    }

    /// The exact unnormalised weight of `node`'s slot.
    #[must_use]
    pub fn weight(&self, node: NodeIdx) -> f64 {
        self.weights[node.index()]
    }

    /// The exact unnormalised weights, slot per node index.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Recomputes the slot of one existing node from the graph's current
    /// degree (O(1), amortised snapshot upkeep included). Call for every
    /// pre-existing node whose degree a mutation changed (the neighbors
    /// of an inserted/removed node, and the removed node itself).
    pub fn sync_node(&mut self, graph: &BipartiteGraph, node: NodeIdx) {
        let w = clamp(graph.negative_sampling_weight(node, self.exponent));
        let slot = &mut self.weights[node.index()];
        self.positive = self.positive - usize::from(*slot > 0.0) + usize::from(w > 0.0);
        *slot = w;
        self.note_changed(1);
    }

    /// Appends slots for nodes created since the sampler last covered the
    /// graph (O(new), amortised snapshot upkeep included). Call after
    /// `add_record` to cover the new record node and any new MAC nodes.
    pub fn sync_appended(&mut self, graph: &BipartiteGraph) {
        let from = self.weights.len();
        for i in from..graph.node_capacity() {
            let w = clamp(graph.negative_sampling_weight(NodeIdx(i as u32), self.exponent));
            self.positive += usize::from(w > 0.0);
            self.weights.push(w);
        }
        self.note_changed(self.weights.len() - from);
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
        self.snapshot = AliasTable::new(&self.weights);
        self.stale = 0;
    }

    /// Slot changes since the snapshot epoch (diagnostics).
    #[must_use]
    pub fn staleness(&self) -> usize {
        self.stale
    }

    /// Slot changes that end an epoch.
    fn epoch_threshold(&self) -> usize {
        64.max(self.weights.len() / 16)
    }

    fn note_changed(&mut self, slots: usize) {
        self.stale += slots;
        if self.stale >= self.epoch_threshold() || (self.snapshot.is_none() && !self.is_exhausted())
        {
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
        // Positive mass always has a snapshot (the epoch invariant, which
        // `restore` checks).
        let i = self.snapshot.as_ref()?.sample_with(rng.next_u64());
        Some(NodeIdx(u32::try_from(i).expect("node space fits u32")))
    }
}

impl Serialize for NegativeSampler {
    /// The [`SamplerState`] fields; the snapshot only while stale.
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("exponent".to_owned(), self.exponent.to_value()),
            ("stale".to_owned(), self.stale.to_value()),
        ];
        if let Some(table) = self.snapshot.as_ref().filter(|_| self.stale > 0) {
            entries.push(("snapshot".to_owned(), table.to_value()));
        }
        Value::Map(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightFunction;
    use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    /// A graph of `n` two-reading records plus a sampler built over the
    /// first `fresh` of them and synced through the rest, so it is stale
    /// (with a snapshot shorter than the node space) when `fresh < n`.
    fn synced(n: u64, fresh: u64) -> (BipartiteGraph, NegativeSampler) {
        let mut g = BipartiteGraph::new(WeightFunction::default());
        for k in 0..fresh {
            g.add_record(&rec(&[(k, -60.0), (k + 1, -70.0)]));
        }
        let mut neg = NegativeSampler::from_graph(&g, 0.75);
        for k in fresh..n {
            let rid = g.add_record(&rec(&[(k, -60.0), (k + 1, -70.0)]));
            neg.sync_inserted(&g, g.record_node(rid).unwrap());
        }
        (g, neg)
    }

    fn reload(g: &BipartiteGraph, json: &str) -> Result<NegativeSampler, GraphError> {
        NegativeSampler::restore(g, serde_json::from_str(json).unwrap())
    }

    #[test]
    fn restore_reproduces_the_sampler_and_its_draws() {
        for (n, fresh) in [(12, 12), (12, 9)] {
            let (g, neg) = synced(n, fresh);
            let json = serde_json::to_string(&neg).unwrap();
            assert_eq!(json.contains("snapshot"), neg.staleness() > 0, "{json}");
            let back = reload(&g, &json).unwrap();
            assert_eq!(back, neg);
            let (mut a, mut b) = (ChaCha8Rng::seed_from_u64(5), ChaCha8Rng::seed_from_u64(5));
            for _ in 0..200 {
                assert_eq!(neg.sample(&mut a), back.sample(&mut b));
            }
        }
    }

    #[test]
    fn restore_rejects_state_that_cannot_belong_to_the_graph() {
        let (g, neg) = synced(12, 9);
        let json = serde_json::to_string(&neg).unwrap();
        let stale = neg.staleness();
        assert!(stale > 0 && reload(&g, &json).is_ok());
        let bad = [
            json.replace(&format!("\"stale\":{stale}"), "\"stale\":64"),
            json.replace(&format!("\"stale\":{stale}"), "\"stale\":18446744073709551615"),
            format!("{{\"exponent\":0.75,\"stale\":{stale}}}"),
            format!("{{\"exponent\":0.75,\"stale\":{stale},\"snapshot\":{{\"prob\":[],\"alias\":[]}}}}"),
            format!(
                "{{\"exponent\":0.75,\"stale\":{stale},\"snapshot\":{{\"prob\":[1,1],\"alias\":[0,2]}}}}"
            ),
            format!(
                "{{\"exponent\":0.75,\"stale\":{stale},\"snapshot\":{{\"prob\":{:?},\"alias\":{:?}}}}}",
                vec![1.0; g.node_capacity() + 1],
                vec![0; g.node_capacity() + 1]
            ),
        ];
        for text in &bad {
            assert!(
                matches!(reload(&g, text), Err(GraphError::InvalidFile(_))),
                "{text}"
            );
        }
    }
}
