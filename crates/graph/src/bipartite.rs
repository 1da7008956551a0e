//! The dynamic weighted bipartite graph `G = (M, V, E)` of §IV-A.

use crate::WeightFunction;
use grafics_types::{Dataset, MacAddr, RecordId, SignalRecord};
use serde::{DeError, Deserialize, Reader, Serialize, Value};
use std::collections::HashMap;
use std::fmt;

/// Unified index of a node in `M ∪ V`.
///
/// MAC nodes and record nodes share one dense index space, which is what
/// the embedding layer wants: one embedding row per node. Indices are
/// assigned on insertion and never reused; removed nodes become tombstones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// Returns the index as a `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An access-point MAC address (the `M` side).
    Mac(MacAddr),
    /// An RF signal record (the `V` side).
    Record(RecordId),
}

/// One undirected edge `(mac, record)` with its weight `c_mv`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The MAC-side endpoint.
    pub mac: NodeIdx,
    /// The record-side endpoint.
    pub record: NodeIdx,
    /// Edge weight `c_mv = f(RSS_mv) > 0`.
    pub weight: f64,
}

/// Errors from graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The referenced record does not exist or was removed.
    UnknownRecord(RecordId),
    /// The referenced MAC does not exist or was removed.
    UnknownMac(MacAddr),
    /// A persisted graph or sampler whose parts disagree (a corrupt or
    /// hand-edited file); the message names the first disagreement.
    InvalidFile(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownRecord(r) => write!(f, "unknown or removed record {r}"),
            GraphError::UnknownMac(m) => write!(f, "unknown or removed MAC {m}"),
            GraphError::InvalidFile(msg) => write!(f, "inconsistent graph file: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The dynamic weighted bipartite graph of records and MACs.
///
/// See the [crate docs](crate) for the model. All mutation operations are
/// O(degree) of the touched nodes. Node indices are stable for the lifetime
/// of the graph (tombstoned on removal, never reused), so embedding
/// matrices indexed by [`NodeIdx`] stay valid as the graph grows.
///
/// # Persisted form
///
/// Serialization keeps only what cannot be derived: the weight function,
/// `kinds`, `removed`, `weighted_degree` (after removals its float
/// accumulation order cannot be replayed from a fresh sum) and, under
/// `links`, each node's neighbor list in its current order — `[id,
/// weight]` pairs on the record side, bare ids on the MAC side. The order
/// of a MAC's list is the `swap_remove` order removals left behind, which
/// [`BipartiteGraph::neighbors`] exposes, so it is kept as is. Loading
/// rebuilds the MAC lookup, the record-id table, the edge count and each
/// MAC-side weight (from the matching record-side entry), and rejects a
/// file whose parts disagree with [`GraphError::InvalidFile`]. Files
/// written before `links` (every list weighted, under `adj`) load through
/// the same path; their extra fields are skipped and re-derived.
#[derive(Debug, Clone, Deserialize)]
#[serde(try_from = "GraphFile")]
pub struct BipartiteGraph {
    weight_fn: WeightFunction,
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<(NodeIdx, f64)>>,
    weighted_degree: Vec<f64>,
    removed: Vec<bool>,
    mac_lookup: HashMap<MacAddr, NodeIdx>,
    record_nodes: Vec<Option<NodeIdx>>,
    edge_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty graph using `weight_fn` for edge weights.
    #[must_use]
    pub fn new(weight_fn: WeightFunction) -> Self {
        BipartiteGraph {
            weight_fn,
            kinds: Vec::new(),
            adj: Vec::new(),
            weighted_degree: Vec::new(),
            removed: Vec::new(),
            mac_lookup: HashMap::new(),
            record_nodes: Vec::new(),
            edge_count: 0,
        }
    }

    /// Builds a graph from every sample in `dataset`, in order. The `i`-th
    /// sample becomes record id `i`.
    #[must_use]
    pub fn from_dataset(dataset: &Dataset, weight_fn: WeightFunction) -> Self {
        let mut g = BipartiteGraph::new(weight_fn);
        for sample in dataset.samples() {
            g.add_record(&sample.record);
        }
        g
    }

    /// The weight function in force.
    #[must_use]
    pub fn weight_function(&self) -> WeightFunction {
        self.weight_fn
    }

    fn alloc_node(&mut self, kind: NodeKind) -> NodeIdx {
        let idx = NodeIdx(u32::try_from(self.kinds.len()).expect("node count exceeds u32"));
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        self.weighted_degree.push(0.0);
        self.removed.push(false);
        idx
    }

    /// Inserts a record as a new `V`-side node, creating `M`-side nodes for
    /// any MACs not seen before (§V-A: the graph is extended online).
    /// Returns the new record's id.
    pub fn add_record(&mut self, record: &SignalRecord) -> RecordId {
        let rid =
            RecordId(u32::try_from(self.record_nodes.len()).expect("record count exceeds u32"));
        let v = self.alloc_node(NodeKind::Record(rid));
        self.record_nodes.push(Some(v));
        for reading in record.readings() {
            let m = match self.mac_lookup.get(&reading.mac) {
                Some(&m) if !self.removed[m.index()] => m,
                _ => {
                    let m = self.alloc_node(NodeKind::Mac(reading.mac));
                    self.mac_lookup.insert(reading.mac, m);
                    m
                }
            };
            let w = self.weight_fn.weight(reading.rssi);
            self.adj[v.index()].push((m, w));
            self.adj[m.index()].push((v, w));
            self.weighted_degree[v.index()] += w;
            self.weighted_degree[m.index()] += w;
            self.edge_count += 1;
        }
        rid
    }

    /// Removes a record node and all its edges (e.g. expiring stale
    /// crowdsourced data). The node index is tombstoned, never reused.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownRecord`] if the record does not exist or was
    /// already removed.
    pub fn remove_record(&mut self, rid: RecordId) -> Result<(), GraphError> {
        let v = self
            .record_nodes
            .get(rid.index())
            .copied()
            .flatten()
            .ok_or(GraphError::UnknownRecord(rid))?;
        self.record_nodes[rid.index()] = None;
        self.tombstone(v);
        Ok(())
    }

    /// Removes a MAC node and all its edges (AP decommissioned, §III-A).
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownMac`] if the MAC is not in the graph.
    pub fn remove_mac(&mut self, mac: MacAddr) -> Result<(), GraphError> {
        let m = self
            .mac_lookup
            .remove(&mac)
            .ok_or(GraphError::UnknownMac(mac))?;
        self.tombstone(m);
        Ok(())
    }

    fn tombstone(&mut self, node: NodeIdx) {
        let neighbors = std::mem::take(&mut self.adj[node.index()]);
        self.edge_count -= neighbors.len();
        self.weighted_degree[node.index()] = 0.0;
        for (nbr, w) in neighbors {
            let list = &mut self.adj[nbr.index()];
            if let Some(pos) = list.iter().position(|&(n, _)| n == node) {
                list.swap_remove(pos);
                self.weighted_degree[nbr.index()] -= w;
            }
        }
        self.removed[node.index()] = true;
    }

    /// Total number of node slots, including tombstones. Embedding matrices
    /// should have this many rows.
    #[must_use]
    pub fn node_capacity(&self) -> usize {
        self.kinds.len()
    }

    /// Number of live (non-removed) nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.removed.iter().filter(|&&r| !r).count()
    }

    /// Number of live record nodes.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.record_nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of live MAC nodes.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.mac_lookup.len()
    }

    /// Number of live edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// What node `idx` represents. Tombstoned nodes still report their
    /// original kind.
    #[must_use]
    pub fn kind(&self, idx: NodeIdx) -> NodeKind {
        self.kinds[idx.index()]
    }

    /// `true` if `idx` has been removed.
    #[must_use]
    pub fn is_removed(&self, idx: NodeIdx) -> bool {
        self.removed[idx.index()]
    }

    /// The node for a MAC, if present.
    #[must_use]
    pub fn mac_node(&self, mac: MacAddr) -> Option<NodeIdx> {
        self.mac_lookup.get(&mac).copied()
    }

    /// Iterates over the MAC inventory: exactly the MACs
    /// [`BipartiteGraph::mac_node`] resolves (what the fleet routers
    /// consult), in unspecified order. Lets a router tier mirror a
    /// building's AP inventory without holding the model.
    pub fn macs(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.mac_lookup.keys().copied()
    }

    /// The node for a record, if present.
    #[must_use]
    pub fn record_node(&self, rid: RecordId) -> Option<NodeIdx> {
        self.record_nodes.get(rid.index()).copied().flatten()
    }

    /// Neighbors of `idx` with edge weights. Empty for tombstones.
    #[must_use]
    pub fn neighbors(&self, idx: NodeIdx) -> &[(NodeIdx, f64)] {
        &self.adj[idx.index()]
    }

    /// Unweighted degree of `idx`.
    #[must_use]
    pub fn degree(&self, idx: NodeIdx) -> usize {
        self.adj[idx.index()].len()
    }

    /// Weighted degree `λ_i = Σ_l c_il` of `idx` (Eq. (5)).
    #[must_use]
    pub fn weighted_degree(&self, idx: NodeIdx) -> f64 {
        self.weighted_degree[idx.index()]
    }

    /// Iterates over the live records in id order, with their nodes.
    pub fn record_ids(&self) -> impl Iterator<Item = (RecordId, NodeIdx)> + '_ {
        self.record_nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|node| (RecordId(i as u32), node)))
    }

    /// Iterates over every live undirected edge exactly once
    /// (record side → MAC side).
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.record_nodes.iter().flatten().flat_map(move |&v| {
            self.adj[v.index()].iter().map(move |&(m, weight)| EdgeRef {
                mac: m,
                record: v,
                weight,
            })
        })
    }

    /// `true` if at least one MAC of `record` is already in the graph.
    /// Per §V (footnote 1), a new sample containing only never-seen MACs
    /// was likely collected outside the building and should be discarded.
    #[must_use]
    pub fn overlaps(&self, record: &SignalRecord) -> bool {
        record.macs().any(|m| self.mac_node(m).is_some())
    }

    /// Unnormalised negative-sampling weights `d_z^{exponent}` over the full
    /// node index space (Eq. (10); the paper uses `exponent = 3/4`).
    /// Tombstones and isolated nodes get zero mass.
    #[must_use]
    pub fn negative_sampling_weights(&self, exponent: f64) -> Vec<f64> {
        self.adj
            .iter()
            .enumerate()
            .map(|(i, nbrs)| {
                if self.removed[i] || nbrs.is_empty() {
                    0.0
                } else {
                    (nbrs.len() as f64).powf(exponent)
                }
            })
            .collect()
    }

    /// The single-node negative-sampling weight `d_z^{exponent}` — the
    /// per-slot quantity of
    /// [`BipartiteGraph::negative_sampling_weights`], used by the
    /// incremental [`crate::NegativeSampler`] to resync only the nodes a
    /// mutation touched.
    #[must_use]
    pub fn negative_sampling_weight(&self, idx: NodeIdx, exponent: f64) -> f64 {
        let nbrs = &self.adj[idx.index()];
        if self.removed[idx.index()] || nbrs.is_empty() {
            0.0
        } else {
            (nbrs.len() as f64).powf(exponent)
        }
    }

    /// Collects live edges and their weights, for building an edge-sampling
    /// alias table. Each undirected edge appears once.
    #[must_use]
    pub fn edge_list(&self) -> (Vec<EdgeRef>, Vec<f64>) {
        let edges: Vec<EdgeRef> = self.edges().collect();
        let weights = edges.iter().map(|e| e.weight).collect();
        (edges, weights)
    }

    /// Structural statistics, for diagnostics and capacity planning.
    #[must_use]
    pub fn stats(&self) -> GraphStats {
        let mut mac_degrees: Vec<usize> = Vec::new();
        let mut record_degrees: Vec<usize> = Vec::new();
        for (i, kind) in self.kinds.iter().enumerate() {
            if self.removed[i] {
                continue;
            }
            match kind {
                NodeKind::Mac(_) => mac_degrees.push(self.adj[i].len()),
                NodeKind::Record(_) => record_degrees.push(self.adj[i].len()),
            }
        }
        let mean = |v: &[usize]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<usize>() as f64 / v.len() as f64
            }
        };
        let max = |v: &[usize]| v.iter().copied().max().unwrap_or(0);
        GraphStats {
            records: record_degrees.len(),
            macs: mac_degrees.len(),
            edges: self.edge_count,
            tombstones: self.removed.iter().filter(|&&r| r).count(),
            mean_record_degree: mean(&record_degrees),
            mean_mac_degree: mean(&mac_degrees),
            max_record_degree: max(&record_degrees),
            max_mac_degree: max(&mac_degrees),
            singleton_macs: mac_degrees.iter().filter(|&&d| d <= 1).count(),
        }
    }
}

impl Serialize for BipartiteGraph {
    fn to_value(&self) -> Value {
        let links = self
            .adj
            .iter()
            .zip(&self.kinds)
            .map(|(list, kind)| match kind {
                NodeKind::Record(_) => list.to_value(),
                NodeKind::Mac(_) => Value::Seq(list.iter().map(|(n, _)| n.to_value()).collect()),
            })
            .collect();
        Value::Map(vec![
            ("weight_fn".to_owned(), self.weight_fn.to_value()),
            ("kinds".to_owned(), self.kinds.to_value()),
            ("links".to_owned(), Value::Seq(links)),
            (
                "weighted_degree".to_owned(),
                self.weighted_degree.to_value(),
            ),
            ("removed".to_owned(), self.removed.to_value()),
        ])
    }
}

/// The persisted form of a [`BipartiteGraph`] (see its docs), as read.
#[derive(Deserialize)]
struct GraphFile {
    weight_fn: WeightFunction,
    kinds: Vec<NodeKind>,
    links: Option<Vec<Links>>,
    /// The adjacency of files written before `links`: every list
    /// weighted, the MAC side's weights re-derived like `links`'.
    adj: Option<Vec<Links>>,
    weighted_degree: Vec<f64>,
    removed: Vec<bool>,
}

/// One persisted neighbor list. An element is `[id, weight]` or a bare
/// `id`; a bare id reads with a NaN weight, which the record side
/// rejects and the MAC side overwrites.
struct Links(Vec<(NodeIdx, f64)>);

impl Deserialize for Links {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = value
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "links"))?;
        items
            .iter()
            .map(|item| match item {
                Value::Seq(_) => Deserialize::from_value(item),
                _ => Ok((NodeIdx::from_value(item)?, f64::NAN)),
            })
            .collect::<Result<_, _>>()
            .map(Links)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut out = Vec::new();
        let mut more = r.begin_seq("links")?;
        while more {
            out.push(if r.peek() == Some(b'[') {
                Deserialize::read(r)?
            } else {
                (NodeIdx::read(r)?, f64::NAN)
            });
            more = r.next_element()?;
        }
        Ok(Links(out))
    }
}

impl TryFrom<GraphFile> for BipartiteGraph {
    type Error = GraphError;

    /// Checks the persisted parts against each other and rebuilds the
    /// derived ones; see the [`BipartiteGraph`] docs.
    fn try_from(file: GraphFile) -> Result<Self, GraphError> {
        let invalid = |msg: String| Err(GraphError::InvalidFile(msg));
        let GraphFile {
            weight_fn,
            kinds,
            links,
            adj,
            weighted_degree,
            removed,
        } = file;
        let Some(links) = links.or(adj) else {
            return invalid("no adjacency (`links`)".to_owned());
        };
        let n = kinds.len();
        if u32::try_from(n).is_err()
            || links.len() != n
            || weighted_degree.len() != n
            || removed.len() != n
        {
            return invalid(format!(
                "{n} kinds but {} adjacency lists, {} weighted degrees, {} removed flags",
                links.len(),
                weighted_degree.len(),
                removed.len()
            ));
        }
        let mut adj: Vec<Vec<(NodeIdx, f64)>> = links.into_iter().map(|l| l.0).collect();
        let is_live_mac = |m: NodeIdx| {
            m.index() < n && matches!(kinds[m.index()], NodeKind::Mac(_)) && !removed[m.index()]
        };

        // Record side: weighted lists, plus the lookups derived from kinds.
        // `gathered[m + 1]` counts the record-side edges of MAC node `m`.
        let mut mac_lookup = HashMap::new();
        let mut record_nodes = Vec::new();
        let mut gathered = vec![0usize; n + 1];
        for (i, kind) in kinds.iter().enumerate() {
            let node = NodeIdx(i as u32);
            if removed[i] && !adj[i].is_empty() {
                return invalid(format!("removed node {node} keeps neighbors"));
            }
            match *kind {
                NodeKind::Mac(mac) => {
                    if !removed[i] && mac_lookup.insert(mac, node).is_some() {
                        return invalid(format!("two live nodes hold MAC {mac}"));
                    }
                }
                NodeKind::Record(rid) => {
                    if rid.index() != record_nodes.len() {
                        return invalid(format!("node {node} holds {rid} out of sequence"));
                    }
                    record_nodes.push((!removed[i]).then_some(node));
                    for &(m, w) in &adj[i] {
                        if !is_live_mac(m) {
                            return invalid(format!("record node {node} links {m}, no live MAC"));
                        }
                        if !(w.is_finite() && w > 0.0) {
                            return invalid(format!("edge {node}-{m} has weight {w}"));
                        }
                        gathered[m.index() + 1] += 1;
                    }
                }
            }
        }

        // MAC side: ids in their persisted order, each weight taken from
        // the record side. The record-side edges are gathered per MAC
        // (ascending records, `by_mac[gathered[m]..gathered[m + 1]]`);
        // a MAC's list must name exactly its gathered records, each once,
        // matched through `weight_of`, a per-node slot that is NaN when
        // empty (no record-side weight is NaN).
        for i in 0..n {
            gathered[i + 1] += gathered[i];
        }
        let edge_count = gathered[n];
        let mut by_mac = vec![(NodeIdx(0), 0.0); edge_count];
        let mut next = gathered.clone();
        for (i, kind) in kinds.iter().enumerate() {
            if matches!(kind, NodeKind::Record(_)) {
                for &(m, w) in &adj[i] {
                    by_mac[next[m.index()]] = (NodeIdx(i as u32), w);
                    next[m.index()] += 1;
                }
            }
        }
        let mut weight_of = vec![f64::NAN; n];
        for (i, kind) in kinds.iter().enumerate() {
            if !matches!(kind, NodeKind::Mac(_)) {
                continue;
            }
            let edges = &by_mac[gathered[i]..gathered[i + 1]];
            if adj[i].len() != edges.len() {
                return invalid(format!(
                    "MAC node n{i} lists {} records, the record side {}",
                    adj[i].len(),
                    edges.len()
                ));
            }
            for &(v, w) in edges {
                weight_of[v.index()] = w;
            }
            for (v, w) in &mut adj[i] {
                match weight_of.get_mut(v.index()).filter(|slot| !slot.is_nan()) {
                    Some(slot) => *w = std::mem::replace(slot, f64::NAN),
                    None => {
                        return invalid(format!(
                            "MAC node n{i} links {v}, no matching record entry"
                        ))
                    }
                }
            }
        }
        Ok(BipartiteGraph {
            weight_fn,
            kinds,
            adj,
            weighted_degree,
            removed,
            mac_lookup,
            record_nodes,
            edge_count,
        })
    }
}

/// Structural statistics of a bipartite graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Live record nodes.
    pub records: usize,
    /// Live MAC nodes.
    pub macs: usize,
    /// Live edges.
    pub edges: usize,
    /// Tombstoned node slots (removed records/MACs).
    pub tombstones: usize,
    /// Mean record degree (MACs per record).
    pub mean_record_degree: f64,
    /// Mean MAC degree (records per MAC).
    pub mean_mac_degree: f64,
    /// Maximum record degree.
    pub max_record_degree: usize,
    /// Maximum MAC degree.
    pub max_mac_degree: usize,
    /// MACs connected to at most one record (ephemeral/hotspot suspects).
    pub singleton_macs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafics_types::{Reading, Rssi};

    fn rec(macs: &[(u64, f64)]) -> SignalRecord {
        SignalRecord::new(
            macs.iter()
                .map(|&(m, r)| Reading::new(MacAddr::from_u64(m), Rssi::new(r).unwrap()))
                .collect(),
        )
        .unwrap()
    }

    fn paper_example() -> BipartiteGraph {
        // Fig. 4 of the paper: v1 -> {MAC1:-66, MAC2:-60}, v2 -> {MAC2:-70, MAC3:-70}.
        let mut g = BipartiteGraph::new(WeightFunction::default());
        g.add_record(&rec(&[(1, -66.0), (2, -60.0)]));
        g.add_record(&rec(&[(2, -70.0), (3, -70.0)]));
        g
    }

    #[test]
    fn fig4_structure() {
        let g = paper_example();
        assert_eq!(g.record_count(), 2);
        assert_eq!(g.mac_count(), 3);
        assert_eq!(g.edge_count(), 4);
        let mac2 = g.mac_node(MacAddr::from_u64(2)).unwrap();
        assert_eq!(g.degree(mac2), 2);
        // weights: f(-60) = 60 from v1, f(-70) = 50 from v2
        assert!((g.weighted_degree(mac2) - 110.0).abs() < 1e-12);
    }

    #[test]
    fn shared_mac_not_duplicated() {
        let g = paper_example();
        assert_eq!(g.node_count(), 5); // 2 records + 3 macs
    }

    #[test]
    fn edges_iterate_once_each() {
        let g = paper_example();
        let edges: Vec<EdgeRef> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for e in &edges {
            assert!(matches!(g.kind(e.mac), NodeKind::Mac(_)));
            assert!(matches!(g.kind(e.record), NodeKind::Record(_)));
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    fn remove_mac_cleans_adjacency() {
        let mut g = paper_example();
        let mac2 = MacAddr::from_u64(2);
        g.remove_mac(mac2).unwrap();
        assert_eq!(g.mac_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.mac_node(mac2), None);
        let v0 = g.record_node(RecordId(0)).unwrap();
        assert_eq!(g.degree(v0), 1);
        // weighted degrees stay consistent
        assert!((g.weighted_degree(v0) - 54.0).abs() < 1e-12); // f(-66)=54
        assert!(g.remove_mac(mac2).is_err());
    }

    #[test]
    fn remove_record_cleans_adjacency() {
        let mut g = paper_example();
        g.remove_record(RecordId(0)).unwrap();
        assert_eq!(g.record_count(), 1);
        assert_eq!(g.edge_count(), 2);
        let mac1 = g.mac_node(MacAddr::from_u64(1)).unwrap();
        assert_eq!(g.degree(mac1), 0);
        assert!(g.remove_record(RecordId(0)).is_err());
        assert!(g.remove_record(RecordId(9)).is_err());
    }

    #[test]
    fn readding_removed_mac_creates_fresh_node() {
        let mut g = paper_example();
        let old = g.mac_node(MacAddr::from_u64(2)).unwrap();
        g.remove_mac(MacAddr::from_u64(2)).unwrap();
        g.add_record(&rec(&[(2, -50.0)]));
        let new = g.mac_node(MacAddr::from_u64(2)).unwrap();
        assert_ne!(old, new);
        assert!(g.is_removed(old));
        assert!(!g.is_removed(new));
    }

    #[test]
    fn overlaps_rule() {
        let g = paper_example();
        assert!(g.overlaps(&rec(&[(3, -80.0), (99, -50.0)])));
        assert!(!g.overlaps(&rec(&[(98, -80.0), (99, -50.0)])));
    }

    #[test]
    fn negative_sampling_weights_shape() {
        let mut g = paper_example();
        g.remove_mac(MacAddr::from_u64(1)).unwrap();
        let w = g.negative_sampling_weights(0.75);
        assert_eq!(w.len(), g.node_capacity());
        let mac1_idx = 1; // insertion order: v0, mac1, mac2, v1, mac3
        assert_eq!(w[mac1_idx], 0.0);
        let mac2 = g.mac_node(MacAddr::from_u64(2)).unwrap();
        assert!((w[mac2.index()] - 2f64.powf(0.75)).abs() < 1e-12);
    }

    #[test]
    fn from_dataset_ids_follow_sample_order() {
        use grafics_types::{Dataset, FloorId, Sample};
        let ds = Dataset::from_samples(vec![
            Sample::labeled(rec(&[(1, -60.0)]), FloorId(0)),
            Sample::labeled(rec(&[(2, -70.0)]), FloorId(1)),
        ]);
        let g = BipartiteGraph::from_dataset(&ds, WeightFunction::default());
        assert_eq!(g.record_count(), 2);
        assert!(g.record_node(RecordId(0)).is_some());
        assert!(g.record_node(RecordId(1)).is_some());
    }

    #[test]
    fn weighted_degree_is_sum_of_incident_weights() {
        let g = paper_example();
        for idx in 0..g.node_capacity() {
            let node = NodeIdx(idx as u32);
            let sum: f64 = g.neighbors(node).iter().map(|&(_, w)| w).sum();
            assert!((g.weighted_degree(node) - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let mut g = paper_example();
        let st = g.stats();
        assert_eq!(st.records, 2);
        assert_eq!(st.macs, 3);
        assert_eq!(st.edges, 4);
        assert_eq!(st.tombstones, 0);
        assert!((st.mean_record_degree - 2.0).abs() < 1e-12);
        assert_eq!(st.max_mac_degree, 2);
        assert_eq!(st.singleton_macs, 2); // MAC1 and MAC3 touch one record

        g.remove_record(RecordId(0)).unwrap();
        let st = g.stats();
        assert_eq!(st.records, 1);
        assert_eq!(st.tombstones, 1);
        assert_eq!(st.edges, 2);
    }

    /// The paper example after a removal history that leaves MAC lists
    /// out of insertion order, a tombstoned record and a tombstoned AP.
    fn churned() -> BipartiteGraph {
        let mut g = paper_example();
        g.add_record(&rec(&[(2, -50.0), (4, -64.0)]));
        g.add_record(&rec(&[(1, -75.0), (2, -58.0), (4, -80.0)]));
        g.remove_record(RecordId(0)).unwrap(); // swap_remove reorders MAC 2
        g.remove_mac(MacAddr::from_u64(3)).unwrap();
        g.add_record(&rec(&[(3, -61.0), (4, -66.0)])); // MAC 3 again, new node
        g
    }

    fn assert_same_graph(a: &BipartiteGraph, b: &BipartiteGraph) {
        assert_eq!(a.node_capacity(), b.node_capacity());
        for i in 0..a.node_capacity() {
            let node = NodeIdx(i as u32);
            assert_eq!(a.kind(node), b.kind(node));
            assert_eq!(a.is_removed(node), b.is_removed(node));
            assert_eq!(a.neighbors(node), b.neighbors(node), "{node}");
            assert_eq!(
                a.weighted_degree(node).to_bits(),
                b.weighted_degree(node).to_bits()
            );
            if let NodeKind::Mac(mac) = a.kind(node) {
                assert_eq!(a.mac_node(mac), b.mac_node(mac));
            }
        }
        assert_eq!(
            a.record_ids().collect::<Vec<_>>(),
            b.record_ids().collect::<Vec<_>>()
        );
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.mac_count(), b.mac_count());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn persisted_form_roundtrips_byte_identically() {
        for g in [paper_example(), churned()] {
            let json = serde_json::to_string(&g).unwrap();
            assert!(json.contains("\"links\":") && !json.contains("\"adj\":"));
            let back: BipartiteGraph = serde_json::from_str(&json).unwrap();
            assert_same_graph(&back, &g);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            // The value path reads the same graph as the one-pass reader.
            let value = serde_json::value_of(&g);
            assert_same_graph(&BipartiteGraph::from_value(&value).unwrap(), &g);
        }
    }

    /// `g` in the form written before `links`: every list weighted under
    /// `adj`, plus the fields that are derived now.
    fn old_form(g: &BipartiteGraph) -> Value {
        let Value::Map(mut entries) = serde_json::value_of(g) else {
            unreachable!()
        };
        entries.retain(|(k, _)| k != "links");
        entries.insert(2, ("adj".to_owned(), g.adj.to_value()));
        entries.push(("mac_lookup".to_owned(), g.mac_lookup.to_value()));
        entries.push(("record_nodes".to_owned(), g.record_nodes.to_value()));
        entries.push(("edge_count".to_owned(), g.edge_count.to_value()));
        Value::Map(entries)
    }

    #[test]
    fn old_weighted_form_loads_and_rederives_mac_weights() {
        let g = churned();
        let old = serde_json::to_string(&old_form(&g)).unwrap();
        let back: BipartiteGraph = serde_json::from_str(&old).unwrap();
        assert_same_graph(&back, &g);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&g).unwrap()
        );
    }

    /// `g`'s persisted form with `edit` applied to its entries.
    fn edited(g: &BipartiteGraph, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let Value::Map(mut entries) = serde_json::value_of(g) else {
            unreachable!()
        };
        edit(&mut entries);
        serde_json::to_string(&Value::Map(entries)).unwrap()
    }

    fn field<'a>(entries: &'a mut [(String, Value)], key: &str) -> &'a mut Vec<Value> {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, Value::Seq(items))) => items,
            _ => panic!("no array {key}"),
        }
    }

    fn list(entries: &mut [(String, Value)], node: NodeIdx) -> &mut Vec<Value> {
        match &mut field(entries, "links")[node.index()] {
            Value::Seq(items) => items,
            _ => panic!("links of {node} not an array"),
        }
    }

    #[test]
    fn inconsistent_files_are_typed_errors() {
        let g = churned();
        let mac2 = g.mac_node(MacAddr::from_u64(2)).unwrap();
        let mac4 = g.mac_node(MacAddr::from_u64(4)).unwrap();
        let v1 = g.record_node(RecordId(1)).unwrap();
        let old_mac3 = NodeIdx(4);
        assert!(g.is_removed(old_mac3));
        let cap = g.node_capacity() as u64;
        let cases: Vec<(&str, String)> = vec![
            (
                "out-of-range MAC-side id",
                edited(&g, |e| {
                    list(e, mac2)[0] = Value::U64(cap);
                }),
            ),
            (
                "out-of-range record-side id",
                edited(&g, |e| {
                    list(e, v1)[0] = Value::Seq(vec![Value::U64(cap + 7), Value::F64(50.0)]);
                }),
            ),
            (
                "MAC-side id with no record entry",
                edited(&g, |e| {
                    list(e, mac4).push(Value::U64(u64::from(v1.0)));
                }),
            ),
            (
                "record entry with no MAC-side id",
                edited(&g, |e| {
                    list(e, mac2).pop();
                }),
            ),
            (
                "MAC-side id listed twice",
                edited(&g, |e| {
                    let first = list(e, mac2)[0].clone();
                    list(e, mac2).pop();
                    list(e, mac2).push(first);
                }),
            ),
            (
                "MAC-side id naming a MAC",
                edited(&g, |e| {
                    list(e, mac2)[0] = Value::U64(u64::from(mac4.0));
                }),
            ),
            (
                "record side with a bare id",
                edited(&g, |e| {
                    list(e, v1)[0] = Value::U64(u64::from(mac2.0));
                }),
            ),
            (
                "two live nodes with one MAC",
                edited(&g, |e| {
                    field(e, "removed")[old_mac3.index()] = Value::Bool(false);
                }),
            ),
            (
                "kinds shorter than links",
                edited(&g, |e| {
                    field(e, "kinds").pop();
                }),
            ),
            (
                "removed shorter than links",
                edited(&g, |e| {
                    field(e, "removed").pop();
                }),
            ),
            (
                "weighted degrees longer than links",
                edited(&g, |e| {
                    field(e, "weighted_degree").push(Value::F64(1.0));
                }),
            ),
            (
                "removed node with neighbors",
                edited(&g, |e| {
                    field(e, "removed")[mac4.index()] = Value::Bool(true);
                }),
            ),
            (
                "no adjacency",
                edited(&g, |e| e.retain(|(k, _)| k != "links")),
            ),
        ];
        for (what, text) in cases {
            let err = serde_json::from_str::<BipartiteGraph>(&text).unwrap_err();
            assert!(
                err.to_string().contains("inconsistent graph file"),
                "{what}: {err}"
            );
        }
    }
}
