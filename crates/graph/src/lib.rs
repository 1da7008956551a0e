//! The weighted bipartite graph at the heart of GRAFICS (§IV-A of the
//! paper), plus the alias-method samplers used by its embedding stage.
//!
//! RF signal records sit on one side of the graph and access-point MAC
//! addresses on the other. An edge `(m, v)` exists iff MAC `m` was observed
//! in record `v`, weighted by `c_mv = f(RSS_mv)` where `f` is a
//! [`WeightFunction`]. This representation:
//!
//! - has **no missing-value problem** — absent MACs are simply absent edges,
//!   never sentinel values (§II);
//! - is **dynamic** — new records and new MACs append nodes, removed APs
//!   delete nodes, both in O(degree) (§III-A);
//! - preserves RSS information in the edge weights.
//!
//! # Examples
//!
//! ```
//! use grafics_graph::{BipartiteGraph, WeightFunction};
//! use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
//!
//! let mut g = BipartiteGraph::new(WeightFunction::default());
//! let rec = SignalRecord::new(vec![
//!     Reading::new(MacAddr::from_u64(1), Rssi::new(-66.0).unwrap()),
//!     Reading::new(MacAddr::from_u64(2), Rssi::new(-60.0).unwrap()),
//! ]).unwrap();
//! let v = g.add_record(&rec);
//! assert_eq!(g.record_count(), 1);
//! assert_eq!(g.mac_count(), 2);
//! assert_eq!(g.degree(g.record_node(v).unwrap()), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod bipartite;
mod dynamic;
mod weight;

pub use alias::AliasTable;
pub use bipartite::{BipartiteGraph, EdgeRef, GraphError, GraphStats, NodeIdx, NodeKind};
pub use dynamic::{NegativeSampler, SamplerState};
pub use weight::WeightFunction;
