//! # GRAFICS — Graph Embedding-based Floor Identification
//!
//! A from-scratch Rust implementation of *GRAFICS: Graph Embedding-based
//! Floor Identification Using Crowdsourced RF Signals* (Zhuo et al.,
//! ICDCS 2022), including every substrate the paper depends on: the
//! bipartite signal graph, the LINE and E-LINE embedding algorithms, the
//! constrained proximity hierarchical clustering, an RF-propagation
//! dataset simulator, the paper's four comparison baselines, and the full
//! evaluation harness.
//!
//! This umbrella crate re-exports the public API of each workspace member.
//!
//! ## Quickstart
//!
//! ```
//! use grafics::prelude::*;
//! use rand::SeedableRng;
//!
//! // Simulate a small three-storey office and a crowdsourced corpus.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let building = BuildingModel::office("demo", 3).with_records_per_floor(60);
//! let dataset = building.simulate(&mut rng);
//!
//! // 70/30 split, 4 labels per floor (the paper's default protocol).
//! let split = dataset.split(0.7, &mut rng).unwrap();
//! let train = split.train.with_label_budget(4, &mut rng);
//!
//! // Offline training.
//! let config = GraficsConfig { epochs: 40, ..GraficsConfig::default() };
//! let model = Grafics::train(&train, &config, &mut rng).unwrap();
//!
//! // Online inference.
//! let mut correct = 0;
//! let mut model = model;
//! for sample in split.test.samples() {
//!     if let Ok(pred) = model.infer(&sample.record, &mut rng) {
//!         if pred.floor == sample.ground_truth {
//!             correct += 1;
//!         }
//!     }
//! }
//! assert!(correct * 10 >= split.test.len() * 8, "expect >=80% accuracy");
//! ```

#![forbid(unsafe_code)]

pub use grafics_baselines as baselines;
pub use grafics_cluster as cluster;
pub use grafics_core as core;
pub use grafics_data as data;
pub use grafics_embed as embed;
pub use grafics_graph as graph;
pub use grafics_metrics as metrics;
pub use grafics_scenario as scenario;
pub use grafics_serve as serve;
pub use grafics_types as types;
pub use grafics_viz as viz;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use grafics_cluster::{ClusterModel, ClusteringConfig};
    pub use grafics_core::{
        FleetManifest, FleetStats, Grafics, GraficsConfig, GraficsFleet, GraficsServer,
        MaintenancePolicy, Prediction, RetentionPolicy, RouterKind, Shard,
    };
    pub use grafics_data::{BuildingModel, FleetPreset};
    pub use grafics_embed::{ElineTrainer, EmbeddingConfig, EmbeddingModel, Objective};
    pub use grafics_graph::{BipartiteGraph, NegativeSampler, WeightFunction};
    pub use grafics_metrics::{ClassificationReport, ConfusionMatrix};
    pub use grafics_serve::{HttpClient, HttpServer, ServeConfig};
    pub use grafics_types::{
        BuildingId, Dataset, FloorId, MacAddr, Reading, RecordId, RowMatrix, Rssi, Sample,
        SignalRecord, Split,
    };
}
