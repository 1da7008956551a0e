//! The GRAFICS pipeline: offline training (§IV) and online inference (§V).
//!
//! [`Grafics::train`] wires the three stages together —
//!
//! 1. build the weighted bipartite record/MAC graph from the crowdsourced
//!    corpus ([`grafics_graph`]),
//! 2. learn E-LINE node embeddings ([`grafics_embed`]),
//! 3. fit the constrained proximity hierarchical clustering over the
//!    record ego-embeddings, seeded by the few labelled samples
//!    ([`grafics_cluster`]) —
//!
//! and [`Grafics::infer`] performs the online path: insert the new record
//! into the graph, embed it with all other embeddings frozen, and return
//! the floor of the nearest cluster centroid.
//!
//! # Examples
//!
//! ```
//! use grafics_core::{Grafics, GraficsConfig};
//! use grafics_data::BuildingModel;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let ds = BuildingModel::office("demo", 2).with_records_per_floor(40).simulate(&mut rng);
//! let split = ds.split(0.7, &mut rng).unwrap();
//! let train = split.train.with_label_budget(4, &mut rng);
//!
//! let mut model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
//! let mut hits = 0;
//! for s in split.test.samples() {
//!     if model.infer(&s.record, &mut rng).unwrap().floor == s.ground_truth {
//!         hits += 1;
//!     }
//! }
//! assert!(hits * 10 >= split.test.len() * 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use grafics_cluster::{ClusterModel, ClusteringConfig, Linkage};
use grafics_embed::{
    ElineTrainer, EmbedError, EmbeddingConfig, EmbeddingModel, Objective, OnlineScratch,
};
pub use grafics_graph::WeightFunction;
use grafics_graph::{BipartiteGraph, NegativeSampler, NodeIdx};
use grafics_types::{Dataset, FloorId, RecordId, SignalRecord};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

mod fleet;
mod route;
mod server;
pub mod wal;

pub use fleet::{
    read_manifest, read_router_manifest, write_router_manifest, BackendSpec, FleetError,
    FleetManifest, FleetPrediction, FleetStats, GraficsFleet, MaintenancePolicy, RecoveryReport,
    RetentionPolicy, RouterManifest, Shard, ShardRecovery, ShardStats, DEFAULT_MARGIN_WINDOW,
    FLEET_MANIFEST_VERSION, ROUTER_MANIFEST_VERSION,
};
pub use grafics_cluster::{ClusterError, Prediction};
pub use grafics_types::{DurabilityPolicy, RefreshTrigger};
pub use route::{RouteIndex, RouterKind};
pub use server::{record_rng, GraficsServer, ServeCounters};
// The serving knobs live with their stages; re-export so serving tiers
// need only this crate.
pub use grafics_cluster::MatchPrecision;
pub use grafics_embed::{OnlineBudget, RefineOutcome};
pub use wal::{CrashPoint, FailpointFs, StdWalFs, WalFs, WalStats};

/// Flat hyper-parameter set for the whole pipeline. Defaults follow §VI-A
/// of the paper: dimension 8, four labels per floor (a dataset-side
/// concern), dropout 0.1, offset weight function with α = 120.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraficsConfig {
    /// Embedding dimensionality (paper default 8; Fig. 15 shows
    /// insensitivity across 4–256).
    pub dim: usize,
    /// Embedding training passes over the edge set.
    pub epochs: usize,
    /// Negative samples per positive edge.
    pub negatives: usize,
    /// Initial SGD learning rate (decays linearly).
    pub initial_lr: f64,
    /// Gradient dropout rate.
    pub dropout: f64,
    /// Embedding objective; [`Objective::ELine`] is the paper's system,
    /// [`Objective::LineSecond`] reproduces the Fig. 13 ablation.
    pub objective: Objective,
    /// Edge-weight function (Fig. 16 ablation).
    pub weight_function: WeightFunction,
    /// Clustering linkage (the paper uses average linkage, Eq. (11)).
    pub linkage: Linkage,
    /// Enforce the one-labelled-sample-per-cluster merge constraint.
    pub constrained_clustering: bool,
    /// SGD samples per incident edge when embedding a new record online.
    pub online_samples_per_edge: usize,
    /// Optional adaptive override of the read-only serving refinement
    /// budget (see [`OnlineBudget`]). `None` — the default, and what
    /// every pre-existing saved config deserialises to — keeps the
    /// historical `Fixed(online_samples_per_edge)` behaviour. Honoured
    /// by [`GraficsServer`] sessions only; the mutable absorb path
    /// always runs the fixed budget so WAL replay streams never
    /// re-roll.
    pub online_budget: Option<OnlineBudget>,
    /// Optional precision of the serving centroid sweep (see
    /// [`MatchPrecision`]). `None` defaults to the historical `F64`.
    pub match_precision: Option<MatchPrecision>,
    /// Worker threads for the offline stages: `>= 2` enables the Hogwild
    /// embedding trainer and the parallel dissimilarity matrix. `1` (the
    /// default) keeps offline training fully deterministic. Online
    /// inference is unaffected — it is already microseconds per record.
    pub threads: usize,
}

impl Default for GraficsConfig {
    fn default() -> Self {
        GraficsConfig {
            dim: 8,
            epochs: 60,
            negatives: 5,
            initial_lr: 0.025,
            dropout: 0.1,
            objective: Objective::ELine,
            weight_function: WeightFunction::default(),
            linkage: Linkage::Average,
            constrained_clustering: true,
            online_samples_per_edge: 200,
            online_budget: None,
            match_precision: None,
            threads: 1,
        }
    }
}

impl GraficsConfig {
    /// A budget configuration for tests/examples: fewer epochs, smaller
    /// online refinement. Accuracy on small simulated buildings is within
    /// a point or two of the default.
    #[must_use]
    pub fn fast() -> Self {
        GraficsConfig {
            epochs: 30,
            online_samples_per_edge: 120,
            ..Default::default()
        }
    }

    /// A throughput-tuned configuration for online serving: full offline
    /// training, but a lighter per-query refinement budget. One new node's
    /// 2×dim coordinates converge long before the default budget is spent:
    /// sweeping `online_samples_per_edge` over {200, 120, 60, 40, 30, 20}
    /// (see `grafics-bench`'s `spe_sweep`) leaves floor accuracy flat down
    /// to 40 on both easy (office, 4 labels) and hard (5-floor mall,
    /// 2 labels) corpora, with degradation only below ~30. At 40 a served
    /// query costs roughly a third of [`GraficsConfig::fast`]'s.
    #[must_use]
    pub fn serving() -> Self {
        GraficsConfig {
            online_samples_per_edge: 40,
            ..Default::default()
        }
    }

    /// The embedding-stage view of this configuration.
    #[must_use]
    pub fn embedding(&self) -> EmbeddingConfig {
        EmbeddingConfig {
            dim: self.dim,
            objective: self.objective,
            epochs: self.epochs,
            negatives: self.negatives,
            initial_lr: self.initial_lr,
            lr_decay: true,
            dropout: self.dropout,
            negative_exponent: 0.75,
            online_samples_per_edge: self.online_samples_per_edge,
            online_budget: self.online_budget,
            threads: self.threads,
        }
    }

    /// The clustering-stage view of this configuration.
    #[must_use]
    pub fn clustering(&self) -> ClusteringConfig {
        ClusteringConfig {
            linkage: self.linkage,
            constrained: self.constrained_clustering,
            record_history: false,
            threads: self.threads,
        }
    }
}

/// Per-deployment overrides for the read-only serving path.
///
/// A serving tier (the fleet, the HTTP server) can carry one of these and
/// apply it to every session it opens, without mutating the model's own
/// [`GraficsConfig`] — the config stays exactly what training saved, so
/// model files round-trip bit-identically. `None` fields defer to the
/// model config's `online_budget` / `match_precision`, which in turn
/// default to the historical `Fixed(online_samples_per_edge)` + `F64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingPolicy {
    /// Refinement-budget override; `None` defers to the model config.
    pub budget: Option<OnlineBudget>,
    /// Matching-precision override; `None` defers to the model config.
    pub precision: Option<MatchPrecision>,
}

impl ServingPolicy {
    /// Resolve the effective serving knobs against a model's config.
    #[must_use]
    pub fn resolve(&self, config: &GraficsConfig) -> (OnlineBudget, MatchPrecision) {
        let budget = self
            .budget
            .or(config.online_budget)
            .unwrap_or(OnlineBudget::Fixed(config.online_samples_per_edge));
        let precision = self
            .precision
            .or(config.match_precision)
            .unwrap_or_default();
        (budget, precision)
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraficsError {
    /// The training dataset is empty.
    EmptyTrainingSet,
    /// Embedding-stage failure.
    Embed(EmbedError),
    /// Clustering-stage failure (e.g. no labelled samples in training).
    Cluster(ClusterError),
    /// The record to infer shares no MAC with the training graph; per §V
    /// footnote 1 it was likely collected outside the building.
    OutsideBuilding,
}

impl fmt::Display for GraficsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraficsError::EmptyTrainingSet => write!(f, "training dataset is empty"),
            GraficsError::Embed(e) => write!(f, "embedding stage: {e}"),
            GraficsError::Cluster(e) => write!(f, "clustering stage: {e}"),
            GraficsError::OutsideBuilding => {
                write!(f, "record shares no MAC with the building graph; discarded")
            }
        }
    }
}

impl std::error::Error for GraficsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraficsError::Embed(e) => Some(e),
            GraficsError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EmbedError> for GraficsError {
    fn from(e: EmbedError) -> Self {
        GraficsError::Embed(e)
    }
}

impl From<ClusterError> for GraficsError {
    fn from(e: ClusterError) -> Self {
        GraficsError::Cluster(e)
    }
}

/// A trained GRAFICS model: graph + embeddings + labelled clusters.
///
/// [`Grafics::infer`] is `&mut self` because the paper's online path
/// *extends the graph* with each new record (and any new MACs it carries)
/// before embedding it — the model keeps learning the building's signal
/// map. The two halves are also available separately:
/// [`Grafics::absorb_record`] mutates without predicting, and the
/// read-only [`GraficsServer`] view ([`Grafics::server`],
/// [`Grafics::serve_batch`]) predicts without mutating. A
/// [`GraficsFleet`] shard runs both concurrently: a frozen snapshot
/// serves while a write-side clone absorbs, swapped by
/// [`Shard::publish`].
///
/// The model is `serde`-serialisable; see [`Grafics::save_json`] /
/// [`Grafics::load_json`] for file persistence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grafics {
    config: GraficsConfig,
    trainer: ElineTrainer,
    graph: BipartiteGraph,
    embeddings: EmbeddingModel,
    clusters: ClusterModel,
    train_records: usize,
    /// The Eq. (10) negative distribution, maintained incrementally in
    /// O(deg · log n) per graph mutation so no query pays the O(n)
    /// rebuild. Serialised with the model: its exact floating-point state
    /// determines the online RNG stream, so a save/load roundtrip keeps
    /// predictions bit-identical.
    neg_sampler: NegativeSampler,
}

impl Grafics {
    /// Offline training over a crowdsourced corpus in which only a few
    /// samples carry floor labels (`sample.floor`).
    ///
    /// # Errors
    ///
    /// - [`GraficsError::EmptyTrainingSet`];
    /// - [`GraficsError::Embed`] on invalid embedding config or edgeless
    ///   graph;
    /// - [`GraficsError::Cluster`] when no sample carries a label.
    pub fn train<R: Rng + ?Sized>(
        train: &Dataset,
        config: &GraficsConfig,
        rng: &mut R,
    ) -> Result<Self, GraficsError> {
        if train.is_empty() {
            return Err(GraficsError::EmptyTrainingSet);
        }
        let graph = BipartiteGraph::from_dataset(train, config.weight_function);
        let trainer = ElineTrainer::new(config.embedding());
        let embeddings = trainer.train(&graph, rng)?;

        // Ego embeddings land directly in the flat point matrix the
        // clustering stage consumes — no per-record Vec<f64> detour.
        let mut points = grafics_types::RowMatrix::with_capacity(train.len(), config.dim);
        let mut labels = Vec::with_capacity(train.len());
        for (i, sample) in train.samples().iter().enumerate() {
            let node = graph
                .record_node(RecordId(i as u32))
                .expect("training records are live");
            points.push_row_widen(embeddings.ego(node));
            labels.push(sample.floor);
        }
        let clusters = ClusterModel::fit(&points, &labels, &config.clustering())?;
        let neg_sampler = NegativeSampler::from_graph(&graph, trainer.config().negative_exponent);
        Ok(Grafics {
            config: *config,
            trainer,
            graph,
            embeddings,
            clusters,
            train_records: train.len(),
            neg_sampler,
        })
    }

    /// Online inference for one new RF record (§V): extends the graph,
    /// embeds the new node with everything else frozen, and returns the
    /// floor of the nearest cluster centroid.
    ///
    /// # Errors
    ///
    /// - [`GraficsError::OutsideBuilding`] if the record shares no MAC with
    ///   the graph (the record is *not* added);
    /// - [`GraficsError::Embed`] on embedding failure.
    pub fn infer<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<Prediction, GraficsError> {
        let node = self.insert_record(record, rng)?;
        let query = self.embeddings.ego_vec(node);
        Ok(self.clusters.predict(&query)?)
    }

    /// Batch inference: predicts every record in order, mapping
    /// per-record failures (outside-building, isolated) to `None` rather
    /// than aborting the batch. One scratch is reused across the whole
    /// batch, so the per-record hot loop is allocation-free like the
    /// [`GraficsServer`] sessions.
    pub fn infer_batch<R: Rng + ?Sized>(
        &mut self,
        records: &[SignalRecord],
        rng: &mut R,
    ) -> Vec<Option<Prediction>> {
        let mut scratch = OnlineScratch::new();
        records
            .iter()
            .map(|r| {
                let node = self.insert_record_with(r, &mut scratch, rng).ok()?;
                let query = self.embeddings.ego_vec(node);
                self.clusters.predict(&query).ok()
            })
            .collect()
    }

    /// Like [`Grafics::infer`], but returns the `k` nearest clusters as
    /// `(floor, distance)` pairs (ascending by centroid distance). The gap
    /// between the best prediction and the nearest *different-floor*
    /// candidate is a natural confidence signal — small near stairwells,
    /// large mid-floor — and what fleet routing surfaces per query.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::infer`].
    pub fn infer_topk<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        k: usize,
        rng: &mut R,
    ) -> Result<Vec<(FloorId, f64)>, GraficsError> {
        let node = self.insert_record(record, rng)?;
        let query = self.embeddings.ego_vec(node);
        Ok(self.clusters.predict_topk(&query, k)?)
    }

    /// The absorb half of the online path (§V-A), split out of
    /// [`Grafics::infer`]: extends the graph with `record` (and any new
    /// MACs), embeds the new node against the frozen background, and syncs
    /// the negative sampler — but computes **no floor prediction**. This is
    /// what a fleet shard's write side runs while a frozen snapshot serves
    /// reads; the returned id feeds [`Grafics::forget_record`]-based
    /// retention.
    ///
    /// At equal seeds, `absorb_record` + a later prediction over the
    /// absorbed node is exactly what [`Grafics::infer_tracked`] returns in
    /// one call.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::infer`] (the record is *not* added
    /// on [`GraficsError::OutsideBuilding`]).
    pub fn absorb_record<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<RecordId, GraficsError> {
        self.absorb_record_with(record, &mut OnlineScratch::new(), rng)
    }

    /// [`Grafics::absorb_record`] with a caller-owned scratch, so a stream
    /// of absorbs is allocation-free after warm-up.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::absorb_record`].
    pub fn absorb_record_with<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        scratch: &mut OnlineScratch,
        rng: &mut R,
    ) -> Result<RecordId, GraficsError> {
        let node = self.insert_record_with(record, scratch, rng)?;
        match self.graph.kind(node) {
            grafics_graph::NodeKind::Record(rid) => Ok(rid),
            grafics_graph::NodeKind::Mac(_) => unreachable!("inserted node is a record"),
        }
    }

    /// The floor of a previously absorbed record, from its stored
    /// embedding — no graph mutation, no RNG. `None` if `rid` is not live.
    /// Used by retention policies that bucket absorbed records per floor.
    #[must_use]
    pub fn floor_of_record(&self, rid: RecordId) -> Option<Prediction> {
        let node = self.graph.record_node(rid)?;
        let query = self.embeddings.ego_vec(node);
        self.clusters.predict(&query).ok()
    }

    /// Like [`Grafics::infer`], but also returns the new record's id and
    /// graph node so callers can track it (e.g. for later removal).
    pub fn infer_tracked<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<(RecordId, Prediction), GraficsError> {
        let node = self.insert_record(record, rng)?;
        let query = self.embeddings.ego_vec(node);
        let rid = match self.graph.kind(node) {
            grafics_graph::NodeKind::Record(rid) => rid,
            grafics_graph::NodeKind::Mac(_) => unreachable!("inserted node is a record"),
        };
        Ok((rid, self.clusters.predict(&query)?))
    }

    fn insert_record<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<NodeIdx, GraficsError> {
        self.insert_record_with(record, &mut OnlineScratch::new(), rng)
    }

    fn insert_record_with<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        scratch: &mut OnlineScratch,
        rng: &mut R,
    ) -> Result<NodeIdx, GraficsError> {
        if !self.graph.overlaps(record) {
            return Err(GraficsError::OutsideBuilding);
        }
        let rid = self.graph.add_record(record);
        let node = self.graph.record_node(rid).expect("just inserted");
        // Embed against the sampler state from *before* the insertion (the
        // frozen background graph) — the same distribution the read-only
        // [`GraficsServer`] sees, keeping both paths bit-identical per
        // seed. Only then absorb the new node and its degree changes into
        // the sampler, in O(deg · log n), for subsequent queries.
        let embedded = self.trainer.embed_new_node_with(
            &self.graph,
            &mut self.embeddings,
            node,
            &self.neg_sampler,
            scratch,
            rng,
        );
        // The graph mutation above is already committed (a failed embed
        // leaves the record in place, as it always has), so the sampler
        // must absorb it even on the error path — otherwise the
        // sampler ≡ fresh-sweep invariant would break for good.
        self.neg_sampler.sync_inserted(&self.graph, node);
        embedded?;
        Ok(node)
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &GraficsConfig {
        &self.config
    }

    /// The (growing) bipartite graph.
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The learned embeddings.
    #[must_use]
    pub fn embeddings(&self) -> &EmbeddingModel {
        &self.embeddings
    }

    /// The fitted clusters.
    #[must_use]
    pub fn clusters(&self) -> &ClusterModel {
        &self.clusters
    }

    /// Number of records in the offline training corpus.
    #[must_use]
    pub fn train_record_count(&self) -> usize {
        self.train_records
    }

    /// The *virtual labels* the clustering assigned to every training
    /// record (§IV-C: unlabeled samples inherit the label of the labelled
    /// sample in their cluster). Used as pseudo-labels by the supervised
    /// baselines and for the Fig. 8 progression.
    #[must_use]
    pub fn virtual_labels(&self) -> Vec<FloorId> {
        self.clusters.virtual_labels()
    }

    /// Removes a previously inserted record from the graph (e.g. expiring
    /// inference-time records to bound memory). The negative sampler is
    /// resynced only for the touched nodes (O(deg · log n)).
    ///
    /// # Errors
    ///
    /// Propagates the graph's unknown-record error.
    pub fn forget_record(&mut self, rid: RecordId) -> Result<(), grafics_graph::GraphError> {
        let node = self
            .graph
            .record_node(rid)
            .ok_or(grafics_graph::GraphError::UnknownRecord(rid))?;
        let former: Vec<NodeIdx> = self.graph.neighbors(node).iter().map(|&(n, _)| n).collect();
        self.graph.remove_record(rid)?;
        self.neg_sampler.sync_removed(&self.graph, node, &former);
        Ok(())
    }

    /// Decommissions an access point: its MAC node and edges leave the
    /// graph (§III-A "installation and removal of APs"). Existing clusters
    /// are unaffected — record embeddings stay put — but future online
    /// inferences no longer connect through the removed AP. The negative
    /// sampler is resynced only for the touched nodes (O(deg · log n)).
    ///
    /// # Errors
    ///
    /// Propagates the graph's unknown-MAC error.
    pub fn remove_ap(
        &mut self,
        mac: grafics_types::MacAddr,
    ) -> Result<(), grafics_graph::GraphError> {
        let node = self
            .graph
            .mac_node(mac)
            .ok_or(grafics_graph::GraphError::UnknownMac(mac))?;
        let former: Vec<NodeIdx> = self.graph.neighbors(node).iter().map(|&(n, _)| n).collect();
        self.graph.remove_mac(mac)?;
        self.neg_sampler.sync_removed(&self.graph, node, &former);
        Ok(())
    }

    /// Serialises the whole model (graph, embeddings, clusters, config)
    /// to a JSON file, so a deployment can train once and serve many
    /// processes.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO/serde error as `std::io::Error`.
    pub fn save_json<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a model previously written by [`Grafics::save_json`].
    ///
    /// Model files written before the serving engine carry no
    /// `neg_sampler` field; they are migrated transparently — the sampler
    /// is fully derivable from the graph, so the rebuild is lossless
    /// (only the RNG draw stream of subsequent online inference differs
    /// from a natively saved sampler state).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO/serde error as `std::io::Error`.
    pub fn load_json<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        match serde_json::from_str(&json) {
            Ok(model) => Ok(model),
            Err(current_err) => {
                // Pre-serving-engine format: everything but the sampler.
                #[derive(Deserialize)]
                struct GraficsV1 {
                    config: GraficsConfig,
                    trainer: ElineTrainer,
                    graph: BipartiteGraph,
                    embeddings: EmbeddingModel,
                    clusters: ClusterModel,
                    train_records: usize,
                }
                let v1: GraficsV1 =
                    serde_json::from_str(&json).map_err(|_| std::io::Error::other(current_err))?;
                let neg_sampler =
                    NegativeSampler::from_graph(&v1.graph, v1.trainer.config().negative_exponent);
                Ok(Grafics {
                    config: v1.config,
                    trainer: v1.trainer,
                    graph: v1.graph,
                    embeddings: v1.embeddings,
                    clusters: v1.clusters,
                    train_records: v1.train_records,
                    neg_sampler,
                })
            }
        }
    }

    /// Batch refresh (§V-A discusses keeping online inference cheap by
    /// freezing old embeddings; over time, drift accumulates): re-trains
    /// the embeddings over the *current* graph — which includes every
    /// record absorbed during online inference — and refits the clusters
    /// using the original labelled samples' virtual positions.
    ///
    /// Labels are taken from the first `train_record_count()` records
    /// (the offline corpus); records added online stay unlabelled.
    ///
    /// With [`GraficsConfig::threads`] `>= 2` (see also
    /// [`Grafics::set_threads`]) both offline stages run their parallel
    /// paths: the lock-free Hogwild embedding trainer and the parallel
    /// dissimilarity matrix. `threads == 1` re-trains bit-identically to
    /// the serial pipeline. The negative sampler is rebuilt from scratch
    /// afterwards, clearing any accumulated floating-point drift — a
    /// refresh is the natural epoch boundary for the serving state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::train`].
    pub fn refresh<R: Rng + ?Sized>(
        &mut self,
        labels: &[Option<FloorId>],
        rng: &mut R,
    ) -> Result<(), GraficsError> {
        self.embeddings = self.trainer.train(&self.graph, rng)?;
        let mut points = grafics_types::RowMatrix::with_cols(self.config.dim);
        let mut point_labels = Vec::new();
        for (rid, node) in self.graph.record_ids() {
            points.push_row_widen(self.embeddings.ego(node));
            point_labels.push(labels.get(rid.index()).copied().flatten());
        }
        self.clusters = ClusterModel::fit(&points, &point_labels, &self.config.clustering())?;
        self.neg_sampler =
            NegativeSampler::from_graph(&self.graph, self.trainer.config().negative_exponent);
        Ok(())
    }

    /// Changes the worker-thread budget of every offline stage — the
    /// Hogwild embedding trainer and the parallel dissimilarity matrix
    /// used by [`Grafics::refresh`] — e.g. to re-thread a model that was
    /// trained on different hardware than it is served on. Clamped to at
    /// least 1; `1` restores the exact serial pipeline. Online inference
    /// is unaffected (it is already O(deg) per query and parallelised
    /// across queries by [`Grafics::serve_batch`]).
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
        self.trainer.set_threads(self.config.threads);
    }

    /// The incrementally maintained negative-sampling distribution — for
    /// diagnostics and tests; `Grafics` keeps it in lockstep with the
    /// graph through every mutation.
    #[must_use]
    pub fn negative_sampler(&self) -> &NegativeSampler {
        &self.neg_sampler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafics_data::BuildingModel;
    use grafics_types::{MacAddr, Reading, Rssi};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn trained(seed: u64) -> (Grafics, grafics_types::Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ds = BuildingModel::office("core-test", 3)
            .with_records_per_floor(60)
            .simulate(&mut rng);
        let split = ds.split(0.7, &mut rng).unwrap();
        let train = split.train.with_label_budget(4, &mut rng);
        let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
        (model, split.test)
    }

    #[test]
    fn end_to_end_accuracy_three_floors() {
        let (mut model, test) = trained(1);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut hits = 0;
        let mut total = 0;
        for s in test.samples() {
            if let Ok(pred) = model.infer(&s.record, &mut rng) {
                total += 1;
                if pred.floor == s.ground_truth {
                    hits += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            hits * 10 >= total * 8,
            "expected >= 80% floor accuracy with 4 labels/floor, got {hits}/{total}"
        );
    }

    #[test]
    fn parallel_training_stays_accurate() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let ds = BuildingModel::office("par", 3)
            .with_records_per_floor(60)
            .simulate(&mut rng);
        let split = ds.split(0.7, &mut rng).unwrap();
        let train = split.train.with_label_budget(4, &mut rng);
        let cfg = GraficsConfig {
            threads: 4,
            ..GraficsConfig::fast()
        };
        let mut model = Grafics::train(&train, &cfg, &mut rng).unwrap();
        let mut hits = 0;
        let mut total = 0;
        for s in split.test.samples() {
            if let Ok(pred) = model.infer(&s.record, &mut rng) {
                total += 1;
                if pred.floor == s.ground_truth {
                    hits += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            hits * 10 >= total * 7,
            "Hogwild-trained pipeline should stay accurate, got {hits}/{total}"
        );
    }

    #[test]
    fn outside_building_rejected_and_not_added() {
        let (mut model, _) = trained(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let foreign = SignalRecord::new(vec![Reading::new(
            MacAddr::from_u64(0xdead_beef),
            Rssi::new(-50.0).unwrap(),
        )])
        .unwrap();
        let records_before = model.graph().record_count();
        assert_eq!(
            model.infer(&foreign, &mut rng),
            Err(GraficsError::OutsideBuilding)
        );
        assert_eq!(model.graph().record_count(), records_before);
    }

    #[test]
    fn inference_extends_graph() {
        let (mut model, test) = trained(3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let before = model.graph().record_count();
        model.infer(&test.samples()[0].record, &mut rng).unwrap();
        assert_eq!(model.graph().record_count(), before + 1);
    }

    #[test]
    fn infer_tracked_allows_forgetting() {
        let (mut model, test) = trained(4);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let before = model.graph().record_count();
        let (rid, _) = model
            .infer_tracked(&test.samples()[0].record, &mut rng)
            .unwrap();
        model.forget_record(rid).unwrap();
        assert_eq!(model.graph().record_count(), before);
        assert!(model.forget_record(rid).is_err());
    }

    #[test]
    fn empty_training_set_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = Grafics::train(&Dataset::default(), &GraficsConfig::fast(), &mut rng);
        assert_eq!(err.unwrap_err(), GraficsError::EmptyTrainingSet);
    }

    #[test]
    fn unlabeled_training_set_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ds = BuildingModel::office("x", 2)
            .with_records_per_floor(10)
            .simulate(&mut rng)
            .unlabeled();
        let err = Grafics::train(&ds, &GraficsConfig::fast(), &mut rng);
        assert!(matches!(
            err,
            Err(GraficsError::Cluster(ClusterError::NoLabeledSamples))
        ));
    }

    #[test]
    fn virtual_labels_cover_training_set() {
        let (model, _) = trained(5);
        let virt = model.virtual_labels();
        assert_eq!(virt.len(), model.train_record_count());
    }

    #[test]
    fn cluster_count_equals_label_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ds = BuildingModel::office("c", 3)
            .with_records_per_floor(40)
            .simulate(&mut rng);
        let train = ds.with_label_budget(4, &mut rng);
        let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
        assert_eq!(model.clusters().clusters().len(), 12); // 4 labels × 3 floors
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (mut model, test) = trained(20);
        let dir = std::env::temp_dir().join("grafics-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save_json(&path).unwrap();
        let mut loaded = Grafics::load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut rng_a = ChaCha8Rng::seed_from_u64(55);
        let mut rng_b = ChaCha8Rng::seed_from_u64(55);
        for s in test.samples().iter().take(10) {
            let a = model.infer(&s.record, &mut rng_a).unwrap();
            let b = loaded.infer(&s.record, &mut rng_b).unwrap();
            assert_eq!(a.floor, b.floor);
        }
    }

    #[test]
    fn refresh_after_online_growth() {
        let (mut model, test) = trained(21);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // Absorb a batch of online records.
        for s in test.samples().iter().take(20) {
            let _ = model.infer(&s.record, &mut rng);
        }
        // Labels of the original offline corpus (online ones unlabelled).
        let labels: Vec<Option<FloorId>> = (0..model.train_record_count()).map(|_| None).collect();
        // Without any labels the refit must fail loudly …
        assert!(matches!(
            model.refresh(&labels, &mut rng),
            Err(GraficsError::Cluster(ClusterError::NoLabeledSamples))
        ));
        // … and with a few labels it succeeds and stays accurate.
        let mut rng2 = ChaCha8Rng::seed_from_u64(21);
        let ds = BuildingModel::office("core-test", 3)
            .with_records_per_floor(60)
            .simulate(&mut rng2);
        let split = ds.split(0.7, &mut rng2).unwrap();
        let train = split.train.with_label_budget(4, &mut rng2);
        let labels: Vec<Option<FloorId>> = train.samples().iter().map(|s| s.floor).collect();
        model.refresh(&labels, &mut rng).unwrap();
        let mut hits = 0;
        let mut total = 0;
        for s in test.samples().iter().skip(20) {
            if let Ok(p) = model.infer(&s.record, &mut rng) {
                total += 1;
                if p.floor == s.ground_truth {
                    hits += 1;
                }
            }
        }
        assert!(
            total > 0 && hits * 10 >= total * 7,
            "after refresh: {hits}/{total}"
        );
    }

    #[test]
    fn single_floor_building_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let ds = BuildingModel::office("one", 1)
            .with_records_per_floor(30)
            .simulate(&mut rng);
        let split = ds.split(0.7, &mut rng).unwrap();
        let train = split.train.with_label_budget(2, &mut rng);
        let mut model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
        for s in split.test.samples() {
            assert_eq!(model.infer(&s.record, &mut rng).unwrap().floor, FloorId(0));
        }
    }
}
