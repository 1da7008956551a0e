//! Read-mostly serving: `&self` inference over a shared frozen model.
//!
//! The paper's online path (§V) freezes everything except the new
//! record's embedding — so serving does not *need* to mutate the model at
//! all. [`GraficsServer`] exploits that: it holds any read-only handle to
//! a [`Grafics`] (a borrow for single-process serving, an `Arc` for a
//! fleet shard's published snapshot), keeps the query node's rows (and
//! fresh rows for never-seen MACs) in its own per-session scratch, and
//! therefore lets one trained model answer queries from many threads
//! concurrently. [`Grafics::serve_batch`] fans a batch out across the
//! worker pool, one server session per worker, with deterministic
//! per-record RNG streams — the same predictions at any thread count.

use crate::{Grafics, GraficsError, MatchPrecision, OnlineBudget, Prediction, ServingPolicy};
use grafics_types::{FloorId, SignalRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Deref;
use std::sync::Arc;

/// Monotonic per-session serving counters, cheap enough to bump on every
/// query. Serving tiers drain them (see [`GraficsServer::take_counters`])
/// into process-wide metrics after each batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Online SGD samples actually run across all served queries.
    pub refine_samples: u64,
    /// Queries whose adaptive refinement stopped before the full budget.
    pub early_stops: u64,
    /// `F32Refined` sweeps that fell back to the full f64 sweep because
    /// the f32 candidate set was too wide to re-score.
    pub f32_fallbacks: u64,
}

impl ServeCounters {
    /// Folds another session's counters into this one.
    pub fn merge(&mut self, other: ServeCounters) {
        self.refine_samples += other.refine_samples;
        self.early_stops += other.early_stops;
        self.f32_fallbacks += other.f32_fallbacks;
    }
}

/// A read-only serving session over a shared [`Grafics`] model.
///
/// Generic over how the model is held: `GraficsServer<&Grafics>` (from
/// [`Grafics::server`]) borrows for the session's lifetime, while
/// `GraficsServer<Arc<Grafics>>` (from [`GraficsServer::over`], used by
/// fleet shards) co-owns a published snapshot so the session survives a
/// concurrent [`crate::Shard::publish`] swap — in-flight queries keep
/// serving the epoch they started on.
///
/// Cheap enough to create per thread (the scratch buffers warm up after
/// the first query). `&mut self` on [`GraficsServer::infer`] only guards
/// the session-local scratch — the underlying model is never written, so
/// any number of sessions can serve the same model simultaneously.
///
/// At the same RNG seed and the same model state, a server prediction is
/// bit-identical to what the graph-extending [`Grafics::infer`] would
/// return for the same record.
///
/// # Examples
///
/// ```
/// use grafics_core::{Grafics, GraficsConfig};
/// use grafics_data::BuildingModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let ds = BuildingModel::office("serve", 2).with_records_per_floor(40).simulate(&mut rng);
/// let split = ds.split(0.7, &mut rng).unwrap();
/// let train = split.train.with_label_budget(4, &mut rng);
/// let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
///
/// // `model` stays immutable: the session owns all mutable state.
/// let mut server = model.server();
/// let mut hits = 0;
/// for s in split.test.samples() {
///     if let Ok(pred) = server.infer(&s.record, &mut rng) {
///         if pred.floor == s.ground_truth {
///             hits += 1;
///         }
///     }
/// }
/// assert!(hits * 10 >= split.test.len() * 7);
/// assert_eq!(model.graph().record_count(), train.len()); // nothing absorbed
/// ```
#[derive(Debug)]
pub struct GraficsServer<M: Deref<Target = Grafics> = Arc<Grafics>> {
    model: M,
    scratch: grafics_embed::OnlineScratch,
    /// Cluster-matching scratch shared across every query of the
    /// session — one per batch worker, so a whole `serve_batch` chunk
    /// reuses a single candidate buffer.
    matching: grafics_cluster::MatchScratch,
    /// Effective refinement budget, resolved at session open from the
    /// model config and the caller's [`ServingPolicy`].
    budget: OnlineBudget,
    /// Effective centroid-sweep precision, resolved like `budget`.
    precision: MatchPrecision,
    counters: ServeCounters,
}

impl Grafics {
    /// Opens a read-only serving session borrowing this model.
    #[must_use]
    pub fn server(&self) -> GraficsServer<&Grafics> {
        GraficsServer::over(self)
    }

    /// Predicts a whole batch against the frozen model on `threads`
    /// workers (PR-1's worker pool), without mutating shared state.
    ///
    /// Record `i` is embedded with its own `ChaCha8Rng` derived from
    /// `seed` and `i` (see [`record_rng`]), so the output is a pure
    /// function of `(model, records, seed)` — **independent of
    /// `threads`** — and per-record failures (outside building) map to
    /// `None` instead of aborting the batch. Workers take contiguous
    /// chunks; each runs its own [`GraficsServer`] session over `&self`.
    #[must_use]
    pub fn serve_batch(
        &self,
        records: &[SignalRecord],
        seed: u64,
        threads: usize,
    ) -> Vec<Option<Prediction>> {
        let mut out: Vec<Option<Prediction>> = vec![None; records.len()];
        if records.is_empty() {
            return out;
        }
        let workers = threads.clamp(1, records.len());
        if workers == 1 {
            let mut server = self.server();
            for (i, (record, slot)) in records.iter().zip(&mut out).enumerate() {
                let mut rng = record_rng(seed, i);
                *slot = server.infer(record, &mut rng).ok();
            }
            return out;
        }
        let chunk = records.len().div_ceil(workers);
        rayon::scope(|scope| {
            for (c, (record_chunk, out_chunk)) in
                records.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                scope.spawn(move |_| {
                    let mut server = self.server();
                    for (k, (record, slot)) in record_chunk.iter().zip(out_chunk).enumerate() {
                        let mut rng = record_rng(seed, c * chunk + k);
                        *slot = server.infer(record, &mut rng).ok();
                    }
                });
            }
        });
        out
    }
}

/// The per-record RNG stream of [`Grafics::serve_batch`] and the fleet's
/// [`crate::GraficsFleet::serve_batch`]: a fixed mix of the batch seed
/// and the record's index in the batch, so any partitioning across
/// workers — or across fleet shards — reproduces the same streams.
#[must_use]
pub fn record_rng(seed: u64, index: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl<M: Deref<Target = Grafics>> GraficsServer<M> {
    /// Opens a session over any read-only handle to a model — a borrow, an
    /// `Arc` snapshot, anything that derefs to [`Grafics`]. Serving knobs
    /// come from the model's own config (historically `Fixed` + `F64`).
    #[must_use]
    pub fn over(model: M) -> Self {
        Self::with_policy(model, ServingPolicy::default())
    }

    /// Opens a session with deployment-level overrides of the serving
    /// knobs; `None` fields of `policy` defer to the model's config.
    #[must_use]
    pub fn with_policy(model: M, policy: ServingPolicy) -> Self {
        let (budget, precision) = policy.resolve(model.config());
        GraficsServer {
            model,
            scratch: grafics_embed::OnlineScratch::new(),
            matching: grafics_cluster::MatchScratch::new(),
            budget,
            precision,
            counters: ServeCounters::default(),
        }
    }

    /// Predicts the floor of one record against the frozen model: the
    /// record is embedded in session-local scratch (graph, embeddings,
    /// clusters, and sampler are only read) and matched to the nearest
    /// cluster centroid. Amortised O(deg) per query.
    ///
    /// # Errors
    ///
    /// - [`GraficsError::OutsideBuilding`] if the record shares no MAC
    ///   with the building graph;
    /// - [`GraficsError::Embed`] on embedding failure.
    pub fn infer<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<Prediction, GraficsError> {
        self.infer_with_margin(record, rng).map(|(pred, _)| pred)
    }

    /// Like [`GraficsServer::infer`], but returns the `k` nearest clusters
    /// as `(floor, distance)` pairs ascending by centroid distance (see
    /// [`Grafics::infer_topk`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GraficsServer::infer`].
    pub fn infer_topk<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        k: usize,
        rng: &mut R,
    ) -> Result<Vec<(FloorId, f64)>, GraficsError> {
        let model = &*self.model;
        let query = embed_with_budget(
            model,
            &mut self.scratch,
            &mut self.matching,
            self.budget,
            &mut self.counters,
            record,
            rng,
        )?;
        // Top-k ranks *every* candidate, so the f32 pre-sweep has no
        // work to skip — the full list always runs in f64.
        Ok(model
            .clusters
            .predict_topk_with(query, k, &mut self.matching)?)
    }

    /// Like [`GraficsServer::infer`], but also returns the distance gap to
    /// the nearest *different-floor* cluster — the per-query confidence
    /// signal (`f64::INFINITY` on single-floor models). Prediction and
    /// margin come from one centroid sweep
    /// ([`grafics_cluster::ClusterModel::predict_with_margin`]), so the
    /// fleet serve path pays no more cluster matching than plain `infer`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GraficsServer::infer`].
    pub fn infer_with_margin<R: Rng + ?Sized>(
        &mut self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<(Prediction, f64), GraficsError> {
        let model = &*self.model;
        let query = embed_with_budget(
            model,
            &mut self.scratch,
            &mut self.matching,
            self.budget,
            &mut self.counters,
            record,
            rng,
        )?;
        match self.precision {
            MatchPrecision::F64 => Ok(model.clusters.predict_with_margin(query)?),
            MatchPrecision::F32Refined => {
                let (pred, margin, fell_back) = model
                    .clusters
                    .predict_with_margin_f32(query, &mut self.matching)?;
                if fell_back {
                    self.counters.f32_fallbacks += 1;
                }
                Ok((pred, margin))
            }
        }
    }

    /// The shared model this session serves.
    #[must_use]
    pub fn model(&self) -> &Grafics {
        &self.model
    }

    /// The session's serving counters so far.
    #[must_use]
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// Drains the session's counters, resetting them to zero — how batch
    /// workers flush into process-wide metrics without double counting.
    pub fn take_counters(&mut self) -> ServeCounters {
        std::mem::take(&mut self.counters)
    }
}

/// Embeds one record into `scratch` against the frozen `model`, under the
/// session's refinement budget. Under `OnlineBudget::Adaptive`, the
/// decisive-margin probe sweeps the *current* ego estimate against the
/// cluster centroids (reusing the session's `matching` scratch) every
/// `min_spe` chunk; the probe consumes no RNG, so a never-stopped adaptive
/// run is bit-identical to `Fixed(max_spe)`.
fn embed_with_budget<'s, R: Rng + ?Sized>(
    model: &Grafics,
    scratch: &'s mut grafics_embed::OnlineScratch,
    matching: &mut grafics_cluster::MatchScratch,
    budget: OnlineBudget,
    counters: &mut ServeCounters,
    record: &SignalRecord,
    rng: &mut R,
) -> Result<&'s [f64], GraficsError> {
    if !model.graph.overlaps(record) {
        return Err(GraficsError::OutsideBuilding);
    }
    let margin_ratio = match budget {
        OnlineBudget::Fixed(_) => 0.0,
        OnlineBudget::Adaptive { margin_ratio, .. } => margin_ratio,
    };
    let clusters = &model.clusters;
    let mut decisive = |ego: &[f32]| clusters.margin_decisive(ego, margin_ratio, matching);
    let (query, outcome) = model.trainer.embed_query_budgeted(
        &model.graph,
        &model.embeddings,
        record,
        &model.neg_sampler,
        budget,
        &mut decisive,
        scratch,
        rng,
    )?;
    counters.refine_samples += outcome.samples as u64;
    if outcome.early_stop() {
        counters.early_stops += 1;
    }
    Ok(query)
}
