//! Fleet-scale serving: one shard per building, concurrent absorb+serve.
//!
//! The paper's deployment story is city-scale floor identification —
//! hundreds of buildings, each with its own crowdsourced signal map. A
//! [`GraficsFleet`] holds one [`Shard`] per building (keyed by
//! [`BuildingId`]) and routes each query to the shard whose AP inventory
//! it overlaps, through one [`RouteIndex`] over the published snapshots,
//! cached until a shard publishes.
//!
//! # Double-buffered shards
//!
//! Online traffic both *reads* (predict a floor) and *writes* (the graph
//! absorbs every accepted record, §V-A). A monolithic [`Grafics`] forces
//! the two through one `&mut` choke point. Each shard instead keeps two
//! copies of the model:
//!
//! - a **published snapshot** (`Arc<Grafics>`) that serves reads with
//!   `&self` — any number of threads, no locks held while embedding;
//! - a **write side** (`Grafics` behind a mutex) that absorbs records and
//!   applies the shard's [`RetentionPolicy`].
//!
//! [`Shard::publish`] swaps the snapshot pointer in O(1): readers that
//! already hold the old `Arc` finish on the epoch they started, new
//! sessions see the absorbed records. Preparing the next snapshot (one
//! model clone) happens on the publisher's thread, never on the serve
//! path. Absorb and serve therefore no longer contend — the fleet smoke
//! benchmark pins served queries/sec during a concurrent absorb stream to
//! the idle-shard rate.
//!
//! # Bounded residency
//!
//! The write side's [`RetentionPolicy`] evicts absorbed records (never
//! the offline training corpus) through [`Grafics::forget_record`],
//! which keeps the incremental `NegativeSampler` in exact lockstep — a
//! property test pins the sampler's weights against a from-scratch
//! rebuild after arbitrary interleaved absorb/evict sequences. Eviction
//! bounds the resident records and edges, not the node-indexed arrays:
//! a forgotten record's node slot is tombstoned, never reused.
//!
//! # Determinism
//!
//! Routing reads only published snapshots, absorption happens in call
//! order under one lock, and publishes are explicit — so shard
//! assignment, absorbed-graph state, and publish epochs are pure
//! functions of (models, record stream, seed), independent of thread
//! count. [`GraficsFleet::serve_batch`] gives record `i` the same
//! [`record_rng`](crate::record_rng) stream as the single-building
//! [`Grafics::serve_batch`], so fleet serving is bit-identical to serving
//! each record on its shard serially.
//!
//! # Persistence
//!
//! A fleet directory is self-describing: [`GraficsFleet::save_dir`]
//! writes a `fleet.json` [`FleetManifest`] (router choice, retention
//! policy, maintenance cadence) next to the `shard-<id>.json` models,
//! and [`GraficsFleet::load_dir`] restores all three without runtime
//! flags. Pre-manifest directories load with [`FleetManifest::default`],
//! which reproduces the old hard-wired behaviour losslessly.
//!
//! # Unroutable records
//!
//! A record that hears no AP of any building overlaps no shard's graph,
//! so no shard could embed it (§V footnote 1): every serve path reports
//! it as [`FleetError::NoRoute`] (`None` in a batch) and absorbs reject
//! it.

use crate::route::{RouteIndex, RouterKind};
use crate::wal::{
    self, checkpoint_file_name, encode_header, wal_file_name, FloorBucket, StdWalFs, WalEntry,
    WalFs, WalStats, WalWriter,
};
use crate::{
    record_rng, Grafics, GraficsError, GraficsServer, Prediction, ServeCounters, ServingPolicy,
};
use grafics_embed::OnlineScratch;
use grafics_types::{
    BreakerPolicy, BuildingId, DurabilityPolicy, FloorId, HealthPolicy, RateLimitPolicy, RecordId,
    RefreshTrigger, SignalRecord,
};
use parking_lot::{Mutex, RwLock};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How a shard bounds the records it keeps resident after absorbing them
/// online. The offline training corpus is never evicted; policies act
/// only on records the shard absorbed after construction.
///
/// Eviction runs [`Grafics::forget_record`], so the graph, the embedding
/// rows (tombstoned), and the incremental negative sampler stay in exact
/// lockstep. MAC nodes are not evicted — they are the building's AP
/// inventory, bounded by the physical installation.
///
/// A policy bounds the resident records and their edges. It does not
/// bound the node-indexed arrays: a forgotten record's node slot is
/// tombstoned and never reused, so the embedding rows, the sampler's
/// weights, its Fenwick tree and its alias snapshot grow with the total
/// number of absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetentionPolicy {
    /// Absorb forever (the pre-fleet behaviour). Resident records grow
    /// with traffic; use only behind periodic [`Grafics::refresh`] +
    /// rebuild.
    KeepAll,
    /// Keep at most this many absorbed records, evicting the oldest
    /// first. `FifoBudget(0)` absorbs-and-forgets: every record is
    /// embedded and predicted against, then immediately evicted.
    FifoBudget(usize),
    /// Keep at most this many absorbed records *per predicted floor*,
    /// evicting the oldest of the crowded floor — balanced coverage when
    /// traffic skews to entrance floors.
    PerFloorCap(usize),
}

impl RetentionPolicy {
    /// `true` if this policy can ever evict, which bounds the resident
    /// records and edges (see the type docs for what it does not bound).
    #[must_use]
    pub fn bounds_memory(&self) -> bool {
        !matches!(self, RetentionPolicy::KeepAll)
    }
}

/// Background maintenance cadence for a served fleet, persisted in the
/// fleet directory manifest and enforced by `grafics-serve`'s
/// `MaintenanceDaemon`. All knobs are optional; the default policy does
/// nothing (publish stays fully manual, the pre-daemon behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct MaintenancePolicy {
    /// Auto-publish a shard once this many absorbs are pending.
    /// `Some(0)` is treated as disabled (enforcing "publish with
    /// nothing pending, forever" is never intended).
    pub publish_after_absorbs: Option<usize>,
    /// Auto-publish a shard with pending absorbs after this many seconds
    /// since its last publish.
    pub publish_after_secs: Option<f64>,
    /// Re-train a shard's write side ([`Shard::refresh_write_side`])
    /// after every this-many publishes, then publish the refreshed
    /// model. `Some(0)` is treated as disabled.
    pub refresh_every_publishes: Option<u32>,
    /// Drift-triggered refresh: re-train a shard when its served
    /// floor-margin distribution degrades ([`RefreshTrigger`],
    /// evaluated by [`Shard::margin_refresh_due`]) instead of — or in
    /// addition to — the blind publish-count cadence. Pre-version-4
    /// manifests load as `None` (cadence only).
    pub refresh_trigger: Option<RefreshTrigger>,
}

impl MaintenancePolicy {
    /// `true` if no knob is set — a daemon over this policy would never
    /// act.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.publish_after_absorbs.is_none()
            && self.publish_after_secs.is_none()
            && self.refresh_every_publishes.is_none()
            && self.effective_trigger().is_none()
    }

    /// The effective drift trigger, with degenerate knobs filtered out.
    #[must_use]
    pub fn effective_trigger(&self) -> Option<RefreshTrigger> {
        self.refresh_trigger.filter(|t| !t.is_noop())
    }
}

/// The fleet directory manifest (`fleet.json`): everything about a fleet
/// that is not a shard model — router choice, retention policy, and
/// maintenance cadence. Written by [`GraficsFleet::save_dir`], read back
/// by [`GraficsFleet::load_dir`]. Directories written before the manifest
/// existed (PR-3 era) load losslessly with [`FleetManifest::default`],
/// which reproduces the old hard-wired behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Manifest format version (currently 3).
    pub version: u32,
    /// Which built-in router the fleet uses.
    pub router: RouterKind,
    /// The retention policy applied to every shard.
    pub retention: RetentionPolicy,
    /// Background publish/refresh cadence.
    pub maintenance: MaintenancePolicy,
    /// Absorb write-ahead-log durability (see the [`wal`] module).
    pub durability: DurabilityPolicy,
    /// Deployment-level serving overrides (refinement budget, matching
    /// precision) applied to every serving session the fleet opens.
    /// `None` — what every pre-version-3 manifest loads as — keeps the
    /// historical per-model defaults.
    pub serving: Option<ServingPolicy>,
}

impl Default for FleetManifest {
    /// The PR-3-era semantics: overlap routing, absorb forever, no
    /// background maintenance, no WAL.
    fn default() -> Self {
        FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            router: RouterKind::Overlap,
            retention: RetentionPolicy::KeepAll,
            maintenance: MaintenancePolicy::default(),
            durability: DurabilityPolicy::Off,
            serving: None,
        }
    }
}

/// Current [`FleetManifest::version`]. Version 2 added the `durability`
/// field; version-1 manifests load with [`DurabilityPolicy::Off`].
/// Version 3 added the optional `serving` policy; earlier manifests load
/// with `None` (per-model defaults). Version 4 added the optional
/// `maintenance.refresh_trigger`; earlier manifests load with `None`
/// (cadence-only maintenance) — the vendored serde reads a missing field
/// as `null`, so no fallback shape is needed.
pub const FLEET_MANIFEST_VERSION: u32 = 4;

/// File name of the manifest inside a fleet directory.
const FLEET_MANIFEST_FILE: &str = "fleet.json";

/// Errors from the fleet layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// No shard's AP inventory overlaps the record — per §V footnote 1 it
    /// was likely collected outside every known building.
    NoRoute,
    /// The named building has no shard.
    UnknownBuilding(BuildingId),
    /// A shard with this id already exists.
    DuplicateBuilding(BuildingId),
    /// The routed shard's model failed on the record.
    Model(GraficsError),
    /// The shard's write-ahead log is poisoned (an fs append, fsync, or
    /// checkpoint failed). Durable absorbs fail fast rather than
    /// silently diverging from disk; run `grafics fleet recover` after
    /// fixing the underlying fault.
    Durability(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoRoute => {
                write!(f, "record overlaps no building in the fleet; discarded")
            }
            FleetError::UnknownBuilding(b) => write!(f, "no shard for building {b}"),
            FleetError::DuplicateBuilding(b) => write!(f, "shard {b} already exists"),
            FleetError::Model(e) => write!(f, "shard model: {e}"),
            FleetError::Durability(e) => write!(f, "write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraficsError> for FleetError {
    fn from(e: GraficsError) -> Self {
        FleetError::Model(e)
    }
}

/// One fleet prediction: where the record was routed and what that
/// shard's published snapshot predicted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPrediction {
    /// The shard the router picked.
    pub building: BuildingId,
    /// Predicted floor `l_{i*}`.
    pub floor: FloorId,
    /// ℓ2 distance to the winning centroid.
    pub distance: f64,
    /// Distance gap to the nearest *different-floor* cluster — the
    /// per-query confidence ([`f64::INFINITY`] on single-floor models).
    pub margin: f64,
}

/// The write half of a shard: the absorbing model plus the retention
/// bookkeeping, all guarded by one mutex so absorption is serialised in
/// call order.
struct WriteSide {
    model: Grafics,
    retention: RetentionPolicy,
    /// Live absorbed records, oldest first (FIFO budget policy).
    absorbed: VecDeque<RecordId>,
    /// Live absorbed records bucketed by predicted floor (per-floor cap).
    by_floor: BTreeMap<FloorId, VecDeque<RecordId>>,
    /// Absorbs since the last publish (the pending queue depth).
    pending: usize,
    scratch: OnlineScratch,
    /// The durability attachment, if this shard journals its absorbs
    /// (see [`GraficsFleet::recover`]). Living inside the write mutex
    /// means WAL append order always equals model mutation order.
    wal: Option<ShardWal>,
}

/// A shard's WAL attachment: the group-commit writer plus the cursors
/// the checkpoint needs.
struct ShardWal {
    writer: WalWriter,
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    /// The next shard-local append index (== entries ever logged).
    next_seq: u64,
    /// One past the highest process-wide absorb index seen — persisted in
    /// checkpoints so a resumed server never reuses an RNG stream.
    next_rng: u64,
}

impl WriteSide {
    fn absorbed_resident(&self) -> usize {
        self.model.graph().record_count() - self.model.train_record_count()
    }

    /// Applies the retention policy after `rid` was absorbed. Every
    /// absorbed record is tracked even under [`RetentionPolicy::KeepAll`],
    /// so a later [`Shard::set_retention`] switch can evict the full
    /// backlog, not just records absorbed after the switch.
    fn retain(&mut self, rid: RecordId) {
        match self.retention {
            RetentionPolicy::KeepAll => self.absorbed.push_back(rid),
            RetentionPolicy::FifoBudget(budget) => {
                self.absorbed.push_back(rid);
                while self.absorbed.len() > budget {
                    let old = self.absorbed.pop_front().expect("len > budget >= 0");
                    let _ = self.model.forget_record(old);
                }
            }
            RetentionPolicy::PerFloorCap(cap) => {
                // A just-absorbed record always predicts (its embedding is
                // live); fall back to the global FIFO if it somehow cannot.
                let Some(p) = self.model.floor_of_record(rid) else {
                    self.absorbed.push_back(rid);
                    return;
                };
                let queue = self.by_floor.entry(p.floor).or_default();
                queue.push_back(rid);
                while queue.len() > cap {
                    let old = queue.pop_front().expect("len > cap >= 0");
                    let _ = self.model.forget_record(old);
                }
            }
        }
    }
}

/// Writes one checkpoint for `w`: flush+fsync the WAL, atomically
/// replace `checkpoint-<id>.json` (model + watermark + retention queues
/// in **one** file, so they can never disagree after a crash), then
/// truncate the WAL and rewrite its header. Ordering matters: the
/// checkpoint is durable before the truncation, and a crash between the
/// two merely leaves sub-watermark entries that replay skips.
///
/// `model` is the model to persist (the publish path hands the snapshot
/// clone it just made; recovery hands `w.model` itself).
fn checkpoint_write_side(id: BuildingId, w: &WriteSide, model: &Grafics) -> Result<(), String> {
    let Some(shard_wal) = &w.wal else {
        return Ok(());
    };
    shard_wal.writer.flush_sync()?;
    let absorbed: Vec<RecordId> = w.absorbed.iter().copied().collect();
    let by_floor: Vec<FloorBucket> = w
        .by_floor
        .iter()
        .map(|(floor, queue)| FloorBucket {
            floor: *floor,
            records: queue.iter().copied().collect(),
        })
        .collect();
    let doc = wal::encode_checkpoint(
        id.0,
        shard_wal.next_seq,
        shard_wal.next_rng,
        w.pending,
        &absorbed,
        &by_floor,
        model,
    )?;
    let as_io = |e: std::io::Error| e.to_string();
    shard_wal
        .fs
        .write_atomic(
            &shard_wal.dir.join(checkpoint_file_name(id.0)),
            doc.as_bytes(),
        )
        .map_err(as_io)?;
    let wal_path = shard_wal.dir.join(wal_file_name(id.0));
    shard_wal.fs.truncate(&wal_path).map_err(as_io)?;
    let header = encode_header(id.0);
    shard_wal
        .fs
        .append(&wal_path, header.as_bytes())
        .map_err(as_io)?;
    shard_wal.writer.reset_tail(header.len() as u64);
    Ok(())
}

/// Default sliding-window length for the margin gauges: what `/metrics`
/// aggregates over when no [`RefreshTrigger`] names a window.
pub const DEFAULT_MARGIN_WINDOW: usize = 256;

/// Hard capacity of a shard's margin ring. A [`RefreshTrigger`] window
/// larger than this is silently clamped — the gauge can only see what
/// the ring retains.
const MARGIN_WINDOW_CAP: usize = 4096;

/// Sliding window of recently served floor margins plus the
/// post-refresh baseline — the evidence behind
/// [`RefreshTrigger::MarginDrop`]. Quantiles are order-insensitive over
/// the retained multiset, so any serve interleaving that records the
/// same margins reads the same gauges.
#[derive(Debug, Default)]
struct MarginWindow {
    /// Finite margins, oldest first, capped at [`MARGIN_WINDOW_CAP`].
    buf: VecDeque<f64>,
    /// p10 captured when the window first filled after the last refresh;
    /// the drop trigger compares against this.
    baseline_p10: Option<f64>,
}

impl MarginWindow {
    /// Records one served margin. Non-finite margins (single-floor
    /// models report `+∞`) carry no drift signal and are skipped.
    fn record(&mut self, margin: f64) {
        if !margin.is_finite() {
            return;
        }
        if self.buf.len() == MARGIN_WINDOW_CAP {
            self.buf.pop_front();
        }
        self.buf.push_back(margin);
    }

    /// Nearest-rank quantile over the most recent `window` margins;
    /// `None` while the window is empty.
    fn quantile(&self, window: usize, q: f64) -> Option<f64> {
        let n = self.buf.len().min(window.max(1));
        if n == 0 {
            return None;
        }
        let mut recent: Vec<f64> = self.buf.iter().rev().take(n).copied().collect();
        recent.sort_by(f64::total_cmp);
        Some(recent[quantile_rank(n, q)])
    }
}

/// Zero-based nearest-rank index of quantile `q` in a sorted slice of
/// length `n > 0`.
fn quantile_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// One building's double-buffered model: a frozen published snapshot
/// serving reads with `&self`, and a mutex-guarded write side absorbing
/// records under a [`RetentionPolicy`]. See the `fleet` module docs.
pub struct Shard {
    id: BuildingId,
    /// The published snapshot. The read lock is held only long enough to
    /// clone the `Arc`; queries embed against the clone, lock-free.
    snapshot: RwLock<Arc<Grafics>>,
    /// Publish count since construction.
    epoch: AtomicU64,
    write: Mutex<WriteSide>,
    /// Served floor margins, feeding the drift gauges and
    /// [`RefreshTrigger::MarginDrop`]. Its own lock so the serve path
    /// never touches the absorb mutex.
    margins: Mutex<MarginWindow>,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// A point-in-time summary of one shard, for `grafics fleet stat` and
/// the smoke benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Which building.
    pub building: BuildingId,
    /// Publishes since construction.
    pub epoch: u64,
    /// Absorbs not yet visible to readers (pending publish).
    pub pending: usize,
    /// Live records in the published snapshot.
    pub published_records: usize,
    /// Live records in the write side (offline corpus + absorbed).
    pub resident_records: usize,
    /// Absorbed records currently retained (excludes the offline corpus).
    pub absorbed_resident: usize,
    /// Live MAC nodes in the write side.
    pub macs: usize,
    /// Live edges in the write side.
    pub edges: usize,
}

/// A point-in-time summary of a whole fleet — the one serializable shape
/// shared by `grafics fleet stat`, the HTTP `/v1/stat` endpoint, and the
/// smoke benchmarks. [`fmt::Display`] renders the CSV table the CLI
/// prints; `serde` renders the JSON the network front end returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Per-shard statistics, sorted ascending by building id.
    pub shards: Vec<ShardStats>,
}

impl FleetStats {
    /// Absorbs pending publish, summed over all shards.
    #[must_use]
    pub fn total_pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending).sum()
    }

    /// Live records resident across all write sides.
    #[must_use]
    pub fn total_resident_records(&self) -> usize {
        self.shards.iter().map(|s| s.resident_records).sum()
    }

    /// Publishes since construction, summed over all shards.
    #[must_use]
    pub fn total_epochs(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch).sum()
    }

    /// The stats row for `building`, if that shard exists.
    #[must_use]
    pub fn shard(&self, building: BuildingId) -> Option<&ShardStats> {
        self.shards.iter().find(|s| s.building == building)
    }
}

impl fmt::Display for FleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "building,records,macs,edges,epoch,pending,absorbed")?;
        for st in &self.shards {
            writeln!(
                f,
                "{},{},{},{},{},{},{}",
                st.building,
                st.resident_records,
                st.macs,
                st.edges,
                st.epoch,
                st.pending,
                st.absorbed_resident
            )?;
        }
        writeln!(f, "shards: {}", self.shards.len())
    }
}

impl Shard {
    /// Creates a shard from a trained model. The snapshot starts as a
    /// copy of `model`; the write side absorbs under `retention`.
    #[must_use]
    pub fn new(id: BuildingId, model: Grafics, retention: RetentionPolicy) -> Self {
        Shard {
            id,
            snapshot: RwLock::new(Arc::new(model.clone())),
            epoch: AtomicU64::new(0),
            write: Mutex::new(WriteSide {
                model,
                retention,
                absorbed: VecDeque::new(),
                by_floor: BTreeMap::new(),
                pending: 0,
                scratch: OnlineScratch::new(),
                wal: None,
            }),
            margins: Mutex::new(MarginWindow::default()),
        }
    }

    /// Rebuilds a shard from recovered state: the snapshot starts as a
    /// copy of `model` (the recovered write side), and the retention
    /// queues are restored exactly so post-recovery evictions happen in
    /// the same order as on the never-crashed shard.
    pub(crate) fn restore(
        id: BuildingId,
        model: Grafics,
        retention: RetentionPolicy,
        absorbed: VecDeque<RecordId>,
        by_floor: BTreeMap<FloorId, VecDeque<RecordId>>,
        pending: usize,
    ) -> Self {
        Shard {
            id,
            snapshot: RwLock::new(Arc::new(model.clone())),
            epoch: AtomicU64::new(0),
            write: Mutex::new(WriteSide {
                model,
                retention,
                absorbed,
                by_floor,
                pending,
                scratch: OnlineScratch::new(),
                wal: None,
            }),
            margins: Mutex::new(MarginWindow::default()),
        }
    }

    /// The building this shard serves.
    #[must_use]
    pub fn id(&self) -> BuildingId {
        self.id
    }

    /// The current published snapshot. In-flight sessions created from an
    /// earlier snapshot keep serving that epoch.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Grafics> {
        self.snapshot.read().clone()
    }

    /// Publishes since construction.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Opens a read-only serving session over the current snapshot. The
    /// session co-owns the snapshot: a concurrent [`Shard::publish`]
    /// never invalidates it.
    #[must_use]
    pub fn server(&self) -> GraficsServer<Arc<Grafics>> {
        GraficsServer::over(self.snapshot())
    }

    /// Serves one record against the published snapshot (one-shot
    /// session; for streams, hold a [`Shard::server`] session instead).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GraficsServer::infer`].
    pub fn serve<R: Rng + ?Sized>(
        &self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<Prediction, GraficsError> {
        self.server().infer(record, rng)
    }

    /// Absorbs one record into the write side (graph extend + frozen-
    /// background embed + sampler sync, no prediction) and applies the
    /// retention policy. Readers see nothing until [`Shard::publish`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::absorb_record`].
    pub fn absorb<R: Rng + ?Sized>(
        &self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<RecordId, GraficsError> {
        let mut guard = self.write.lock();
        let w = &mut *guard;
        let rid = w.model.absorb_record_with(record, &mut w.scratch, rng)?;
        w.pending += 1;
        w.retain(rid);
        Ok(rid)
    }

    /// Absorbs one record on the deterministic stream
    /// [`record_rng`](crate::record_rng)`(seed, rng_index)` and, if a WAL
    /// is attached, journals `(seq, rng_index, seed, record)` through the
    /// group-commit buffer — the call never blocks on disk. Without an
    /// attached WAL this is exactly [`Shard::absorb`] on that stream.
    ///
    /// If the journal append fails *after* the model mutated, the write
    /// side is ahead of disk; the writer is poisoned so every later
    /// durable absorb fails fast, and recovery restores the durable
    /// prefix.
    ///
    /// # Errors
    ///
    /// - [`FleetError::Model`] on absorption failure (nothing is logged —
    ///   a rejected absorb burns its RNG index but changes no state);
    /// - [`FleetError::Durability`] if the WAL is poisoned.
    pub fn absorb_durable(
        &self,
        record: &SignalRecord,
        seed: u64,
        rng_index: u64,
    ) -> Result<RecordId, FleetError> {
        let mut guard = self.write.lock();
        let w = &mut *guard;
        if let Some(shard_wal) = &w.wal {
            if let Some(e) = shard_wal.writer.sticky_error() {
                return Err(FleetError::Durability(e));
            }
        }
        let mut rng = record_rng(seed, usize::try_from(rng_index).unwrap_or(usize::MAX));
        let rid = w
            .model
            .absorb_record_with(record, &mut w.scratch, &mut rng)
            .map_err(FleetError::Model)?;
        w.pending += 1;
        w.retain(rid);
        if let Some(shard_wal) = &mut w.wal {
            let entry = WalEntry {
                seq: shard_wal.next_seq,
                rng: rng_index,
                seed,
                record: record.clone(),
            };
            shard_wal.next_seq += 1;
            shard_wal.next_rng = shard_wal.next_rng.max(rng_index + 1);
            shard_wal
                .writer
                .append(&entry)
                .map_err(FleetError::Durability)?;
        }
        Ok(rid)
    }

    /// Attaches a WAL writer to this shard (crate-internal: reached via
    /// [`GraficsFleet::recover`], which knows the right cursors).
    pub(crate) fn attach_wal(
        &self,
        fs: Arc<dyn WalFs>,
        dir: &Path,
        policy: DurabilityPolicy,
        next_seq: u64,
        next_rng: u64,
    ) -> std::io::Result<()> {
        let writer = WalWriter::open(Arc::clone(&fs), dir, self.id.0, policy)?;
        self.write.lock().wal = Some(ShardWal {
            writer,
            fs,
            dir: dir.to_path_buf(),
            next_seq,
            next_rng,
        });
        Ok(())
    }

    /// `true` if a WAL is attached.
    #[must_use]
    pub fn wal_attached(&self) -> bool {
        self.write.lock().wal.is_some()
    }

    /// WAL counters, if a WAL is attached.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.write
            .lock()
            .wal
            .as_ref()
            .map(|w| w.writer.metrics().stats())
    }

    /// The sticky WAL error, if the shard's durability pipeline died.
    #[must_use]
    pub fn wal_error(&self) -> Option<String> {
        self.write
            .lock()
            .wal
            .as_ref()
            .and_then(|w| w.writer.sticky_error())
    }

    /// Blocks until every journalled absorb is appended **and fsynced**
    /// — the graceful-shutdown barrier. A no-op without a WAL.
    ///
    /// # Errors
    ///
    /// [`FleetError::Durability`] if the writer is poisoned.
    pub fn drain_wal(&self) -> Result<(), FleetError> {
        let guard = self.write.lock();
        if let Some(shard_wal) = &guard.wal {
            shard_wal
                .writer
                .flush_sync()
                .map_err(FleetError::Durability)?;
        }
        Ok(())
    }

    /// Checkpoints the current write side immediately (without
    /// publishing): used by recovery to compact a replayed log.
    pub(crate) fn checkpoint_now(&self) -> Result<(), String> {
        let guard = self.write.lock();
        checkpoint_write_side(self.id, &guard, &guard.model)
    }

    /// Publishes the write side: clones it into a fresh snapshot (on this
    /// thread — the serve path never pays for it) and swaps the snapshot
    /// pointer in O(1). Returns the new epoch. In-flight readers finish
    /// on the snapshot they hold.
    ///
    /// With a WAL attached, publish is also the **checkpoint**: the
    /// frozen model plus the WAL watermark are written atomically to
    /// `checkpoint-<id>.json` and the replayed WAL prefix is truncated.
    /// A checkpoint failure poisons the writer (later durable absorbs
    /// fail fast) but never blocks the in-memory publish.
    pub fn publish(&self) -> u64 {
        let mut guard = self.write.lock();
        let next = Arc::new(guard.model.clone());
        guard.pending = 0;
        if guard.wal.is_some() {
            if let Err(e) = checkpoint_write_side(self.id, &guard, &next) {
                if let Some(shard_wal) = &guard.wal {
                    shard_wal.writer.poison(&e);
                }
            }
        }
        // Swap and bump the epoch while still holding the write mutex so
        // epoch, pending, and snapshot move together (concurrent
        // publishers get strictly ordered epochs), and under the snapshot
        // lock so a reader of both sees a matching pair; readers only
        // ever take the read lock for the pointer clone, so the critical
        // section is O(1) for them.
        let mut snapshot = self.snapshot.write();
        *snapshot = next;
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(snapshot);
        drop(guard);
        epoch
    }

    /// Replaces the retention policy and immediately enforces the new
    /// bound on the already-absorbed backlog.
    pub fn set_retention(&self, retention: RetentionPolicy) {
        let mut guard = self.write.lock();
        guard.retention = retention;
        match retention {
            RetentionPolicy::KeepAll => {}
            RetentionPolicy::FifoBudget(budget) => {
                // Fold any per-floor buckets back into one FIFO (arrival
                // order is lost across buckets; floor order is the
                // deterministic stand-in).
                let w = &mut *guard;
                for (_, mut q) in std::mem::take(&mut w.by_floor) {
                    while let Some(rid) = q.pop_front() {
                        w.absorbed.push_back(rid);
                    }
                }
                while w.absorbed.len() > budget {
                    let old = w.absorbed.pop_front().expect("len > budget");
                    let _ = w.model.forget_record(old);
                }
            }
            RetentionPolicy::PerFloorCap(cap) => {
                let w = &mut *guard;
                let backlog: Vec<RecordId> = std::mem::take(&mut w.absorbed).into();
                for rid in backlog {
                    let Some(p) = w.model.floor_of_record(rid) else {
                        continue;
                    };
                    w.by_floor.entry(p.floor).or_default().push_back(rid);
                }
                for (_, q) in w.by_floor.iter_mut() {
                    while q.len() > cap {
                        let old = q.pop_front().expect("len > cap");
                        let _ = w.model.forget_record(old);
                    }
                }
            }
        }
    }

    /// Runs `f` over the write-side model (e.g. a periodic
    /// [`Grafics::refresh`]), holding the absorb lock for the duration.
    pub fn with_write_model<T>(&self, f: impl FnOnce(&mut Grafics) -> T) -> T {
        f(&mut self.write.lock().model)
    }

    /// Re-trains the write side over everything absorbed so far
    /// ([`Grafics::refresh`]), seeding the cluster refit with **one
    /// label per existing cluster** — each cluster's lowest-id
    /// offline-corpus member stands in for its original labelled sample
    /// (the model does not store which sample that was). This preserves
    /// the paper's few-labelled-seeds regime: the refit produces the
    /// same cluster count as the live model, instead of one cluster per
    /// training record. Records absorbed online stay unlabelled.
    ///
    /// The label vector is indexed by record id; offline-corpus ids
    /// (`0..train_record_count`) are never evicted and the graph
    /// iterates records in ascending id order, so cluster member
    /// positions below `train_record_count` are those same ids at every
    /// refresh — eviction gaps in the absorbed id range can never shift
    /// a label onto the wrong record.
    ///
    /// Holds the absorb lock for the duration — concurrent absorbs block,
    /// but readers keep serving the published snapshot untouched. Publish
    /// afterwards to expose the refreshed model; the serve daemon's
    /// `refresh_every_publishes` cadence does exactly that.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Grafics::refresh`].
    pub fn refresh_write_side<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<(), GraficsError> {
        let mut guard = self.write.lock();
        let train = guard.model.train_record_count();
        let mut labels: Vec<Option<FloorId>> = vec![None; train];
        for cluster in guard.model.clusters().clusters() {
            if let Some(&member) = cluster.members.iter().filter(|&&m| m < train).min() {
                labels[member] = Some(cluster.floor);
            }
        }
        guard.model.refresh(&labels, rng)?;
        // A refresh re-draws the cluster geometry, so old margins no
        // longer describe the serving model: restart the window and let
        // the next full window set a fresh baseline. Taken while still
        // holding the write lock so a trigger can't re-fire off stale
        // evidence between refresh and reset.
        *self.margins.lock() = MarginWindow::default();
        Ok(())
    }

    /// Records one served floor margin into the shard's sliding window.
    /// Called by every fleet serve path; cheap (a short mutex and a ring
    /// push), and order-insensitive for the quantile gauges.
    pub fn record_margin(&self, margin: f64) {
        self.margins.lock().record(margin);
    }

    /// `(p10, p50)` of the most recent `window` served margins, or
    /// `None` before anything was served. Nearest-rank quantiles.
    #[must_use]
    pub fn margin_quantiles(&self, window: usize) -> Option<(f64, f64)> {
        let guard = self.margins.lock();
        Some((guard.quantile(window, 0.10)?, guard.quantile(window, 0.50)?))
    }

    /// The most recent `window` served margins, newest last — the raw
    /// evidence behind [`Shard::margin_quantiles`], exposed so the fleet
    /// can pool shards into one distribution.
    #[must_use]
    pub fn recent_margins(&self, window: usize) -> Vec<f64> {
        let guard = self.margins.lock();
        let n = guard.buf.len().min(window);
        let mut out: Vec<f64> = guard.buf.iter().rev().take(n).copied().collect();
        out.reverse();
        out
    }

    /// Evaluates `trigger` against the margin window: `true` when the
    /// current window-p10 has dropped below `ratio` of the post-refresh
    /// baseline. Needs a full window of evidence; the first full window
    /// after a refresh *establishes* the baseline and never fires. The
    /// serve daemon refreshes + publishes when this returns `true`.
    #[must_use]
    pub fn margin_refresh_due(&self, trigger: RefreshTrigger) -> bool {
        if trigger.is_noop() {
            return false;
        }
        match trigger {
            RefreshTrigger::MarginDrop { window, ratio } => {
                let mut guard = self.margins.lock();
                if guard.buf.len() < window.min(MARGIN_WINDOW_CAP) {
                    return false;
                }
                let Some(p10) = guard.quantile(window, 0.10) else {
                    return false;
                };
                match guard.baseline_p10 {
                    None => {
                        guard.baseline_p10 = Some(p10);
                        false
                    }
                    Some(baseline) => p10 < ratio * baseline,
                }
            }
            // `RefreshTrigger` is non_exhaustive upstream; unknown future
            // variants are conservatively never-due.
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        let published_records = self.snapshot().graph().record_count();
        let guard = self.write.lock();
        ShardStats {
            building: self.id,
            epoch: self.epoch(),
            pending: guard.pending,
            published_records,
            resident_records: guard.model.graph().record_count(),
            absorbed_resident: guard.absorbed_resident(),
            macs: guard.model.graph().mac_count(),
            edges: guard.model.graph().edge_count(),
        }
    }
}

/// A sharded serving fleet: one [`Shard`] per building plus a
/// [`RouteIndex`] over their published snapshots.
/// See the `fleet` module docs for the architecture.
///
/// # Examples
///
/// ```
/// use grafics_core::{Grafics, GraficsConfig, GraficsFleet, RetentionPolicy};
/// use grafics_data::BuildingModel;
/// use grafics_types::BuildingId;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let mut fleet = GraficsFleet::new();
/// fleet.set_retention(RetentionPolicy::FifoBudget(256));
/// for (i, name) in ["north", "south"].iter().enumerate() {
///     let ds = BuildingModel::office(name, 2).with_records_per_floor(30).simulate(&mut rng);
///     let train = ds.with_label_budget(4, &mut rng);
///     let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
///     fleet.add_shard(BuildingId(i as u32), model).unwrap();
/// }
/// // Records route to their building by AP overlap; absorb and serve
/// // take &self and may run concurrently.
/// let probe = BuildingModel::office("south", 2).with_records_per_floor(1)
///     .simulate(&mut rng).samples()[0].record.clone();
/// let pred = fleet.serve(&probe, &mut rng).unwrap();
/// assert_eq!(pred.building, BuildingId(1));
/// ```
pub struct GraficsFleet {
    /// Sorted ascending by id; ids unique.
    shards: Vec<Arc<Shard>>,
    /// The routing rule; persisted in the manifest.
    router_kind: RouterKind,
    /// The route index over the published snapshots, keyed by the shard
    /// epochs it was built from (shards are only ever added, which
    /// changes the key's length). It holds no snapshot, so a publish
    /// frees the superseded one.
    route_cache: RwLock<Option<(Vec<u64>, Arc<RouteIndex>)>>,
    /// Applied to every shard ([`GraficsFleet::add_shard`] and
    /// [`GraficsFleet::set_retention`]); persisted in the manifest.
    retention: RetentionPolicy,
    /// Background cadence for a serving daemon; persisted in the
    /// manifest. The fleet itself never acts on it.
    maintenance: MaintenancePolicy,
    /// WAL durability; persisted in the manifest and enacted by
    /// [`GraficsFleet::recover`], which attaches the writers.
    durability: DurabilityPolicy,
    /// Deployment-level serving overrides, applied to every session the
    /// fleet opens; persisted in the manifest.
    serving: ServingPolicy,
    /// Process-wide serving counters, drained from every session the
    /// fleet opens (`&self` serve paths bump them atomically).
    metrics: FleetServeMetrics,
}

/// Atomic accumulator behind [`GraficsFleet::serve_counters`]: serve
/// paths take `&self` and may run on many threads, so sessions drain
/// their local [`ServeCounters`] here with relaxed adds.
#[derive(Debug, Default)]
struct FleetServeMetrics {
    refine_samples: AtomicU64,
    early_stops: AtomicU64,
    f32_fallbacks: AtomicU64,
}

impl FleetServeMetrics {
    fn flush(&self, c: ServeCounters) {
        if c.refine_samples != 0 {
            self.refine_samples
                .fetch_add(c.refine_samples, Ordering::Relaxed);
        }
        if c.early_stops != 0 {
            self.early_stops.fetch_add(c.early_stops, Ordering::Relaxed);
        }
        if c.f32_fallbacks != 0 {
            self.f32_fallbacks
                .fetch_add(c.f32_fallbacks, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            refine_samples: self.refine_samples.load(Ordering::Relaxed),
            early_stops: self.early_stops.load(Ordering::Relaxed),
            f32_fallbacks: self.f32_fallbacks.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for GraficsFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraficsFleet")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl Default for GraficsFleet {
    fn default() -> Self {
        GraficsFleet::new()
    }
}

impl GraficsFleet {
    /// An empty fleet with the [`FleetManifest::default`] configuration:
    /// [`RouterKind::Overlap`], [`RetentionPolicy::KeepAll`], no
    /// maintenance.
    #[must_use]
    pub fn new() -> Self {
        GraficsFleet::with_manifest(FleetManifest::default())
    }

    /// An empty fleet configured by `manifest`.
    #[must_use]
    pub fn with_manifest(manifest: FleetManifest) -> Self {
        GraficsFleet {
            shards: Vec::new(),
            router_kind: manifest.router,
            route_cache: RwLock::new(None),
            retention: manifest.retention,
            maintenance: manifest.maintenance,
            durability: manifest.durability,
            serving: manifest.serving.unwrap_or_default(),
            metrics: FleetServeMetrics::default(),
        }
    }

    /// The manifest describing this fleet's configuration — what
    /// [`GraficsFleet::save_dir`] writes to `fleet.json`.
    #[must_use]
    pub fn manifest(&self) -> FleetManifest {
        FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            router: self.router_kind,
            retention: self.retention,
            maintenance: self.maintenance,
            durability: self.durability,
            serving: (self.serving != ServingPolicy::default()).then_some(self.serving),
        }
    }

    /// The retention policy applied to the fleet's shards.
    #[must_use]
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Replaces the fleet-wide retention policy: future shards are
    /// created with it, and every existing shard enforces the new bound
    /// on its backlog immediately ([`Shard::set_retention`]).
    pub fn set_retention(&mut self, retention: RetentionPolicy) {
        self.retention = retention;
        for shard in &self.shards {
            shard.set_retention(retention);
        }
    }

    /// The background maintenance cadence (consumed by a serving daemon;
    /// the fleet itself never acts on it).
    #[must_use]
    pub fn maintenance(&self) -> MaintenancePolicy {
        self.maintenance
    }

    /// Replaces the maintenance cadence recorded (and persisted) with
    /// this fleet.
    pub fn set_maintenance(&mut self, maintenance: MaintenancePolicy) {
        self.maintenance = maintenance;
    }

    /// The deployment-level serving policy (refinement budget, matching
    /// precision) applied to every session this fleet opens.
    #[must_use]
    pub fn serving(&self) -> ServingPolicy {
        self.serving
    }

    /// Replaces the serving policy. Takes effect on the next serve call;
    /// absorb paths are unaffected (they always run the fixed budget so
    /// WAL replay streams never re-roll).
    pub fn set_serving(&mut self, serving: ServingPolicy) {
        self.serving = serving;
    }

    /// A snapshot of the process-wide serving counters, aggregated from
    /// every session this fleet has opened (single serves and batch
    /// workers alike).
    #[must_use]
    pub fn serve_counters(&self) -> ServeCounters {
        self.metrics.snapshot()
    }

    /// `(p10, p50)` of the most recent `window` served floor margins
    /// **per shard**, pooled across the fleet into one distribution, or
    /// `None` before anything was served. This is the fleet-wide drift
    /// gauge exported as `grafics_margin_p10` / `grafics_margin_p50` on
    /// the serve tier's `/metrics`.
    #[must_use]
    pub fn margin_quantiles(&self, window: usize) -> Option<(f64, f64)> {
        let mut pooled: Vec<f64> = Vec::new();
        for shard in &self.shards {
            pooled.extend(shard.recent_margins(window));
        }
        if pooled.is_empty() {
            return None;
        }
        pooled.sort_by(f64::total_cmp);
        let n = pooled.len();
        Some((
            pooled[quantile_rank(n, 0.10)],
            pooled[quantile_rank(n, 0.50)],
        ))
    }

    /// The WAL durability policy recorded (and persisted) with this
    /// fleet.
    #[must_use]
    pub fn durability(&self) -> DurabilityPolicy {
        self.durability
    }

    /// Replaces the durability policy recorded in the manifest. Takes
    /// effect on the next [`GraficsFleet::recover`] (which attaches the
    /// writers) — an already-attached WAL keeps its policy.
    pub fn set_durability(&mut self, durability: DurabilityPolicy) {
        self.durability = durability;
    }

    /// `true` if every shard has a WAL attached (a recovered fleet with
    /// a non-[`DurabilityPolicy::Off`] manifest).
    #[must_use]
    pub fn wal_attached(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|s| s.wal_attached())
    }

    /// WAL counters summed over all shards (zeros when no WAL is
    /// attached).
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for shard in &self.shards {
            if let Some(s) = shard.wal_stats() {
                total.appends += s.appends;
                total.fsyncs += s.fsyncs;
                total.tail_bytes += s.tail_bytes;
            }
        }
        total
    }

    /// The first sticky WAL error across shards, if any durability
    /// pipeline died.
    #[must_use]
    pub fn wal_error(&self) -> Option<String> {
        self.shards.iter().find_map(|s| s.wal_error())
    }

    /// Flushes and fsyncs every shard's WAL tail — the graceful-shutdown
    /// barrier ([`Shard::drain_wal`] per shard).
    ///
    /// # Errors
    ///
    /// The first [`FleetError::Durability`] encountered.
    pub fn drain_wal(&self) -> Result<(), FleetError> {
        for shard in &self.shards {
            shard.drain_wal()?;
        }
        Ok(())
    }

    /// Replaces the routing rule (persisted in the manifest).
    pub fn set_router(&mut self, kind: RouterKind) {
        self.router_kind = kind;
        *self.route_cache.write() = None;
    }

    /// Migrates a pre-fleet single-building model into a one-shard fleet
    /// (building `b0`, [`RetentionPolicy::KeepAll`] — the monolith's
    /// semantics, losslessly). Pair with [`Grafics::load_json`] to adopt
    /// a model file written before the fleet engine existed.
    #[must_use]
    pub fn from_model(model: Grafics) -> Self {
        let mut fleet = GraficsFleet::new();
        fleet
            .add_shard(BuildingId(0), model)
            .expect("empty fleet has no duplicate");
        fleet
    }

    /// Adds a shard for `id` under the fleet-wide retention policy
    /// ([`GraficsFleet::retention`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateBuilding`] if a shard with this id exists.
    pub fn add_shard(&mut self, id: BuildingId, model: Grafics) -> Result<&Arc<Shard>, FleetError> {
        let at = match self.shards.binary_search_by_key(&id, |s| s.id()) {
            Ok(_) => return Err(FleetError::DuplicateBuilding(id)),
            Err(at) => at,
        };
        self.shards
            .insert(at, Arc::new(Shard::new(id, model, self.retention)));
        Ok(&self.shards[at])
    }

    /// The shards, sorted ascending by building id.
    #[must_use]
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard for `id`, if present.
    #[must_use]
    pub fn shard(&self, id: BuildingId) -> Option<&Arc<Shard>> {
        self.shards
            .binary_search_by_key(&id, |s| s.id())
            .ok()
            .map(|i| &self.shards[i])
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if the fleet has no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The current published snapshots, sorted ascending by building id.
    #[must_use]
    pub fn snapshots(&self) -> Vec<(BuildingId, Arc<Grafics>)> {
        self.shards.iter().map(|s| (s.id(), s.snapshot())).collect()
    }

    /// The published snapshots (ascending by id) and a route index built
    /// from exactly those snapshots: the cached index is reused only
    /// while every shard's epoch matches.
    fn published(&self) -> (Vec<(BuildingId, Arc<Grafics>)>, Arc<RouteIndex>) {
        let mut epochs = Vec::with_capacity(self.shards.len());
        let snapshots: Vec<(BuildingId, Arc<Grafics>)> = self
            .shards
            .iter()
            .map(|shard| {
                // Publish bumps the epoch under the snapshot lock, so
                // the pair read under it always matches.
                let snapshot = shard.snapshot.read();
                epochs.push(shard.epoch());
                (shard.id(), snapshot.clone())
            })
            .collect();
        if let Some(index) = self.cached_index(&epochs) {
            return (snapshots, index);
        }
        let inventories = snapshots.iter().map(|(id, snapshot)| {
            let graph = snapshot.graph();
            (*id, graph.weight_function(), graph.macs())
        });
        let index = Arc::new(RouteIndex::new(self.router_kind, inventories));
        *self.route_cache.write() = Some((epochs, Arc::clone(&index)));
        (snapshots, index)
    }

    /// The cached route index, if it was built at exactly `epochs`.
    fn cached_index(&self, epochs: &[u64]) -> Option<Arc<RouteIndex>> {
        let cache = self.route_cache.read();
        let (built, index) = cache.as_ref()?;
        (built.as_slice() == epochs).then(|| Arc::clone(index))
    }

    /// Routes one record (no serving): which building would take it?
    #[must_use]
    pub fn route(&self, record: &SignalRecord) -> Option<BuildingId> {
        // Routing alone needs no snapshot: an index cached at the current
        // epochs is current.
        let epochs: Vec<u64> = self.shards.iter().map(|s| s.epoch()).collect();
        let index = self
            .cached_index(&epochs)
            .unwrap_or_else(|| self.published().1);
        index.route(record)
    }

    /// Routes and serves one record against the published snapshots.
    ///
    /// # Errors
    ///
    /// - [`FleetError::NoRoute`] if no shard overlaps the record;
    /// - [`FleetError::Model`] on embedding failure in the routed shard.
    pub fn serve<R: Rng + ?Sized>(
        &self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<FleetPrediction, FleetError> {
        let (snapshots, index) = self.published();
        let slot = index.route_slot(record).ok_or(FleetError::NoRoute)?;
        let mut server = GraficsServer::with_policy(&*snapshots[slot].1, self.serving);
        let result = server.infer_with_margin(record, rng);
        self.metrics.flush(server.take_counters());
        Ok(self.routed(slot, result?))
    }

    /// The answer of the shard in `slot` to a routed record; records its
    /// margin.
    fn routed(&self, slot: usize, (pred, margin): (Prediction, f64)) -> FleetPrediction {
        self.shards[slot].record_margin(margin);
        FleetPrediction {
            building: self.shards[slot].id(),
            floor: pred.floor,
            distance: pred.distance,
            margin,
        }
    }

    /// Routes and serves a whole batch on `threads` workers. Routing runs
    /// once, serially, against one consistent snapshot view; record `i`
    /// then embeds with the [`record_rng`](crate::record_rng) stream of
    /// `(seed, i)` on its routed shard. The output is a pure function of
    /// `(snapshots, records, seed)` — independent of `threads`, and
    /// bit-identical to serving each record on its shard serially.
    /// Unroutable or failing records map to `None`.
    #[must_use]
    pub fn serve_batch(
        &self,
        records: &[SignalRecord],
        seed: u64,
        threads: usize,
    ) -> Vec<Option<FleetPrediction>> {
        self.serve_batch_impl(records, seed, threads, None)
    }

    /// [`GraficsFleet::serve_batch`] with *explicit* per-record stream
    /// indices: record `k` embeds with `record_rng(seed, indices[k])`
    /// instead of `record_rng(seed, k)`. This lets a router tier split
    /// one logical batch across backend processes and still reproduce
    /// the single-process answer bit-for-bit — each backend serves its
    /// sub-batch with the records' *original* positions.
    /// `serve_batch(records, s, t)` equals
    /// `serve_batch_indexed(records, &[0, 1, ..], s, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != records.len()`.
    #[must_use]
    pub fn serve_batch_indexed(
        &self,
        records: &[SignalRecord],
        indices: &[u64],
        seed: u64,
        threads: usize,
    ) -> Vec<Option<FleetPrediction>> {
        assert_eq!(
            indices.len(),
            records.len(),
            "one stream index per record required"
        );
        self.serve_batch_impl(records, seed, threads, Some(indices))
    }

    fn serve_batch_impl(
        &self,
        records: &[SignalRecord],
        seed: u64,
        threads: usize,
        indices: Option<&[u64]>,
    ) -> Vec<Option<FleetPrediction>> {
        let mut out: Vec<Option<FleetPrediction>> = vec![None; records.len()];
        if records.is_empty() || self.shards.is_empty() {
            return out;
        }
        let (snapshots, index) = self.published();
        // Per-record RNG stream indices: positional by default, caller
        // supplied for router-tier sub-batches.
        let streams: Vec<usize> = match indices {
            Some(idx) => idx
                .iter()
                .map(|i| usize::try_from(*i).unwrap_or(usize::MAX))
                .collect(),
            None => (0..records.len()).collect(),
        };
        // Deterministic serial routing pass: shard index per record.
        let routes: Vec<Option<usize>> = records.iter().map(|r| index.route_slot(r)).collect();

        let serve_chunk = |record_chunk: &[SignalRecord],
                           stream_chunk: &[usize],
                           route_chunk: &[Option<usize>],
                           out_chunk: &mut [Option<FleetPrediction>]| {
            // One lazily-opened session per shard, reused across the
            // chunk so scratch buffers stay warm. Sessions *borrow* the
            // batch's snapshot vector (it outlives the worker scope) —
            // no per-worker `Arc` clone, and every worker serves the
            // same frozen epoch by construction.
            let mut sessions: Vec<Option<GraficsServer<&Grafics>>> =
                (0..snapshots.len()).map(|_| None).collect();
            for ((record, stream), (route, slot)) in record_chunk
                .iter()
                .zip(stream_chunk)
                .zip(route_chunk.iter().zip(out_chunk))
            {
                let Some(sidx) = *route else {
                    continue;
                };
                let server = sessions[sidx].get_or_insert_with(|| {
                    GraficsServer::with_policy(&*snapshots[sidx].1, self.serving)
                });
                let mut rng = record_rng(seed, *stream);
                *slot = server
                    .infer_with_margin(record, &mut rng)
                    .ok()
                    .map(|answer| self.routed(sidx, answer));
            }
            let mut counters = ServeCounters::default();
            for server in sessions.iter_mut().flatten() {
                counters.merge(server.take_counters());
            }
            self.metrics.flush(counters);
        };
        let workers = threads.clamp(1, records.len());
        if workers == 1 {
            serve_chunk(records, &streams, &routes, &mut out);
            return out;
        }
        let chunk = records.len().div_ceil(workers);
        rayon::scope(|scope| {
            for (((record_chunk, stream_chunk), route_chunk), out_chunk) in records
                .chunks(chunk)
                .zip(streams.chunks(chunk))
                .zip(routes.chunks(chunk))
                .zip(out.chunks_mut(chunk))
            {
                let serve_chunk = &serve_chunk;
                scope.spawn(move |_| {
                    serve_chunk(record_chunk, stream_chunk, route_chunk, out_chunk);
                });
            }
        });
        out
    }

    /// Routes one record and absorbs it into that shard's write side.
    ///
    /// # Errors
    ///
    /// - [`FleetError::NoRoute`] if no shard overlaps the record;
    /// - [`FleetError::Model`] on absorption failure in the routed shard.
    pub fn absorb<R: Rng + ?Sized>(
        &self,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<(BuildingId, RecordId), FleetError> {
        let id = self.route(record).ok_or(FleetError::NoRoute)?;
        let rid = self.absorb_to(id, record, rng)?;
        Ok((id, rid))
    }

    /// Absorbs into a named shard, bypassing the router (the building is
    /// known, e.g. from the client's coarse location).
    ///
    /// # Errors
    ///
    /// - [`FleetError::UnknownBuilding`];
    /// - [`FleetError::Model`] on absorption failure.
    pub fn absorb_to<R: Rng + ?Sized>(
        &self,
        id: BuildingId,
        record: &SignalRecord,
        rng: &mut R,
    ) -> Result<RecordId, FleetError> {
        let shard = self.shard(id).ok_or(FleetError::UnknownBuilding(id))?;
        Ok(shard.absorb(record, rng)?)
    }

    /// Routes one record and absorbs it durably on the deterministic
    /// stream `record_rng(seed, rng_index)` (see
    /// [`Shard::absorb_durable`]). Without an attached WAL this is
    /// exactly [`GraficsFleet::absorb`] on that stream.
    ///
    /// # Errors
    ///
    /// - [`FleetError::NoRoute`] if no shard overlaps the record;
    /// - [`FleetError::Model`] on absorption failure;
    /// - [`FleetError::Durability`] if the shard's WAL is poisoned.
    pub fn absorb_durable(
        &self,
        record: &SignalRecord,
        seed: u64,
        rng_index: u64,
    ) -> Result<(BuildingId, RecordId), FleetError> {
        let id = self.route(record).ok_or(FleetError::NoRoute)?;
        let rid = self.absorb_to_durable(id, record, seed, rng_index)?;
        Ok((id, rid))
    }

    /// Durable [`GraficsFleet::absorb_to`]: absorbs into a named shard on
    /// the deterministic stream `record_rng(seed, rng_index)`, journaling
    /// the absorb if a WAL is attached.
    ///
    /// # Errors
    ///
    /// - [`FleetError::UnknownBuilding`];
    /// - [`FleetError::Model`] on absorption failure;
    /// - [`FleetError::Durability`] if the shard's WAL is poisoned.
    pub fn absorb_to_durable(
        &self,
        id: BuildingId,
        record: &SignalRecord,
        seed: u64,
        rng_index: u64,
    ) -> Result<RecordId, FleetError> {
        let shard = self.shard(id).ok_or(FleetError::UnknownBuilding(id))?;
        shard.absorb_durable(record, seed, rng_index)
    }

    /// Publishes every shard (see [`Shard::publish`]).
    pub fn publish_all(&self) {
        for shard in &self.shards {
            shard.publish();
        }
    }

    /// Fleet-wide statistics (per shard, sorted ascending by building
    /// id) — the shared serializable shape behind `grafics fleet stat`
    /// and the HTTP `/v1/stat` endpoint.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            shards: self.shards.iter().map(|s| s.stats()).collect(),
        }
    }

    /// Saves the fleet under `dir`: a `fleet.json` manifest (router
    /// choice, retention policy, maintenance cadence — see
    /// [`FleetManifest`]) plus every shard's **write-side** model (the
    /// most complete state, including unpublished absorbs) as
    /// `shard-<id>.json`. Call [`GraficsFleet::publish_all`] first if the
    /// published and saved states must coincide.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO/serde error.
    pub fn save_dir<P: AsRef<Path>>(&self, dir: P) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let manifest =
            serde_json::to_string_pretty(&self.manifest()).map_err(std::io::Error::other)?;
        std::fs::write(dir.join(FLEET_MANIFEST_FILE), manifest)?;
        for shard in &self.shards {
            let path = dir.join(format!("shard-{}.json", shard.id().0));
            shard.with_write_model(|m| m.save_json(&path))?;
        }
        Ok(())
    }

    /// Loads a fleet from a directory written by
    /// [`GraficsFleet::save_dir`] (or assembled by `grafics fleet
    /// train`): router, retention, and maintenance cadence come from the
    /// `fleet.json` manifest, with no runtime flags needed. A PR-3-era
    /// directory carrying only `shard-<id>.json` files migrates
    /// losslessly: it loads with [`FleetManifest::default`], exactly the
    /// configuration the old loader hard-wired.
    ///
    /// Shard files decode on up to `available_parallelism` threads, one
    /// file per thread at a time; shards are added in id order.
    ///
    /// # Errors
    ///
    /// IO/serde errors (including a malformed manifest; with several bad
    /// shard files, the error of the lowest id), or `InvalidData` if
    /// `dir` holds no shard files.
    pub fn load_dir<P: AsRef<Path>>(dir: P) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        let manifest = read_manifest(dir)?;
        let mut fleet = GraficsFleet::with_manifest(manifest);
        let mut ids: Vec<(u32, std::path::PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            ids.push((id, entry.path()));
        }
        ids.sort_unstable_by_key(|&(id, _)| id);
        for (&(id, _), model) in ids.iter().zip(load_models(&ids)) {
            fleet
                .add_shard(BuildingId(id), model?)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        if fleet.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("no shard-<id>.json files under {}", dir.display()),
            ));
        }
        Ok(fleet)
    }

    /// Crash recovery: loads each shard's last checkpoint (falling back
    /// to its `shard-<id>.json` model for pre-WAL directories), replays
    /// the WAL tail on the deterministic per-entry RNG streams
    /// (tolerating a torn final line and skipping entries below the
    /// checkpoint watermark), and returns the fleet together with a
    /// [`RecoveryReport`].
    ///
    /// Because absorption is a pure function of `(model, record, rng
    /// stream)`, the recovered write side is **bit-identical** to a
    /// never-crashed fleet that absorbed the same durable prefix — the
    /// property the `wal` integration tests pin with the sampler-parity
    /// machinery.
    ///
    /// When the manifest's [`DurabilityPolicy`] is not `Off`, every
    /// shard comes back with a WAL attached and freshly compacted
    /// (checkpointed + truncated), so serving can resume immediately;
    /// resume the absorb sequence at
    /// [`RecoveryReport::next_rng_index`] so RNG streams are never
    /// reused.
    ///
    /// # Errors
    ///
    /// IO errors; `InvalidData` for a corrupt checkpoint, a WAL with a
    /// sequence gap, or a replay failure that cannot have happened
    /// pre-crash.
    pub fn recover<P: AsRef<Path>>(dir: P) -> std::io::Result<(Self, RecoveryReport)> {
        GraficsFleet::recover_with(Arc::new(StdWalFs), dir)
    }

    /// [`GraficsFleet::recover`] with an injectable [`WalFs`] for the
    /// re-attached writers (fault-injection tests crash recovery's own
    /// compaction through this).
    pub fn recover_with<P: AsRef<Path>>(
        fs: Arc<dyn WalFs>,
        dir: P,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        let manifest = read_manifest(dir)?;
        let mut fleet = GraficsFleet::with_manifest(manifest);
        let mut report = RecoveryReport::default();

        let mut ids: BTreeSet<u32> = BTreeSet::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let id = name
                .strip_prefix("shard-")
                .and_then(|n| n.strip_suffix(".json"))
                .or_else(|| {
                    name.strip_prefix("checkpoint-")
                        .and_then(|n| n.strip_suffix(".json"))
                })
                .and_then(|n| n.parse::<u32>().ok());
            if let Some(id) = id {
                ids.insert(id);
            }
        }
        if ids.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("no shard or checkpoint files under {}", dir.display()),
            ));
        }

        for id in ids {
            let building = BuildingId(id);
            let (shard, watermark, mut next_rng, from_checkpoint) =
                match wal::read_checkpoint(dir, id)? {
                    Some(doc) => {
                        let by_floor: BTreeMap<FloorId, VecDeque<RecordId>> = doc
                            .by_floor
                            .into_iter()
                            .map(|b| (b.floor, VecDeque::from(b.records)))
                            .collect();
                        let shard = Shard::restore(
                            building,
                            doc.model,
                            manifest.retention,
                            VecDeque::from(doc.absorbed),
                            by_floor,
                            doc.pending,
                        );
                        (shard, doc.watermark, doc.next_rng, true)
                    }
                    None => {
                        let model = Grafics::load_json(dir.join(format!("shard-{id}.json")))?;
                        let shard = Shard::restore(
                            building,
                            model,
                            manifest.retention,
                            VecDeque::new(),
                            BTreeMap::new(),
                            0,
                        );
                        (shard, 0, 0, false)
                    }
                };

            let parsed = wal::read_wal(dir, id);
            let mut expected = watermark;
            let mut replayed = 0u64;
            let mut skipped = 0u64;
            for entry in &parsed.entries {
                if entry.seq < expected {
                    // The post-checkpoint truncation never ran; these
                    // entries are already inside the checkpoint model.
                    skipped += 1;
                    continue;
                }
                if entry.seq > expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "wal-{id}.jsonl: sequence gap (entry {}, expected {expected})",
                            entry.seq
                        ),
                    ));
                }
                let mut rng =
                    record_rng(entry.seed, usize::try_from(entry.rng).unwrap_or(usize::MAX));
                shard.absorb(&entry.record, &mut rng).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("wal-{id}.jsonl: replaying entry {}: {e}", entry.seq),
                    )
                })?;
                expected += 1;
                replayed += 1;
                next_rng = next_rng.max(entry.rng + 1);
            }

            if !manifest.durability.is_off() {
                shard.attach_wal(
                    Arc::clone(&fs),
                    dir,
                    manifest.durability,
                    expected,
                    next_rng,
                )?;
                // Compact immediately: the checkpoint absorbs the replay
                // and the truncation clears torn bytes and stale
                // entries, leaving a clean appendable log.
                shard
                    .checkpoint_now()
                    .map_err(|e| std::io::Error::other(format!("shard {id}: compaction: {e}")))?;
            }

            report.next_rng_index = report.next_rng_index.max(next_rng);
            report.shards.push(ShardRecovery {
                building,
                from_checkpoint,
                watermark,
                replayed,
                skipped,
                torn: parsed.torn,
            });
            fleet.push_shard(Arc::new(shard))?;
        }
        Ok((fleet, report))
    }

    /// Inserts an already-built shard, keeping the id ordering invariant.
    fn push_shard(&mut self, shard: Arc<Shard>) -> std::io::Result<()> {
        let at = match self.shards.binary_search_by_key(&shard.id(), |s| s.id()) {
            Ok(_) => {
                return Err(std::io::Error::other(
                    FleetError::DuplicateBuilding(shard.id()).to_string(),
                ))
            }
            Err(at) => at,
        };
        self.shards.insert(at, shard);
        Ok(())
    }
}

/// Decodes the model files of `shards` (sorted by id) on up to
/// `available_parallelism` scoped threads, returning the results in
/// `shards` order. Each worker reads and decodes one file at a time, so
/// at most one file's text per worker is in memory at once, and each
/// model is [`rehome`]d on the calling thread.
fn load_models(shards: &[(u32, PathBuf)]) -> Vec<std::io::Result<Grafics>> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(shards.len());
    // A work counter only: each result reaches this thread through the
    // channel, so no ordering beyond `Relaxed` is needed.
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<std::io::Result<Grafics>>> = (0..shards.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let (done, results) = std::sync::mpsc::channel();
        for _ in 0..workers {
            let done = done.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, path)) = shards.get(i) else {
                    return;
                };
                if done.send((i, Grafics::load_json(path))).is_err() {
                    return;
                }
            });
        }
        drop(done);
        for (i, model) in results {
            out[i] = Some(model.map(rehome));
        }
    });
    out.into_iter()
        .map(|model| model.expect("every shard index is claimed by one worker"))
        .collect()
}

/// A deep copy of `model` allocated on the calling thread, the worker's
/// copy dropped. With a per-thread-arena allocator (glibc), memory a
/// short-lived worker allocates stays in that worker's arena; the next
/// load's workers may draw other arenas, so repeated loads in one
/// process (a second server's cold start next to a running one) would
/// spread fleets over arenas that are never trimmed, and peak RSS would
/// grow with each load.
fn rehome(model: Grafics) -> Grafics {
    model.clone()
}

/// Reads `fleet.json`, falling back to the version-1 shape (no
/// `durability` field — loads as [`DurabilityPolicy::Off`]) and to
/// [`FleetManifest::default`] when the file is absent. The vendored
/// serde derive has no `#[serde(default)]`, so backward compatibility is
/// explicit, mirroring `Grafics::load_json`'s legacy fallback.
///
/// Public so front ends can decide between [`GraficsFleet::load_dir`]
/// and [`GraficsFleet::recover`] without loading every shard first.
///
/// # Errors
///
/// Propagates the read error; a malformed manifest is `InvalidData`.
pub fn read_manifest<P: AsRef<Path>>(dir: P) -> std::io::Result<FleetManifest> {
    read_manifest_at(dir.as_ref())
}

fn read_manifest_at(dir: &Path) -> std::io::Result<FleetManifest> {
    let path = dir.join(FLEET_MANIFEST_FILE);
    let json = match std::fs::read_to_string(&path) {
        Ok(json) => json,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(FleetManifest::default()),
        Err(e) => return Err(e),
    };
    match serde_json::from_str::<FleetManifest>(&json) {
        Ok(manifest) => Ok(manifest),
        Err(e) => {
            #[derive(Deserialize)]
            struct FleetManifestV1 {
                version: u32,
                router: RouterKind,
                retention: RetentionPolicy,
                maintenance: MaintenancePolicy,
            }
            let v1 = serde_json::from_str::<FleetManifestV1>(&json).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            Ok(FleetManifest {
                version: v1.version,
                router: v1.router,
                retention: v1.retention,
                maintenance: v1.maintenance,
                durability: DurabilityPolicy::Off,
                serving: None,
            })
        }
    }
}

/// One backend process in a routed fleet: a human-readable name plus the
/// `host:port` its `grafics fleet serve --http` listener answers on.
/// Which buildings it owns is *not* declared here — the router discovers
/// (and re-discovers) that from the backend's own `/v1/route_table`, so
/// the manifest cannot drift from reality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Stable backend name, used in `/metrics` labels and `/v1/stat`.
    pub name: String,
    /// `host:port` of the backend's HTTP listener.
    pub addr: String,
}

/// The router-tier manifest (`router.json`): the backend registry plus
/// the health/breaker/admission policies. Lives next to `fleet.json` in
/// a fleet directory, or anywhere the operator points
/// `grafics fleet route --manifest` at.
///
/// `auth_token` is optional; absent means the write endpoints are open
/// (the vendored serde treats a missing field as `null`, and `Option`
/// deserializes `null` as `None`, so older manifests load unchanged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterManifest {
    /// Manifest format version (currently 1).
    pub version: u32,
    /// The backend registry.
    pub backends: Vec<BackendSpec>,
    /// Active health-probe policy.
    pub health: HealthPolicy,
    /// Per-backend circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Per-client admission control.
    pub rate_limit: RateLimitPolicy,
    /// Bearer token required on `/v1/absorb` and `/v1/publish`
    /// (router *and* backends); `None` leaves writes open.
    pub auth_token: Option<String>,
}

impl Default for RouterManifest {
    fn default() -> Self {
        RouterManifest {
            version: ROUTER_MANIFEST_VERSION,
            backends: Vec::new(),
            health: HealthPolicy::default(),
            breaker: BreakerPolicy::default(),
            rate_limit: RateLimitPolicy::Off,
            auth_token: None,
        }
    }
}

/// Current [`RouterManifest::version`].
pub const ROUTER_MANIFEST_VERSION: u32 = 1;

/// File name of the router manifest inside a fleet directory.
const ROUTER_MANIFEST_FILE: &str = "router.json";

/// Reads `router.json` from `dir`.
///
/// # Errors
///
/// Propagates the read error (including `NotFound` — unlike
/// [`read_manifest`] there is no useful default: a router with zero
/// backends serves nothing); a malformed manifest is `InvalidData`.
pub fn read_router_manifest<P: AsRef<Path>>(dir: P) -> std::io::Result<RouterManifest> {
    let path = dir.as_ref().join(ROUTER_MANIFEST_FILE);
    let json = std::fs::read_to_string(&path)?;
    serde_json::from_str::<RouterManifest>(&json).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Writes `router.json` into `dir` (pretty-printed, atomic via
/// write-then-rename so a crashed write never leaves a torn manifest).
///
/// # Errors
///
/// Propagates the write/rename error.
pub fn write_router_manifest<P: AsRef<Path>>(
    dir: P,
    manifest: &RouterManifest,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    let json = serde_json::to_string_pretty(manifest).map_err(std::io::Error::other)?;
    let tmp = dir.join(format!("{ROUTER_MANIFEST_FILE}.tmp"));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, dir.join(ROUTER_MANIFEST_FILE))
}

/// What [`GraficsFleet::recover`] did for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Which building.
    pub building: BuildingId,
    /// `true` if a checkpoint was found (`false`: legacy `shard-<id>.json`
    /// model, empty retention queues).
    pub from_checkpoint: bool,
    /// The checkpoint's WAL watermark (entries already in the model).
    pub watermark: u64,
    /// WAL entries replayed on top of the checkpoint.
    pub replayed: u64,
    /// Stale sub-watermark entries skipped (a crash between checkpoint
    /// and truncation leaves these behind).
    pub skipped: u64,
    /// `true` if the WAL ended in a torn line (dropped).
    pub torn: bool,
}

/// The outcome of [`GraficsFleet::recover`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Per-shard details, ascending by building id.
    pub shards: Vec<ShardRecovery>,
    /// One past the highest process-wide absorb index ever journalled —
    /// resume the serve tier's absorb sequence here so no RNG stream is
    /// reused.
    pub next_rng_index: u64,
}

impl RecoveryReport {
    /// Total WAL entries replayed across shards.
    #[must_use]
    pub fn total_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    /// `true` if any shard's WAL ended in a torn line.
    #[must_use]
    pub fn any_torn(&self) -> bool {
        self.shards.iter().any(|s| s.torn)
    }
}
