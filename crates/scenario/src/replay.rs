//! The replay harness: drive a trained fleet through a scenario epoch
//! by epoch — in-process, or through a real `grafics-serve` HTTP server
//! — and emit the accuracy-over-time [`ScenarioReport`].
//!
//! Both drivers share the same world evolution, the same deterministic
//! absorb sequence (`record_rng(seed, seq)` with one process-wide
//! counter, exactly the serve tier's `/v1/absorb` numbering) and the
//! same per-epoch probe seeds, so in-process predictions and HTTP
//! predictions are bit-identical answers to the same questions.

use crate::model::Scenario;
use crate::world::{EpochChanges, ScenarioWorld};
use grafics_core::{Grafics, GraficsConfig, GraficsFleet, RetentionPolicy};
use grafics_serve::{BatchBody, HttpClient, HttpServer, ServeConfig};
use grafics_types::{BuildingId, FloorId, MacAddr, RefreshTrigger, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How the replay enacts write-side refreshes at each epoch boundary.
/// Every mode publishes all shards every epoch (snapshot freshness is
/// held equal); the modes differ only in *when they pay for a
/// re-train* — which is exactly what the scenario matrix compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshMode {
    /// Publish only; never refresh. The staleness baseline.
    None,
    /// Blind fixed cadence: refresh every shard each `k`-th epoch.
    Cadence(u32),
    /// Drift-triggered: refresh a shard only when its served-margin
    /// window says confidence degraded
    /// ([`Shard::margin_refresh_due`](grafics_core::Shard::margin_refresh_due)).
    MarginTrigger(RefreshTrigger),
}

impl RefreshMode {
    /// The mode as a report-friendly string (`none`, `cadence:2`,
    /// `margin:32:0.8`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RefreshMode::None => "none".to_owned(),
            RefreshMode::Cadence(k) => format!("cadence:{k}"),
            RefreshMode::MarginTrigger(RefreshTrigger::MarginDrop { window, ratio }) => {
                format!("margin:{window}:{ratio}")
            }
            #[allow(unreachable_patterns)]
            RefreshMode::MarginTrigger(_) => "margin:?".to_owned(),
        }
    }
}

/// Replay knobs. [`Default`] is the CI-friendly profile: fast training
/// config, single probe thread (bit-exact reports), no refresh.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Master seed: world generation, training, absorb RNG streams and
    /// probe streams all derive from it.
    pub seed: u64,
    /// Labelled samples per floor kept for training (the paper's
    /// few-labels regime).
    pub labels_per_floor: usize,
    /// Worker threads for probe serving. Keep 1 for bit-exact reports:
    /// margin *quantiles* are thread-invariant, but the margin-window
    /// ring's eviction order is not once a shard overflows its ring.
    pub threads: usize,
    /// Retention policy applied to every shard.
    pub retention: RetentionPolicy,
    /// Refresh mode enacted at each epoch boundary.
    pub refresh: RefreshMode,
    /// Training configuration (`None` = [`GraficsConfig::fast`]).
    pub grafics: Option<GraficsConfig>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            seed: 2022,
            labels_per_floor: 4,
            threads: 1,
            retention: RetentionPolicy::KeepAll,
            refresh: RefreshMode::None,
            grafics: None,
        }
    }
}

/// One epoch's scored outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch label from the scenario.
    pub label: String,
    /// Probes generated this epoch.
    pub probes: usize,
    /// Probes that produced a prediction.
    pub served: usize,
    /// Building+floor accuracy over the *generated* probes (an
    /// unserved probe counts as wrong — dropping a record is not a
    /// free pass).
    pub accuracy: f64,
    /// p10 of the served finite floor margins (0 when none).
    pub margin_p10: f64,
    /// p50 of the served finite floor margins (0 when none).
    pub margin_p50: f64,
    /// Records resident across all write sides after the epoch.
    pub resident_records: usize,
    /// Records absorbed this epoch.
    pub absorbed: usize,
    /// Absorb attempts rejected this epoch.
    pub absorb_errors: usize,
    /// MACs the epoch's churn removed from the world.
    pub removed_macs: usize,
    /// Removed MACs actually pruned from write models (the rest were
    /// kept to avoid stranding a record with zero known MACs).
    pub pruned_macs: usize,
    /// Write-side refreshes performed at this epoch's boundary.
    pub refreshes: u64,
    /// Shard publishes performed at this epoch's boundary.
    pub publishes: u64,
}

/// The full accuracy-over-time series for one `(scenario, config)` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed the run derived everything from.
    pub seed: u64,
    /// [`RefreshMode::label`] of the run.
    pub refresh: String,
    /// One entry per scenario epoch, in order.
    pub epochs: Vec<EpochReport>,
}

impl ScenarioReport {
    /// Pretty JSON for saving/sharing (the `--out` artifact).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad report JSON: {e}"))
    }

    /// Total write-side refreshes across the timeline.
    #[must_use]
    pub fn total_refreshes(&self) -> u64 {
        self.epochs.iter().map(|e| e.refreshes).sum()
    }

    /// Mean per-epoch accuracy.
    #[must_use]
    pub fn mean_accuracy(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.accuracy).sum::<f64>() / self.epochs.len() as f64
    }

    /// Worst epoch accuracy — what a drift dip actually costs.
    #[must_use]
    pub fn min_accuracy(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.accuracy)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }
}

/// Outcome of a [`prune_removed_macs`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneOutcome {
    /// MACs removed from the model.
    pub pruned: usize,
    /// MACs kept because removal would strand a record (or the graph
    /// refused the removal).
    pub skipped: usize,
}

/// Prunes churned-away MACs from a write-side model, **skipping any MAC
/// whose removal would leave a neighbouring record with zero known
/// MACs** — a record with no readings left cannot be embedded, routed,
/// or refreshed, so stranding one corrupts the shard for good. MACs the
/// model never knew are ignored (absorbed records may simply not have
/// heard them).
pub fn prune_removed_macs(model: &mut Grafics, macs: &[MacAddr]) -> PruneOutcome {
    let mut out = PruneOutcome::default();
    for &mac in macs {
        let Some(mac_node) = model.graph().mac_node(mac) else {
            continue;
        };
        let strands = model
            .graph()
            .neighbors(mac_node)
            .iter()
            .any(|&(record, _)| model.graph().neighbors(record).len() <= 1);
        if strands || model.remove_ap(mac).is_err() {
            out.skipped += 1;
        } else {
            out.pruned += 1;
        }
    }
    out
}

/// Per-building training seed — the bench harness's stream, so a
/// scenario fleet at seed `s` is the familiar fleet from the smoke
/// benches.
fn building_seed(seed: u64, b: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((b as u64) << 32)
}

/// The probe-serving seed of epoch `e` (both drivers use it verbatim).
fn epoch_seed(seed: u64, e: usize) -> u64 {
    seed ^ (e as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// The world-evolution RNG of epoch `e`.
fn epoch_rng(seed: u64, e: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (e as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generates the world and trains one shard per building on its
/// *initial* layout (the corpus predates all drift).
fn build_world_and_fleet(
    scenario: &Scenario,
    cfg: &ReplayConfig,
) -> Result<(ScenarioWorld, GraficsFleet), String> {
    let mut world_rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let world = ScenarioWorld::new(scenario, &mut world_rng);
    if world.is_empty() {
        return Err("scenario generated no buildings".to_owned());
    }
    let config = cfg.grafics.unwrap_or_else(GraficsConfig::fast);
    let mut fleet = GraficsFleet::new();
    fleet.set_retention(cfg.retention);
    for b in 0..world.len() {
        let mut rng = ChaCha8Rng::seed_from_u64(building_seed(cfg.seed, b));
        let ds = world
            .model(b)
            .simulate_with_layout(world.layout(b), &mut rng)
            .filter_rare_macs(2);
        let train = ds.with_label_budget(cfg.labels_per_floor, &mut rng);
        let model = Grafics::train(&train, &config, &mut rng)
            .map_err(|e| format!("training building {b}: {e}"))?;
        fleet
            .add_shard(BuildingId(b as u32), model)
            .map_err(|e| format!("adding shard {b}: {e}"))?;
    }
    Ok((world, fleet))
}

/// One epoch's deterministic inputs, shared by both drivers.
struct EpochStreams {
    changes: EpochChanges,
    absorbs: Vec<(usize, FloorId, SignalRecord)>,
    probes: Vec<(usize, FloorId, SignalRecord)>,
}

fn epoch_streams(
    world: &mut ScenarioWorld,
    scenario: &Scenario,
    e: usize,
    seed: u64,
) -> EpochStreams {
    let epoch = &scenario.epochs[e];
    let mut rng = epoch_rng(seed, e);
    let changes = world.apply_epoch(&epoch.events, scenario.epochs.len() - e, &mut rng);
    let absorbs = world.gen_stream(epoch.absorb_per_building, &mut rng);
    let probes = world.gen_stream(epoch.probe_per_building, &mut rng);
    EpochStreams {
        changes,
        absorbs,
        probes,
    }
}

/// One prediction in driver-neutral form.
type Flat = Option<(u32, i16, f64)>; // (building, floor, margin)

/// Scores one epoch's probes and fills the serving half of its report.
fn score(
    probes: &[(usize, FloorId, SignalRecord)],
    predictions: &[Flat],
    report: &mut EpochReport,
) {
    let mut served = 0usize;
    let mut hits = 0usize;
    let mut margins: Vec<f64> = Vec::new();
    for ((b, truth, _), pred) in probes.iter().zip(predictions) {
        let Some((building, floor, margin)) = pred else {
            continue;
        };
        served += 1;
        if *building == *b as u32 && *floor == truth.0 {
            hits += 1;
        }
        if margin.is_finite() {
            margins.push(*margin);
        }
    }
    margins.sort_by(f64::total_cmp);
    let q = |q: f64| -> f64 {
        if margins.is_empty() {
            return 0.0;
        }
        let n = margins.len();
        margins[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    };
    report.probes = probes.len();
    report.served = served;
    report.accuracy = if probes.is_empty() {
        0.0
    } else {
        hits as f64 / probes.len() as f64
    };
    report.margin_p10 = q(0.10);
    report.margin_p50 = q(0.50);
}

fn blank_report(label: &str) -> EpochReport {
    EpochReport {
        label: label.to_owned(),
        probes: 0,
        served: 0,
        accuracy: 0.0,
        margin_p10: 0.0,
        margin_p50: 0.0,
        resident_records: 0,
        absorbed: 0,
        absorb_errors: 0,
        removed_macs: 0,
        pruned_macs: 0,
        refreshes: 0,
        publishes: 0,
    }
}

/// Replays `scenario` against an in-process fleet and returns the
/// accuracy-over-time report. Deterministic: the same `(scenario,
/// config)` pair produces a bit-identical [`ScenarioReport`].
///
/// Per epoch: apply events → prune churned MACs from write models
/// ([`prune_removed_macs`]) → absorb the epoch's record stream on the
/// serve tier's deterministic `record_rng(seed, seq)` numbering →
/// enact the [`RefreshMode`] and publish every shard → serve and score
/// the held-out probes (margins recorded by the serve path feed the
/// next epoch's trigger evaluation).
///
/// # Errors
///
/// A message when the preset generates no buildings or training fails.
pub fn replay(scenario: &Scenario, cfg: &ReplayConfig) -> Result<ScenarioReport, String> {
    let (mut world, fleet) = build_world_and_fleet(scenario, cfg)?;
    let mut refresh_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7363_656e_6172_696f); // "scenario"
    let mut absorb_seq: u64 = 0;
    let mut epochs = Vec::with_capacity(scenario.epochs.len());

    for (e, epoch) in scenario.epochs.iter().enumerate() {
        let mut report = blank_report(&epoch.label);
        let streams = epoch_streams(&mut world, scenario, e, cfg.seed);

        // Churn hygiene: drop removed APs from the write models where
        // it is safe to do so.
        report.removed_macs = streams.changes.removed.len();
        for (b, mac) in &streams.changes.removed {
            if let Some(shard) = fleet.shard(BuildingId(*b as u32)) {
                let outcome = shard.with_write_model(|model| prune_removed_macs(model, &[*mac]));
                report.pruned_macs += outcome.pruned;
            }
        }

        // Ingest: the HTTP absorb numbering (one process-wide sequence,
        // bumped per attempt).
        for (b, _, record) in &streams.absorbs {
            let seq = absorb_seq;
            absorb_seq += 1;
            match fleet.absorb_to_durable(BuildingId(*b as u32), record, cfg.seed, seq) {
                Ok(_) => report.absorbed += 1,
                Err(_) => report.absorb_errors += 1,
            }
        }

        // Maintenance boundary: refresh per the mode, then publish all
        // shards (all modes publish equally — the comparison is about
        // refresh cost, not snapshot staleness).
        match cfg.refresh {
            RefreshMode::None => {}
            RefreshMode::Cadence(k) => {
                if k > 0 && (e as u32 + 1).is_multiple_of(k) {
                    for shard in fleet.shards() {
                        if shard.refresh_write_side(&mut refresh_rng).is_ok() {
                            report.refreshes += 1;
                        }
                    }
                }
            }
            RefreshMode::MarginTrigger(trigger) => {
                for shard in fleet.shards() {
                    if shard.margin_refresh_due(trigger)
                        && shard.refresh_write_side(&mut refresh_rng).is_ok()
                    {
                        report.refreshes += 1;
                    }
                }
            }
        }
        fleet.publish_all();
        report.publishes = fleet.len() as u64;

        // Probe and score.
        let records: Vec<SignalRecord> = streams.probes.iter().map(|(_, _, r)| r.clone()).collect();
        let predictions = fleet.serve_batch(&records, epoch_seed(cfg.seed, e), cfg.threads);
        let flat: Vec<Flat> = predictions
            .iter()
            .map(|p| p.as_ref().map(|p| (p.building.0, p.floor.0, p.margin)))
            .collect();
        score(&streams.probes, &flat, &mut report);
        report.resident_records = fleet
            .stats()
            .shards
            .iter()
            .map(|s| s.resident_records)
            .sum();
        epochs.push(report);
    }

    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        seed: cfg.seed,
        refresh: cfg.refresh.label(),
        epochs,
    })
}

/// [`replay`] through a real `grafics-serve` HTTP server: same world,
/// same training, same absorb numbering and probe seeds — but every
/// record crosses the wire (`/v1/absorb`, `/v1/publish`,
/// `/v1/infer_batch`), so per-epoch serving results must equal the
/// in-process run's. The e2e parity test pins exactly that.
///
/// Limitations versus in-process replay: only [`RefreshMode::None`]
/// (the HTTP API exposes no refresh endpoint), and removed MACs are
/// not pruned — use a churn-free scenario for parity runs.
///
/// # Errors
///
/// Training errors, refused refresh modes, and any transport or HTTP
/// error.
pub fn replay_http(scenario: &Scenario, cfg: &ReplayConfig) -> std::io::Result<ScenarioReport> {
    if cfg.refresh != RefreshMode::None {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "replay_http supports RefreshMode::None only (no refresh endpoint over HTTP)",
        ));
    }
    let (mut world, fleet) = build_world_and_fleet(scenario, cfg).map_err(std::io::Error::other)?;
    let serve_cfg = ServeConfig {
        seed: cfg.seed,
        ..ServeConfig::default()
    };
    let server = HttpServer::bind(fleet, "127.0.0.1:0", serve_cfg)?.spawn()?;
    let result = drive_http(&mut world, scenario, cfg, server.addr());
    let shutdown = server.shutdown();
    let report = result?;
    shutdown?;
    Ok(report)
}

fn drive_http(
    world: &mut ScenarioWorld,
    scenario: &Scenario,
    cfg: &ReplayConfig,
    addr: std::net::SocketAddr,
) -> std::io::Result<ScenarioReport> {
    let mut client = HttpClient::connect(addr)?;
    let mut epochs = Vec::with_capacity(scenario.epochs.len());
    for (e, epoch) in scenario.epochs.iter().enumerate() {
        let mut report = blank_report(&epoch.label);
        let streams = epoch_streams(world, scenario, e, cfg.seed);
        report.removed_macs = streams.changes.removed.len();

        for (b, _, record) in &streams.absorbs {
            let body = serde_json::to_string(&serde_json::json!({
                "record": record,
                "building": *b as u32,
            }))
            .unwrap_or_default();
            let (status, _) = client.post("/v1/absorb", &body)?;
            if status == 200 {
                report.absorbed += 1;
            } else {
                report.absorb_errors += 1;
            }
        }

        let (status, body) = client.post("/v1/publish", "")?;
        if status != 200 {
            return Err(std::io::Error::other(format!("publish: {status} {body}")));
        }
        report.publishes = world.len() as u64;

        let records: Vec<&SignalRecord> = streams.probes.iter().map(|(_, _, r)| r).collect();
        let body = serde_json::to_string(&serde_json::json!({
            "records": records,
            "seed": epoch_seed(cfg.seed, e),
            "threads": cfg.threads,
        }))
        .unwrap_or_default();
        let (status, body) = client.post("/v1/infer_batch", &body)?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "infer_batch: {status} {body}"
            )));
        }
        let batch: BatchBody = serde_json::from_str(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let flat: Vec<Flat> = batch
            .predictions
            .iter()
            .map(|p| {
                p.as_ref()
                    .map(|p| (p.building, p.floor, p.margin.unwrap_or(f64::INFINITY)))
            })
            .collect();
        score(&streams.probes, &flat, &mut report);

        let (status, metrics) = client.get("/metrics")?;
        if status == 200 {
            report.resident_records = gauge(&metrics, "grafics_resident_records") as usize;
        }
        epochs.push(report);
    }
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        seed: cfg.seed,
        refresh: cfg.refresh.label(),
        epochs,
    })
}

/// Reads one un-labelled gauge/counter value from a `/metrics` body.
fn gauge(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = rest.trim_start();
            if value == rest {
                return None; // labelled series or longer metric name
            }
            value.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_parses_exposition_lines() {
        let body = "# TYPE grafics_resident_records gauge\ngrafics_resident_records 420\ngrafics_resident_records_more 9\n";
        assert_eq!(gauge(body, "grafics_resident_records"), 420.0);
        assert_eq!(gauge(body, "grafics_missing"), 0.0);
    }

    #[test]
    fn refresh_mode_labels() {
        assert_eq!(RefreshMode::None.label(), "none");
        assert_eq!(RefreshMode::Cadence(2).label(), "cadence:2");
        assert_eq!(
            RefreshMode::MarginTrigger(RefreshTrigger::MarginDrop {
                window: 32,
                ratio: 0.8
            })
            .label(),
            "margin:32:0.8"
        );
    }
}
