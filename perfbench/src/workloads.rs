//! The three workloads. Each builds its fleet from the seed, cold-starts
//! it from disk, drives it for the run's seconds, checks every answer,
//! and reports the end-to-end metrics (untraced) or the per-layer
//! metrics (traced).
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `label-offline` | graph build, E-LINE, clustering, Fixed(200) f64 serving | HTTP, router |
//! | `serve-http` | HTTP + JSON, routing over 64 shards, adaptive f32 serving | WAL, router |
//! | `ingest-durable` | absorb, WAL append + fsync, publish, WAL recovery | router |
//!
//! The router hop is measured in traced runs only, by the probes (a
//! router over two backends next to a direct server, on the same
//! requests): as a workload of its own, two backends, a router and two
//! clients on two cores spread too much from run to run to gate on.
//!
//! Every workload reports every end-to-end metric. Where a workload has
//! no HTTP tier (`label-offline`) its infer metrics time the same fleet
//! call the HTTP handler makes, in process, so transport changes are
//! predicted to leave them flat there. Absorbs go over HTTP only on
//! `ingest-durable`, where writes are the point; elsewhere the absorb
//! metrics time `absorb_to_durable` in process, a fixed number of passes
//! over the held-out scans under a FIFO retention budget, so the write
//! side holds the same records at the end of every run of a seed.
//!
//! The measured part of a run is cut into [`ROUNDS`] rounds that end at
//! evenly spaced deadlines. Each round cold-starts the fleet again,
//! retrains its share of the shards and makes its share of the
//! in-process absorbs (fixed work), then splits what is left of the round
//! between the timed phases. So every metric samples the whole run, and
//! a run lasts its seconds however fast the machine is.
//!
//! Timed work runs on one thread at a time: one client with at most one
//! server worker busy, serial training and labelling. Every timed figure
//! but `setup_s` (the median cold start) is a best of repetitions spread
//! over the run: each scan keeps its fastest round trip, each labelling
//! chunk and each trained shard its fastest CPU time. On a shared host
//! the same instructions run up to half again slower for seconds at a
//! time while neighbours load the core's caches and sibling thread; a
//! median follows those stretches, a best over many short repetitions
//! does not, and only the program can make it move.

use crate::corpus::{self, Corpus, Query};
use crate::cpu;
use crate::load::{self, Expect, Phase, Window};
use crate::probes::{self, Probe};
use crate::report::{median, Report};
use crate::trace;
use grafics_core::{
    DurabilityPolicy, FleetManifest, FleetPrediction, Grafics, GraficsConfig, GraficsFleet,
    MaintenancePolicy, MatchPrecision, OnlineBudget, RecoveryReport, RetentionPolicy,
    ServingPolicy,
};
use grafics_metrics::ConfusionMatrix;
use grafics_serve::{FleetState, HttpServer, RunningServer, ServeConfig};
use grafics_types::{BuildingId, FloorId, SignalRecord};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["label-offline", "serve-http", "ingest-durable"];

/// Threads of the untimed reference labelling pass.
const REFERENCE_THREADS: usize = 2;
/// Scans per timed labelling call: short enough that many calls fit in
/// the host's quiet moments.
const LABEL_CHUNK: usize = 32;
/// Each measured phase is cut into this many rounds that take turns with
/// the run's other phases, so every metric samples the whole run: on a
/// shared host the CPU's speed drifts over seconds, and a phase measured
/// in one stretch would report its stretch only.
const ROUNDS: usize = 7;
/// Extra cold starts in each round, on top of `Scale::setup_trials`
/// before the first.
const SETUPS_PER_ROUND: usize = 2;
/// Passes over the held-out scans the in-process absorbs make in a run.
const ABSORB_PASSES: usize = 8;
/// Untimed passes before them, which fill every shard's write side to
/// its retention budget.
const ABSORB_WARMUP_PASSES: usize = 2;
/// Shards `train_s` times: the whole Hong Kong fleet and ingest fleet,
/// the first quarter of the city fleet. Enough shards that which scans a
/// seed drew moves their sum little.
const TRAIN_SHARDS: usize = 16;
/// Share of each round spent retraining the timed shards.
const TRAIN_SHARE: f64 = 0.25;
/// Share of a round's first timed window that warms up, unmeasured.
const WARMUP: f64 = 0.2;
/// Absorbed records each shard keeps, on every workload: a run's absorbs
/// cycle through the write side instead of growing it. The budget is
/// small, so the write side is full before the first timed absorb and
/// every timed absorb evicts one: each one costs the same, whenever in
/// the run it falls.
const RETENTION: RetentionPolicy = RetentionPolicy::FifoBudget(64);

/// Input sizes. The full scale is what the benchmark measures; the toy
/// scale runs every workload end to end in a few seconds for the
/// self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub hk_records_per_floor: usize,
    pub city_buildings: usize,
    pub city_records_per_floor: usize,
    pub ingest_buildings: usize,
    pub ingest_records_per_floor: usize,
    /// Absorbs journalled before the cold start of `ingest-durable`.
    pub wal_tail: usize,
    pub setup_trials: usize,
    pub probe_queries: usize,
    pub probe_train_shards: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            hk_records_per_floor: 60,
            city_buildings: 64,
            city_records_per_floor: 20,
            ingest_buildings: 16,
            ingest_records_per_floor: 20,
            wal_tail: 512,
            setup_trials: 5,
            probe_queries: 300,
            probe_train_shards: 5,
        }
    }

    #[cfg(test)]
    pub fn toy() -> Self {
        Scale {
            hk_records_per_floor: 10,
            city_buildings: 4,
            city_records_per_floor: 10,
            ingest_buildings: 3,
            ingest_records_per_floor: 10,
            wal_tail: 12,
            setup_trials: 1,
            probe_queries: 12,
            probe_train_shards: 2,
        }
    }
}

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for fleet directories; removed by the caller.
    pub work: PathBuf,
}

impl Settings {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// The deadlines of a run's rounds, from the start of its measured part.
struct Schedule {
    start: Instant,
    round: Duration,
}

impl Schedule {
    /// Rounds that share the run's seconds, from now.
    fn new(s: &Settings) -> Self {
        Schedule {
            start: Instant::now(),
            round: s.share(1.0 / ROUNDS as f64),
        }
    }

    /// `fraction` of what is left of round `round`, or of a tenth of a
    /// round should the round's fixed work overrun its deadline.
    fn budget(&self, round: usize, fraction: f64) -> Duration {
        let end = self.start + self.round * (round as u32 + 1);
        end.saturating_duration_since(Instant::now())
            .max(self.round / 10)
            .mul_f64(fraction)
    }

    /// A closed-loop window of [`Schedule::budget`]; the first round's
    /// windows warm up first.
    fn window(&self, round: usize, fraction: f64) -> Window {
        let total = self.budget(round, fraction);
        let warmup = if round == 0 {
            total.mul_f64(WARMUP)
        } else {
            Duration::ZERO
        };
        Window {
            warmup,
            measure: total - warmup,
        }
    }
}

pub fn run(name: &str, s: &Settings) -> Result<Report, String> {
    match name {
        "label-offline" => label_offline(s),
        "serve-http" => serve_http(s),
        "ingest-durable" => ingest_durable(s),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

/// The README's city-scale serving policy: `adaptive:40:10:0.25` + `f32`.
fn city_policy() -> ServingPolicy {
    ServingPolicy {
        budget: Some(OnlineBudget::Adaptive {
            max_spe: 40,
            min_spe: 10,
            margin_ratio: 0.25,
        }),
        precision: Some(MatchPrecision::F32Refined),
    }
}

fn assemble(models: Vec<(BuildingId, Grafics)>, manifest: FleetManifest) -> GraficsFleet {
    let mut fleet = GraficsFleet::with_manifest(manifest);
    for (id, model) in models {
        fleet.add_shard(id, model).expect("building ids are unique");
    }
    fleet
}

fn save(fleet: &GraficsFleet, dir: &Path) -> Result<(), String> {
    fleet
        .save_dir(dir)
        .map_err(|e| format!("saving {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// A seeded permutation of `0..n`: the order clients walk the scans in.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x006f_7264_6572));
    order
}

fn records(corpus: &Corpus) -> Vec<SignalRecord> {
    corpus.queries.iter().map(|q| q.record.clone()).collect()
}

fn same(a: &Option<FleetPrediction>, b: &Option<FleetPrediction>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.building == b.building
                && a.floor == b.floor
                && a.distance.to_bits() == b.distance.to_bits()
        }
        (None, None) => true,
        _ => false,
    }
}

/// The paper's micro- and macro-F per building, averaged over buildings.
/// A scan answered by another building, or not at all, counts as wrong.
fn quality(queries: &[Query], answers: &[Option<FleetPrediction>]) -> (f64, f64) {
    let wrong = FloorId(i16::MIN);
    let mut per_building: BTreeMap<BuildingId, (Vec<FloorId>, Vec<FloorId>)> = BTreeMap::new();
    for (q, answer) in queries.iter().zip(answers) {
        let (truth, predicted) = per_building.entry(q.building).or_default();
        truth.push(q.floor);
        predicted.push(match answer {
            Some(p) if p.building == q.building => p.floor,
            _ => wrong,
        });
    }
    let n = per_building.len().max(1) as f64;
    let (mut micro, mut macro_) = (0.0, 0.0);
    for (truth, predicted) in per_building.values() {
        let r = ConfusionMatrix::from_pairs(truth, predicted).report();
        micro += r.micro_f;
        macro_ += r.macro_f;
    }
    (micro / n, macro_ / n)
}

/// `label_rps`: labelling passes over the held-out scans on this thread,
/// [`LABEL_CHUNK`] scans per `serve_batch_indexed` call (each scan on its
/// own stream index, so every chunk must repeat its slice of the
/// reference bit for bit). Each chunk keeps its fastest time, in CPU
/// seconds of this thread; the rate is the scans over the sum of those.
struct Labelling {
    indices: Vec<u64>,
    best: Vec<f64>,
}

impl Labelling {
    fn new(records: &[SignalRecord]) -> Self {
        Labelling {
            indices: (0..records.len() as u64).collect(),
            best: vec![f64::INFINITY; records.len().div_ceil(LABEL_CHUNK)],
        }
    }

    /// Passes until `budget` is spent, at least one.
    fn passes(
        &mut self,
        fleet: &GraficsFleet,
        records: &[SignalRecord],
        reference: &[Option<FleetPrediction>],
        seed: u64,
        budget: Duration,
        report: &mut Report,
    ) {
        let started = Instant::now();
        loop {
            for (chunk, best) in self.best.iter_mut().enumerate() {
                let range = chunk * LABEL_CHUNK..((chunk + 1) * LABEL_CHUNK).min(records.len());
                let cpu_from = cpu::thread();
                let again = trace::span("core.serve_batch", chunk as u64, || {
                    fleet.serve_batch_indexed(
                        &records[range.clone()],
                        &self.indices[range.clone()],
                        seed,
                        1,
                    )
                });
                *best = best.min(cpu::thread() - cpu_from);
                report.count(range.len() as u64, 0);
                for (i, (a, b)) in range.clone().zip(again.iter().zip(&reference[range])) {
                    if !same(a, b) {
                        report.fail(format!("scan {i}: labelled {a:?}, then {b:?}"));
                    }
                }
            }
            if started.elapsed() >= budget {
                break;
            }
        }
    }

    fn report(&self, report: &mut Report) {
        let secs: f64 = self.best.iter().sum();
        report.metric("label_rps", self.indices.len() as f64 / secs, "records/s");
    }
}

/// The infer rounds of a run. In a traced run the rounds alternate
/// between tracing off and on: the client latencies come from the
/// untraced rounds, and the tracing overhead is the traced rounds'
/// `infer_p50_us` minus the untraced rounds'.
#[derive(Default)]
struct InferRounds {
    plain: Phase,
    traced: Phase,
}

impl InferRounds {
    /// Runs round `round`; `phase` gets the position in the scan order
    /// where the previous round stopped.
    fn round(&mut self, s: &Settings, round: usize, phase: impl FnOnce(usize) -> Phase) {
        let traced = s.trace && round % 2 == 1;
        if s.trace && !traced {
            trace::disable();
        }
        let measured = phase(self.plain.steps + self.traced.steps);
        if s.trace {
            trace::enable();
        }
        if traced {
            self.traced.merge(measured);
        } else {
            self.plain.merge(measured);
        }
    }

    fn report(self, report: &mut Report) {
        let latencies = self.plain.latencies();
        report.metric("infer_p50_us", self.plain.best_p50(), "us");
        report.metric("client.infer_p99_us", self.plain.p99(), "us");
        report.metric("client.infer_samples", latencies.len() as f64, "count");
        if self.traced.attempted > 0 {
            report.metric(
                "trace.overhead_us",
                self.traced.best_p50() - self.plain.best_p50(),
                "us",
            );
        }
        count_phase(report, &self.plain);
        count_phase(report, &self.traced);
    }
}

fn count_phase(report: &mut Report, phase: &Phase) {
    report.count(phase.attempted, phase.failed);
    report.causes(&phase.failures);
}

/// `train_s`: the CPU seconds to train the fleet's first
/// [`TRAIN_SHARDS`] shards (all of them, if fewer), serially, each at its
/// fastest. Each round retrains them in turn, with the trainer that built
/// the fleet, for [`TRAIN_SHARE`] of the round; every retrained model
/// must equal the served one bit for bit (`threads: 1` training is
/// deterministic).
struct TrainRounds {
    config: GraficsConfig,
    seed: u64,
    /// Per timed shard, in building order: its model's fingerprint and
    /// its fastest training.
    served: Vec<(u64, f64)>,
    /// Trainings so far; the next one retrains shard `next % served.len()`.
    next: usize,
}

impl TrainRounds {
    fn new(config: &GraficsConfig, seed: u64, models: &[(BuildingId, Grafics)]) -> Self {
        TrainRounds {
            config: *config,
            seed,
            served: models
                .iter()
                .take(TRAIN_SHARDS)
                .map(|(_, m)| (corpus::fingerprint(m), f64::INFINITY))
                .collect(),
            next: 0,
        }
    }

    /// Retrains shards in turn until `budget` is spent, at least one.
    fn round(&mut self, corpus: &Corpus, budget: Duration, report: &mut Report) {
        let started = Instant::now();
        loop {
            let shard = self.next % self.served.len();
            self.next += 1;
            let (models, secs) = corpus::train_timed(corpus, &self.config, self.seed, &[shard]);
            let (print, best) = &mut self.served[shard];
            *best = best.min(secs);
            report.count(1, 0);
            if corpus::fingerprint(&models[0].1) != *print {
                report.fail(format!("retraining b{} gave another model", models[0].0));
            }
            if started.elapsed() >= budget {
                break;
            }
        }
    }

    fn report(&self, report: &mut Report) {
        let secs: f64 = self.served.iter().map(|(_, best)| best).sum();
        report.metric("train_s", secs, "s");
    }
}

/// Held-out scans absorbed in process per round.
fn absorbs_per_round(corpus: &Corpus) -> usize {
    (ABSORB_PASSES * corpus.queries.len()).div_ceil(ROUNDS)
}

/// Cold-start times in seconds: to ready, and of the load alone. Unlike
/// the other timings these report the median, so that set-up work a
/// change adds shows in full.
#[derive(Default)]
struct Setups {
    setups: Vec<f64>,
    loads: Vec<f64>,
}

impl Setups {
    fn push(&mut self, setup: f64, load: f64) {
        self.setups.push(setup);
        self.loads.push(load);
    }

    fn len(&self) -> usize {
        self.setups.len()
    }

    fn report(&self, report: &mut Report) {
        report.metric("setup_s", median(&self.setups), "s");
        report.metric("core.load_s", median(&self.loads), "s");
    }
}

fn absorb_metrics(report: &mut Report, phase: &Phase) {
    report.metric("absorb_p50_us", phase.best_p50(), "us");
    count_phase(report, phase);
}

/// The paper's pipeline on the five Hong Kong archetypes: train, save,
/// cold load, label the held-out scans; then serve and absorb them one
/// at a time in process.
fn label_offline(s: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    let corpus = corpus::simulate(&corpus::hong_kong(s.scale.hk_records_per_floor), s.seed);
    let config = GraficsConfig::default();
    let models = corpus::train(&corpus, &config, s.seed, &corpus::all_shards(&corpus));
    let mut training = TrainRounds::new(&config, s.seed, &models);
    let dir = s.work.join("label-offline");
    let manifest = FleetManifest {
        retention: RETENTION,
        ..FleetManifest::default()
    };
    save(&assemble(models, manifest), &dir)?;

    let mut setups = Setups::default();
    let load = |setups: &mut Setups| -> Result<GraficsFleet, String> {
        let t = Instant::now();
        let loaded = trace::span("core.load", 0, || GraficsFleet::load_dir(&dir))
            .map_err(|e| format!("loading {}: {e}", dir.display()))?;
        let secs = t.elapsed().as_secs_f64();
        setups.push(secs, secs);
        Ok(loaded)
    };
    let mut fleet = load(&mut setups)?;
    while setups.len() < s.scale.setup_trials {
        fleet = load(&mut setups)?;
    }
    report.metric("core.wal_replayed", 0.0, "count");

    let records = records(&corpus);
    let reference = labelled(&fleet, &records, &corpus.queries, s.seed, &mut report);
    let order = shuffled(records.len(), s.seed);
    let mut labelling = Labelling::new(&records);
    let mut infer = InferRounds::default();
    let mut absorb = absorb_warmup(&fleet, &corpus, &order, s.seed, &mut report);
    let schedule = Schedule::new(s);
    for round in 0..ROUNDS {
        for _ in 0..SETUPS_PER_ROUND {
            load(&mut setups)?;
        }
        training.round(&corpus, schedule.budget(round, TRAIN_SHARE), &mut report);
        absorb.merge(absorb_in_process(
            &fleet,
            &corpus.queries,
            &order,
            s.seed,
            absorb.steps,
            absorbs_per_round(&corpus),
        ));
        labelling.passes(
            &fleet,
            &records,
            &reference,
            s.seed,
            schedule.budget(round, 0.5),
            &mut report,
        );
        infer.round(s, round, |first| {
            let window = schedule.window(round, 1.0);
            serve_in_process(&fleet, &records, &reference, &order, s.seed, first, window)
        });
    }
    setups.report(&mut report);
    training.report(&mut report);
    labelling.report(&mut report);
    infer.report(&mut report);
    absorb_metrics(&mut report, &absorb);

    if s.trace {
        let snapshots = fleet.snapshots();
        probe(
            s,
            &corpus,
            config,
            snapshots,
            ServingPolicy::default(),
            &fleet,
            &mut report,
        )?;
    }
    Ok(report)
}

/// The reference answers: one untimed `serve_batch` pass over the
/// held-out scans, scored for the quality metrics.
fn labelled(
    fleet: &GraficsFleet,
    records: &[SignalRecord],
    queries: &[Query],
    seed: u64,
    report: &mut Report,
) -> Vec<Option<FleetPrediction>> {
    let reference = fleet.serve_batch(records, seed, REFERENCE_THREADS);
    let (micro_f, macro_f) = quality(queries, &reference);
    report.metric("micro_f", micro_f, "ratio");
    report.metric("macro_f", macro_f, "ratio");
    reference
}

/// `GraficsFleet::serve_batch_indexed` on one scan at a time — the call
/// `POST /v1/infer` makes — from one closed loop, walking `order` from
/// position `first`.
fn serve_in_process(
    fleet: &GraficsFleet,
    records: &[SignalRecord],
    reference: &[Option<FleetPrediction>],
    order: &[usize],
    seed: u64,
    first: usize,
    window: Window,
) -> Phase {
    load::closed_loop(
        order,
        first,
        window,
        "client.infer",
        || Ok(()),
        |(), _, index| {
            let got = fleet.serve_batch_indexed(
                std::slice::from_ref(&records[index]),
                &[index as u64],
                seed,
                1,
            );
            if same(&got[0], &reference[index]) {
                Ok(())
            } else {
                Err(format!(
                    "scan {index}: served alone {:?}, in the batch {:?}",
                    got[0], reference[index]
                ))
            }
        },
    )
}

/// The untimed absorb passes that fill the write side; returns the empty
/// phase the timed absorbs merge into, positioned after them.
fn absorb_warmup(
    fleet: &GraficsFleet,
    corpus: &Corpus,
    order: &[usize],
    seed: u64,
    report: &mut Report,
) -> Phase {
    let count = ABSORB_WARMUP_PASSES * corpus.queries.len();
    let warm = absorb_in_process(fleet, &corpus.queries, order, seed, 0, count);
    count_phase(report, &warm);
    let mut absorb = Phase::default();
    absorb.steps = warm.steps;
    absorb
}

/// `GraficsFleet::absorb_to_durable` — the call `POST /v1/absorb` makes —
/// on `count` scans one after another, step `k` on stream index `k`,
/// from step `first`.
fn absorb_in_process(
    fleet: &GraficsFleet,
    queries: &[Query],
    order: &[usize],
    seed: u64,
    first: usize,
    count: usize,
) -> Phase {
    load::counted(order, count, first, "client.absorb", |step, index| {
        let q = &queries[index];
        fleet
            .absorb_to_durable(q.building, &q.record, seed, step as u64)
            .map(|_| ())
            .map_err(|e| format!("absorb of a b{} scan: {e}", q.building))
    })
}

/// Cold start of one `HttpServer` over a fleet directory, timed until
/// `/healthz` answers 200. A durable directory goes through `recover`,
/// which replays the WAL tail, and the absorb sequence resumes past it.
fn start_server(
    dir: &Path,
    seed: u64,
) -> Result<(RunningServer, Arc<FleetState>, f64, f64, RecoveryReport), String> {
    let t = Instant::now();
    let durable = !grafics_core::read_manifest(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .durability
        .is_off();
    let (fleet, recovery) = trace::span("core.load", 0, || {
        if durable {
            GraficsFleet::recover(dir)
        } else {
            GraficsFleet::load_dir(dir).map(|f| (f, RecoveryReport::default()))
        }
    })
    .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let load_s = t.elapsed().as_secs_f64();
    let server = HttpServer::bind(
        fleet,
        "127.0.0.1:0",
        ServeConfig {
            seed,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("binding: {e}"))?;
    let state = Arc::clone(server.state());
    state.resume_absorb_seq(recovery.next_rng_index);
    if recovery.total_replayed() > 0 || recovery.any_torn() {
        state.count_recovery();
        state.set_recovering(true);
        state
            .fleet()
            .drain_wal()
            .map_err(|e| format!("post-recovery WAL drain: {e}"))?;
        state.set_recovering(false);
    }
    let running = server.spawn().map_err(|e| format!("spawning: {e}"))?;
    load::wait_healthy(running.addr())?;
    Ok((running, state, t.elapsed().as_secs_f64(), load_s, recovery))
}

/// Trains the city fleet with the README's serving policy: the fleet of
/// `serve-http`.
fn city_fleet(s: &Settings) -> (Corpus, GraficsConfig, TrainRounds, GraficsFleet) {
    let corpus = corpus::simulate(
        &corpus::microsoft(s.scale.city_buildings, s.scale.city_records_per_floor),
        s.seed,
    );
    let config = GraficsConfig::serving();
    let models = corpus::train(&corpus, &config, s.seed, &corpus::all_shards(&corpus));
    let training = TrainRounds::new(&config, s.seed, &models);
    let manifest = FleetManifest {
        serving: Some(city_policy()),
        retention: RETENTION,
        ..FleetManifest::default()
    };
    (corpus, config, training, assemble(models, manifest))
}

/// City-scale read serving: 64 buildings cold-started under one
/// `HttpServer`, one closed-loop client POSTing held-out scans.
fn serve_http(s: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    let (corpus, config, mut training, fleet) = city_fleet(s);
    let dir = s.work.join("serve-http");
    save(&fleet, &dir)?;
    drop(fleet);

    let mut setups = Setups::default();
    let start = |setups: &mut Setups| -> Result<(RunningServer, Arc<FleetState>), String> {
        let (running, state, setup, load_s, _) = start_server(&dir, s.seed)?;
        setups.push(setup, load_s);
        Ok((running, state))
    };
    let (mut running, mut state) = start(&mut setups)?;
    while setups.len() < s.scale.setup_trials {
        stop_server(running)?;
        (running, state) = start(&mut setups)?;
    }
    report.metric("core.wal_replayed", 0.0, "count");

    // The extra cold starts of each round start a second server next to
    // the idle one under test, and stop it again.
    drive_reads(
        s,
        &corpus,
        state.fleet(),
        running.addr(),
        |schedule, round, report| {
            for _ in 0..SETUPS_PER_ROUND {
                stop_server(start(&mut setups)?.0)?;
            }
            training.round(&corpus, schedule.budget(round, TRAIN_SHARE), report);
            Ok(())
        },
        &mut report,
    )?;
    stop_server(running)?;
    setups.report(&mut report);
    training.report(&mut report);
    if s.trace {
        let snapshots = state.fleet().snapshots();
        probe(
            s,
            &corpus,
            config,
            snapshots,
            city_policy(),
            state.fleet(),
            &mut report,
        )?;
    }
    Ok(report)
}

/// The read workload of `serve-http`: label in process for the reference
/// answers, then, round by round, run `each_round`, absorb into `fleet`
/// in process, label again, and infer against `addr`, every answer
/// checked against the reference. Absorbs reach only the write side
/// (nothing publishes), so the served models stay the reference's.
fn drive_reads(
    s: &Settings,
    corpus: &Corpus,
    fleet: &GraficsFleet,
    addr: std::net::SocketAddr,
    mut each_round: impl FnMut(&Schedule, usize, &mut Report) -> Result<(), String>,
    report: &mut Report,
) -> Result<(), String> {
    let records = records(corpus);
    let reference = labelled(fleet, &records, &corpus.queries, s.seed, report);
    let bodies = infer_bodies(&records, s.seed);
    let order = shuffled(records.len(), s.seed);
    let mut labelling = Labelling::new(&records);
    let mut infer = InferRounds::default();
    let mut absorb = absorb_warmup(fleet, corpus, &order, s.seed, report);
    let schedule = Schedule::new(s);
    for round in 0..ROUNDS {
        each_round(&schedule, round, report)?;
        absorb.merge(absorb_in_process(
            fleet,
            &corpus.queries,
            &order,
            s.seed,
            absorb.steps,
            absorbs_per_round(corpus),
        ));
        labelling.passes(
            fleet,
            &records,
            &reference,
            s.seed,
            schedule.budget(round, 0.25),
            report,
        );
        infer.round(s, round, |first| {
            let window = schedule.window(round, 1.0);
            load::infer_loop(
                addr,
                &bodies,
                &order,
                Expect::Slot(&reference),
                first,
                window,
            )
        });
    }
    labelling.report(report);
    infer.report(report);
    absorb_metrics(report, &absorb);
    Ok(())
}

fn infer_bodies(records: &[SignalRecord], seed: u64) -> Vec<String> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| load::infer_body(r, seed, i))
        .collect()
}

fn absorb_inputs(queries: &[Query]) -> (Vec<String>, Vec<u32>) {
    queries
        .iter()
        .map(|q| (load::absorb_body(&q.record, q.building.0), q.building.0))
        .unzip()
}

fn stop_server(running: RunningServer) -> Result<(), String> {
    running
        .shutdown()
        .map(|_| ())
        .map_err(|e| format!("server shutdown: {e}"))
}

/// Durable ingest beside reads: 16 buildings with a WAL (fsync every 64
/// appends), auto-publish after 256 absorbs and a FIFO retention budget,
/// recovered from a directory whose WAL holds a tail. Each round one
/// connection infers, then another absorbs; the publishes and WAL syncs
/// the absorbs set off run on the server's own threads during the absorb
/// window or just after it, while the next round's cold starts run.
fn ingest_durable(s: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    let corpus = corpus::simulate(
        &corpus::microsoft(s.scale.ingest_buildings, s.scale.ingest_records_per_floor),
        s.seed,
    );
    let config = GraficsConfig::serving();
    let models = corpus::train(&corpus, &config, s.seed, &corpus::all_shards(&corpus));
    let mut training = TrainRounds::new(&config, s.seed, &models);
    let manifest = FleetManifest {
        retention: RETENTION,
        maintenance: MaintenancePolicy {
            publish_after_absorbs: Some(256),
            ..MaintenancePolicy::default()
        },
        durability: DurabilityPolicy::FsyncEveryN(64),
        ..FleetManifest::default()
    };
    let template = s.work.join("ingest-template");
    save(&assemble(models, manifest), &template)?;
    let order = shuffled(corpus.queries.len(), s.seed);
    {
        let (fleet, _) = GraficsFleet::recover(&template)
            .map_err(|e| format!("opening the WAL under {}: {e}", template.display()))?;
        for k in 0..s.scale.wal_tail {
            let q = &corpus.queries[order[k % order.len()]];
            fleet
                .absorb_to_durable(q.building, &q.record, s.seed, k as u64)
                .map_err(|e| format!("journalling the WAL tail: {e}"))?;
        }
        fleet.drain_wal().map_err(|e| e.to_string())?;
    }

    // Every cold start recovers its own copy of the template, and must
    // replay the whole WAL tail.
    let mut setups = Setups::default();
    let start = |setups: &mut Setups,
                 report: &mut Report|
     -> Result<(RunningServer, Arc<FleetState>, PathBuf), String> {
        let dir = s.work.join(format!("ingest-{}", setups.len()));
        copy_dir(&template, &dir)?;
        let (running, state, setup, load_s, recovery) = start_server(&dir, s.seed)?;
        setups.push(setup, load_s);
        report.metric(
            "core.wal_replayed",
            recovery.total_replayed() as f64,
            "count",
        );
        report.count(1, 0);
        if recovery.total_replayed() != s.scale.wal_tail as u64 {
            report.fail(format!(
                "recovery replayed {} absorbs, the WAL tail holds {}",
                recovery.total_replayed(),
                s.scale.wal_tail
            ));
        }
        Ok((running, state, dir))
    };
    let (mut running, mut state, _) = start(&mut setups, &mut report)?;
    while setups.len() < s.scale.setup_trials {
        stop_server(running)?;
        (running, state, _) = start(&mut setups, &mut report)?;
    }

    // Publishes under the absorb load change the served models, and with
    // them the answers; the labelling passes run on a frozen copy of the
    // models served before the first absorb.
    let records = records(&corpus);
    let reference = labelled(
        state.fleet(),
        &records,
        &corpus.queries,
        s.seed,
        &mut report,
    );
    let frozen = probes::fleet_of(&state.fleet().snapshots(), ServingPolicy::default());
    let mut labelling = Labelling::new(&records);

    let addr = running.addr();
    let bodies = infer_bodies(&records, s.seed);
    let (absorb_bodies, buildings) = absorb_inputs(&corpus.queries);
    let absorb_order = shuffled(records.len(), s.seed ^ 1);
    let mut infer = InferRounds::default();
    let mut absorb = Phase::default();
    let schedule = Schedule::new(s);
    for round in 0..ROUNDS {
        for _ in 0..SETUPS_PER_ROUND {
            let (extra, _, dir) = start(&mut setups, &mut report)?;
            stop_server(extra)?;
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        training.round(&corpus, schedule.budget(round, TRAIN_SHARE), &mut report);
        labelling.passes(
            &frozen,
            &records,
            &reference,
            s.seed,
            schedule.budget(round, 0.2),
            &mut report,
        );
        infer.round(s, round, |first| {
            let window = schedule.window(round, 0.5);
            load::infer_loop(
                addr,
                &bodies,
                &order,
                Expect::Building(&buildings),
                first,
                window,
            )
        });
        absorb.merge(load::absorb_loop(
            addr,
            &absorb_bodies,
            &buildings,
            &absorb_order,
            absorb.steps,
            schedule.window(round, 1.0),
        ));
    }
    labelling.report(&mut report);
    setups.report(&mut report);
    training.report(&mut report);
    infer.report(&mut report);
    absorb_metrics(&mut report, &absorb);
    stop_server(running)?;

    // Shutdown drained the WAL: every acknowledged absorb is appended.
    let wal = state.fleet().wal_stats();
    let acked = absorb.acked;
    report.count(1, 0);
    if wal.appends != acked || state.fleet().wal_error().is_some() {
        report.fail(format!(
            "the WAL holds {} appends for {acked} acknowledged absorbs ({:?})",
            wal.appends,
            state.fleet().wal_error()
        ));
    }
    if s.trace {
        let snapshots = state.fleet().snapshots();
        probe(
            s,
            &corpus,
            config,
            snapshots,
            ServingPolicy::default(),
            state.fleet(),
            &mut report,
        )?;
    }
    Ok(report)
}

fn probe(
    s: &Settings,
    corpus: &Corpus,
    config: GraficsConfig,
    snapshots: Vec<(BuildingId, Arc<Grafics>)>,
    serving: ServingPolicy,
    write_fleet: &GraficsFleet,
    report: &mut Report,
) -> Result<(), String> {
    let order = shuffled(corpus.queries.len(), s.seed ^ 2);
    let order = &order[..s.scale.probe_queries.min(order.len())];
    probes::run(
        &Probe {
            seed: s.seed,
            corpus,
            config,
            snapshots,
            serving,
            write_fleet,
            order,
            train_shards: s.scale.probe_train_shards,
        },
        report,
    )
}
