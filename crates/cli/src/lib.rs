//! The `grafics` command-line tool.
//!
//! ```text
//! grafics simulate --preset mall --floors 4 --records-per-floor 100 --out corpus.jsonl
//! grafics train    --input corpus.jsonl --labels 4 --out model.json
//! grafics infer    --model model.json --input scans.jsonl [--threads N] [--save-model updated.json]
//! grafics evaluate --model model.json --input test.jsonl [--threads N]
//! grafics fleet simulate --preset microsoft --buildings 8 --out data-dir
//! grafics fleet train    --data data-dir --labels 4 --out model-dir
//! grafics fleet serve    --models model-dir --input scans.jsonl [--threads N]
//! grafics fleet stat     --models model-dir
//! ```
//!
//! All commands are deterministic given `--seed`. Corpora are JSONL (one
//! [`grafics_types::Sample`] per line); models are the JSON produced by
//! [`grafics_core::Grafics::save_json`].
//!
//! `infer` and `evaluate` run through the read-only serving engine
//! ([`grafics_core::GraficsServer`]) with one deterministic RNG stream
//! per record, so `--threads` changes wall-clock but never the output.
//! Passing `--save-model` to `infer` switches to the graph-absorbing path
//! (§V-A): each scan extends the model, which is then written back out.
//!
//! The `fleet` family works over *directories*: one dataset per building
//! in (`fleet simulate` reuses [`grafics_data::FleetPreset`]), one
//! `shard-<id>.json` model per building out plus a `fleet.json` manifest
//! (router choice, retention policy, maintenance cadence — set at
//! `fleet train` time, reloaded without runtime flags), and serving
//! through a [`grafics_core::GraficsFleet`] that routes each scan to the
//! shard whose AP inventory it overlaps. `fleet serve` output carries
//! the routed building plus the different-floor distance margin, so
//! routing confidence is observable per query. With `--http ADDR`,
//! `fleet serve` starts the [`grafics_serve`] network front end instead:
//! a threaded HTTP/1.1 server plus the background maintenance daemon,
//! draining gracefully on Ctrl-C.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use grafics_core::{
    BackendSpec, DurabilityPolicy, Grafics, GraficsConfig, GraficsFleet, MaintenancePolicy,
    MatchPrecision, OnlineBudget, RefreshTrigger, RetentionPolicy, RouterKind, RouterManifest,
    ServingPolicy,
};
use grafics_data::{io as dio, BuildingModel, FleetPreset};
use grafics_metrics::ConfusionMatrix;
use grafics_scenario::{replay, RefreshMode, ReplayConfig, Scenario};
use grafics_serve::{HttpServer, RouterConfig, RouterServer, ServeConfig};
use grafics_types::{BreakerPolicy, BuildingId, Dataset, HealthPolicy, RateLimitPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// Runs one CLI invocation; returns the text to print on success.
///
/// # Errors
///
/// Returns a human-readable message on any usage or IO error.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("train") => train(&args[1..]),
        Some("infer") => infer(&args[1..]),
        Some("evaluate") => evaluate(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("scenario") => scenario(&args[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "\
grafics — graph embedding-based floor identification (ICDCS 2022)

commands:
  simulate --preset office|mall|hospital --floors N [--name S] [--records-per-floor N]
           [--seed N] [--labels N] --out corpus.jsonl
  train    --input corpus.jsonl [--labels N] [--dim N] [--epochs N] [--seed N]
           [--min-support N] [--threads N] --out model.json
  infer    --model model.json --input scans.jsonl [--seed N] [--threads N]
           [--save-model out.json]
  evaluate --model model.json --input test.jsonl [--seed N] [--threads N]
  fleet simulate --preset microsoft|hongkong [--buildings N] [--records-per-floor N]
           [--labels N] [--seed N] --out data-dir
  fleet train    --data data-dir [--labels N] [--dim N] [--epochs N] [--seed N]
           [--min-support N] [--threads N] [--retention keepall|fifo:N|perfloor:N]
           [--router overlap|weighted] [--publish-after-absorbs N]
           [--publish-after-secs T] [--refresh-every K]
           [--durability off|fsync:N|fsync_ms:T] --out model-dir
  fleet serve    --models model-dir --input scans.jsonl [--seed N] [--threads N]
           [--budget fixed:N|adaptive:MAX:MIN:RATIO] [--precision f64|f32]
  fleet serve    --models model-dir --http ADDR [--workers N] [--seed N]
           [--access-log PATH] [--auth-token TOKEN]
           [--budget fixed:N|adaptive:MAX:MIN:RATIO] [--precision f64|f32]
  fleet route    --http ADDR --backends [name=]host:port[,...] | --manifest DIR
           [--health I_MS/T_MS/FAIL/RECOVER] [--breaker TRIP/COOLDOWN_MS]
           [--rate-limit RATE/BURST|off] [--auth-token TOKEN]
           [--deadline-ms N] [--retries N]
  fleet recover  --models model-dir
  fleet stat     --models model-dir
  scenario list
  scenario run   --preset NAME | --file scenario.json [--seed N] [--labels N]
           [--threads N] [--retention keepall|fifo:N|perfloor:N]
           [--refresh none|cadence:K|margin:W:R] [--epochs N] [--buildings N]
           [--records-per-floor N] [--absorbs N] [--probes N]
           [--save-scenario FILE] [--out report.json]
  help

infer/evaluate serve read-only on --threads workers (0 = all cores) with
per-record RNG streams; --save-model switches infer to the model-absorbing
path (scans extend the graph) and writes the grown model back out.

fleet commands work over directories: simulate writes one corpus per
building, train writes one shard-<id>.json per corpus (ids follow sorted
file names) plus a fleet.json manifest persisting the router, retention,
and maintenance-cadence flags, serve routes each scan to the shard whose
APs it overlaps and prints record,building,floor,distance,margin — margin
is the distance gap to the nearest different-floor cluster, the per-query
confidence. fleet serve --http ADDR starts the HTTP front end over the
fleet instead (POST /v1/infer, /v1/infer_batch, /v1/absorb, /v1/publish;
GET /v1/stat, /healthz, and plaintext Prometheus-style counters on
GET /metrics), with the manifest's maintenance cadence enforced by a
background daemon; Ctrl-C drains in-flight requests and exits.

--budget and --precision override the serving path per deployment
without touching the trained models: adaptive:MAX:MIN:RATIO refines a
query with up to MAX samples per edge but probes the top-2 centroid
margin every MIN and stops early once decisive (RATIO, e.g. 0.25, is
the required relative gap); f32 sweeps centroids in single precision
and re-scores the shortlist in f64, falling back to the full f64 sweep
when ranks are too close to trust f32. Both leave absorbs untouched.

With --durability set at fleet train time, every absorb is journalled to
a per-shard write-ahead log before it is acknowledged (fsync:N groups N
appends per fsync; fsync_ms:T fsyncs dirty appends older than T ms), and
fleet serve --http replays the WAL on startup so acknowledged absorbs
survive a crash (the replayed tail stays in the log until each shard's
next publish checkpoints it). fleet stat and fleet serve (with --input
or --http) read every directory in its recovered state: the last
checkpoint plus the replayed WAL tail, not the model written at train
time; stat and serve --input write nothing, so they can inspect a
directory a live server journals into. fleet recover replays a durable
directory by hand, then publishes every shard, which checkpoints the
replay and truncates each log, and prints what each shard recovered.
--access-log PATH appends one JSON line per HTTP request (endpoint, status, latency,
shard).

fleet route starts the model-free router tier over per-building backend
processes (each a fleet serve --http): it mirrors their /v1/route_table
inventories to route bit-identically to a single process, probes
/healthz every I_MS ms (Down after FAIL failures, Up after RECOVER
successes), trips a per-backend circuit breaker after TRIP consecutive
request failures (half-open after COOLDOWN_MS), answers fallback
requests by scatter-gather over live backends with a degraded marker,
throttles per client IP at RATE req/s (burst BURST) with 429 +
Retry-After, and — with --auth-token, here or on the backends — requires
a bearer token on /v1/absorb and /v1/publish. --manifest DIR reads
router.json from DIR instead of flags; explicit flags override it.

scenario replays a drift-and-churn timeline (AP churn, transmit-power
drift, device mixes, cross-building bleed) against a freshly trained
fleet and prints the accuracy-over-time curve per epoch, plus margin
quantiles and refresh/publish counts. scenario list names the built-in
presets; scenario run takes a preset or a scenario
JSON file (--save-scenario writes the resolved timeline back out as a
shareable artifact). --refresh picks the maintenance discipline the
replay enacts: none, a blind fixed cadence (refresh every K-th epoch),
or the drift-triggered margin:W:R (refresh a shard when the p10 of its
last W served margins drops below R x its post-refresh baseline). The
size overrides (--epochs, --buildings, --records-per-floor, --absorbs,
--probes) shrink a preset for quick runs. Reports are deterministic
given --seed; --out writes the full report as JSON.
";

fn fleet(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("simulate") => fleet_simulate(&args[1..]),
        Some("train") => fleet_train(&args[1..]),
        Some("serve") => fleet_serve(&args[1..]),
        Some("route") => fleet_route(&args[1..]),
        Some("recover") => fleet_recover(&args[1..]),
        Some("stat") => fleet_stat(&args[1..]),
        other => Err(format!(
            "fleet needs a subcommand (simulate|train|serve|route|recover|stat), got {other:?}\n{USAGE}"
        )),
    }
}

fn scenario(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("run") => scenario_run(&args[1..]),
        Some("list") => Ok(scenario_list()),
        other => Err(format!(
            "scenario needs a subcommand (run|list), got {other:?}\n{USAGE}"
        )),
    }
}

fn scenario_list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>16}  timeline", "preset");
    for name in Scenario::preset_names() {
        let s = Scenario::preset(name).expect("listed preset");
        let events: usize = s.epochs.iter().map(|e| e.events.len()).sum();
        let _ = writeln!(
            out,
            "{:>16}  {} buildings, {} epochs, {} events",
            name,
            s.buildings,
            s.epochs.len(),
            events
        );
    }
    out
}

/// `none`, `cadence:K`, or `margin:W:R`.
fn parse_refresh(v: &str) -> Result<RefreshMode, String> {
    if v == "none" {
        return Ok(RefreshMode::None);
    }
    if let Some(k) = v.strip_prefix("cadence:") {
        let k: u32 = k
            .parse()
            .map_err(|_| format!("--refresh: cannot parse cadence {k:?}"))?;
        if k == 0 {
            return Err("--refresh cadence:K needs K >= 1".to_owned());
        }
        return Ok(RefreshMode::Cadence(k));
    }
    RefreshTrigger::parse(v)
        .map(RefreshMode::MarginTrigger)
        .map_err(|e| format!("--refresh: {e}"))
}

fn scenario_run(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let mut scenario = match (flags.get("preset"), flags.get("file")) {
        (Some(name), None) => Scenario::preset(name).ok_or_else(|| {
            format!(
                "unknown scenario preset {name:?} (try: {})",
                Scenario::preset_names().join(", ")
            )
        })?,
        (None, Some(path)) => {
            Scenario::load(std::path::Path::new(path)).map_err(|e| format!("--file {path}: {e}"))?
        }
        _ => {
            return Err(
                "scenario run needs exactly one of --preset NAME or --file scenario.json"
                    .to_owned(),
            )
        }
    };

    // Size overrides, for shrinking a preset to a quick run.
    if let Some(epochs) = flags.parse_opt::<usize>("epochs")? {
        scenario.epochs.truncate(epochs.max(1));
    }
    if let Some(buildings) = flags.parse_opt::<usize>("buildings")? {
        scenario.buildings = buildings.max(1);
    }
    if let Some(rpf) = flags.parse_opt::<usize>("records-per-floor")? {
        scenario.records_per_floor = rpf.max(1);
    }
    for epoch in &mut scenario.epochs {
        if let Some(absorbs) = flags.parse_opt::<usize>("absorbs")? {
            epoch.absorb_per_building = absorbs;
        }
        if let Some(probes) = flags.parse_opt::<usize>("probes")? {
            epoch.probe_per_building = probes;
        }
    }
    if let Some(path) = flags.get("save-scenario") {
        scenario
            .save(std::path::Path::new(path))
            .map_err(|e| format!("--save-scenario {path}: {e}"))?;
    }

    let cfg = ReplayConfig {
        seed: flags.parse_or("seed", 2022)?,
        labels_per_floor: flags.parse_or("labels", 4)?,
        threads: resolve_threads(flags.parse_or("threads", 1)?),
        retention: flags
            .get("retention")
            .map(parse_retention)
            .transpose()?
            .unwrap_or(RetentionPolicy::KeepAll),
        refresh: flags
            .get("refresh")
            .map(parse_refresh)
            .transpose()?
            .unwrap_or(RefreshMode::None),
        grafics: None,
    };
    let report = replay(&scenario, &cfg)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {} (seed {}, refresh {})",
        report.scenario, report.seed, report.refresh
    );
    let _ = writeln!(
        out,
        "{:>20} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "epoch", "acc", "p10", "p50", "refreshes", "pruned", "resident"
    );
    for e in &report.epochs {
        let _ = writeln!(
            out,
            "{:>20} {:>8.3} {:>8.2} {:>8.2} {:>9} {:>9} {:>9}",
            e.label,
            e.accuracy,
            e.margin_p10,
            e.margin_p50,
            e.refreshes,
            e.pruned_macs,
            e.resident_records
        );
    }
    let _ = writeln!(
        out,
        "mean accuracy {:.3}, min {:.3}, {} refreshes over {} epochs",
        report.mean_accuracy(),
        report.min_accuracy(),
        report.total_refreshes(),
        report.epochs.len()
    );
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("--out {path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// `--threads 0` means "use every hardware thread".
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Minimal flag parser: `--key value` pairs.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .as_str();
            pairs.push((key, value));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse {v:?}"))
            })
            .transpose()
    }
}

/// `keepall`, `fifo:N`, or `perfloor:N`.
fn parse_retention(v: &str) -> Result<RetentionPolicy, String> {
    let bad = || format!("--retention: expected keepall|fifo:N|perfloor:N, got {v:?}");
    if v == "keepall" {
        return Ok(RetentionPolicy::KeepAll);
    }
    let (kind, n) = v.split_once(':').ok_or_else(bad)?;
    let n: usize = n.parse().map_err(|_| bad())?;
    match kind {
        "fifo" => Ok(RetentionPolicy::FifoBudget(n)),
        "perfloor" => Ok(RetentionPolicy::PerFloorCap(n)),
        _ => Err(bad()),
    }
}

fn parse_router(v: &str) -> Result<RouterKind, String> {
    match v {
        "overlap" => Ok(RouterKind::Overlap),
        "weighted" => Ok(RouterKind::WeightedOverlap),
        other => Err(format!(
            "--router: expected overlap|weighted, got {other:?}"
        )),
    }
}

fn simulate(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let preset = flags.required("preset")?;
    let floors: i16 = flags.parse_or("floors", 3)?;
    let name = flags.get("name").unwrap_or("building").to_owned();
    let records: usize = flags.parse_or("records-per-floor", 100)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let labels: usize = flags.parse_or("labels", usize::MAX)?;
    let out = flags.required("out")?;

    let building = match preset {
        "office" => BuildingModel::office(&name, floors),
        "mall" => BuildingModel::mall(&name, floors),
        "hospital" => BuildingModel::hospital(&name, floors),
        other => return Err(format!("unknown preset {other:?} (office|mall|hospital)")),
    }
    .with_records_per_floor(records);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = building.simulate(&mut rng);
    if labels != usize::MAX {
        ds = ds.with_label_budget(labels, &mut rng);
    }
    dio::save_jsonl(&ds, out).map_err(|e| e.to_string())?;
    let st = ds.stats();
    Ok(format!(
        "wrote {out}: {} records, {} MACs, {} floors, {} labelled\n",
        st.records, st.macs, st.floors, st.labeled
    ))
}

fn train(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let input = flags.required("input")?;
    let out = flags.required("out")?;
    let labels: usize = flags.parse_or("labels", usize::MAX)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let min_support: usize = flags.parse_or("min-support", 2)?;
    // `--threads 0` means "use every hardware thread"; with >= 2 the
    // offline stages run the Hogwild trainer + parallel dissimilarity
    // matrix, trading bit-reproducibility of training for wall-clock.
    let threads = resolve_threads(flags.parse_or("threads", 1)?);
    let config = GraficsConfig {
        dim: flags.parse_or("dim", GraficsConfig::default().dim)?,
        epochs: flags.parse_or("epochs", GraficsConfig::default().epochs)?,
        threads,
        ..GraficsConfig::default()
    };

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds: Dataset = dio::load_jsonl(input).map_err(|e| e.to_string())?;
    ds = ds.filter_rare_macs(min_support);
    if labels != usize::MAX {
        ds = ds.with_label_budget(labels, &mut rng);
    }
    let model = Grafics::train(&ds, &config, &mut rng).map_err(|e| e.to_string())?;
    model.save_json(out).map_err(|e| e.to_string())?;
    Ok(format!(
        "trained on {} records ({} labelled, {} clusters); model written to {out}\n",
        ds.len(),
        ds.stats().labeled,
        model.clusters().clusters().len()
    ))
}

fn infer(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let model_path = flags.required("model")?;
    let input = flags.required("input")?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let threads = resolve_threads(flags.parse_or("threads", 1)?);

    let mut model = Grafics::load_json(model_path).map_err(|e| e.to_string())?;
    let ds: Dataset = dio::load_jsonl(input).map_err(|e| e.to_string())?;
    let mut out = String::from("record,floor,distance\n");
    if let Some(save) = flags.get("save-model") {
        // Absorbing path: every scan extends the graph; the grown model is
        // written back out for the next serving generation.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (i, s) in ds.samples().iter().enumerate() {
            match model.infer(&s.record, &mut rng) {
                Ok(pred) => {
                    let _ = writeln!(out, "{i},{},{:.6}", pred.floor, pred.distance);
                }
                Err(e) => {
                    let _ = writeln!(out, "{i},discarded,{e}");
                }
            }
        }
        model.save_json(save).map_err(|e| e.to_string())?;
    } else {
        // Read-only serving path: thread-parallel, model untouched.
        let records: Vec<_> = ds.samples().iter().map(|s| s.record.clone()).collect();
        for (i, pred) in model
            .serve_batch(&records, seed, threads)
            .iter()
            .enumerate()
        {
            match pred {
                Some(pred) => {
                    let _ = writeln!(out, "{i},{},{:.6}", pred.floor, pred.distance);
                }
                None => {
                    // Recover the concrete reason for the operator (cheap:
                    // discards are rare and the check is O(readings)).
                    let reason = if model.graph().overlaps(&records[i]) {
                        "could not be embedded"
                    } else {
                        "record shares no MAC with the building graph; discarded"
                    };
                    let _ = writeln!(out, "{i},discarded,{reason}");
                }
            }
        }
    }
    Ok(out)
}

fn evaluate(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let model_path = flags.required("model")?;
    let input = flags.required("input")?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let threads = resolve_threads(flags.parse_or("threads", 1)?);

    let model = Grafics::load_json(model_path).map_err(|e| e.to_string())?;
    let ds: Dataset = dio::load_jsonl(input).map_err(|e| e.to_string())?;
    let records: Vec<_> = ds.samples().iter().map(|s| s.record.clone()).collect();
    let predictions = model.serve_batch(&records, seed, threads);
    let mut cm = ConfusionMatrix::new();
    let mut discarded = 0;
    for (s, pred) in ds.samples().iter().zip(&predictions) {
        match pred {
            Some(pred) => cm.observe(s.ground_truth, pred.floor),
            None => discarded += 1,
        }
    }
    let report = cm.report();
    Ok(format!(
        "{cm}\n{}\ndiscarded: {discarded}\n",
        report.summary_line()
    ))
}

/// Writes one simulated corpus per building of the chosen
/// [`FleetPreset`] population into `--out`.
fn fleet_simulate(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let preset = match flags.required("preset")? {
        "microsoft" => FleetPreset::Microsoft,
        "hongkong" => FleetPreset::HongKong,
        other => {
            return Err(format!(
                "unknown fleet preset {other:?} (microsoft|hongkong)"
            ))
        }
    };
    let buildings: usize = flags.parse_or("buildings", 5)?;
    let records: usize = flags.parse_or("records-per-floor", 100)?;
    let labels: usize = flags.parse_or("labels", usize::MAX)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let out = flags.required("out")?;
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let fleet = preset.generate(buildings, records, &mut rng);
    let mut summary = String::new();
    for building in &fleet {
        let mut ds = building.simulate(&mut rng);
        if labels != usize::MAX {
            ds = ds.with_label_budget(labels, &mut rng);
        }
        let path = std::path::Path::new(out).join(format!("{}.jsonl", building.name));
        dio::save_jsonl(&ds, &path).map_err(|e| e.to_string())?;
        let st = ds.stats();
        let _ = writeln!(
            summary,
            "wrote {}: {} records, {} floors, {} labelled",
            path.display(),
            st.records,
            st.floors,
            st.labeled
        );
    }
    let _ = writeln!(summary, "{} building corpora under {out}", fleet.len());
    Ok(summary)
}

/// Trains one shard per `*.jsonl` under `--data` (building ids follow the
/// sorted file names) and writes `shard-<id>.json` files to `--out`.
fn fleet_train(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let data = flags.required("data")?;
    let out = flags.required("out")?;
    let labels: usize = flags.parse_or("labels", usize::MAX)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let min_support: usize = flags.parse_or("min-support", 2)?;
    let threads = resolve_threads(flags.parse_or("threads", 1)?);
    let config = GraficsConfig {
        dim: flags.parse_or("dim", GraficsConfig::default().dim)?,
        epochs: flags.parse_or("epochs", GraficsConfig::default().epochs)?,
        threads,
        ..GraficsConfig::default()
    };

    let mut corpora: Vec<std::path::PathBuf> = std::fs::read_dir(data)
        .map_err(|e| format!("{data}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    corpora.sort();
    if corpora.is_empty() {
        return Err(format!("no *.jsonl building corpora under {data}"));
    }

    let mut fleet = GraficsFleet::new();
    let mut summary = String::new();
    for (i, path) in corpora.iter().enumerate() {
        // Per-building stream: buildings train independently of how many
        // siblings share the directory.
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut ds: Dataset = dio::load_jsonl(path).map_err(|e| e.to_string())?;
        ds = ds.filter_rare_macs(min_support);
        if labels != usize::MAX {
            ds = ds.with_label_budget(labels, &mut rng);
        }
        let model = Grafics::train(&ds, &config, &mut rng)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            summary,
            "b{i} <- {}: {} records, {} clusters",
            path.display(),
            ds.len(),
            model.clusters().clusters().len()
        );
        fleet
            .add_shard(BuildingId(i as u32), model)
            .map_err(|e| e.to_string())?;
    }
    // Persist the serving configuration alongside the shards: the
    // manifest makes the directory self-describing, so `fleet serve`
    // needs no runtime flags to reproduce this deployment.
    if let Some(r) = flags.get("retention") {
        fleet.set_retention(parse_retention(r)?);
    }
    if let Some(r) = flags.get("router") {
        fleet.set_router(parse_router(r)?);
    }
    let maintenance = MaintenancePolicy {
        publish_after_absorbs: flags.parse_opt("publish-after-absorbs")?,
        publish_after_secs: flags.parse_opt("publish-after-secs")?,
        refresh_every_publishes: flags.parse_opt("refresh-every")?,
        refresh_trigger: flags
            .get("refresh-trigger")
            .map(|s| RefreshTrigger::parse(s).map_err(|e| format!("--refresh-trigger: {e}")))
            .transpose()?,
    };
    if maintenance.publish_after_absorbs == Some(0)
        || maintenance.refresh_every_publishes == Some(0)
    {
        return Err(
            "--publish-after-absorbs/--refresh-every must be >= 1 (omit to disable)".into(),
        );
    }
    if maintenance.refresh_trigger.is_some_and(|t| t.is_noop()) {
        return Err("--refresh-trigger margin:W:R needs W >= 1 and R > 0".into());
    }
    if maintenance.publish_after_secs.is_some_and(|t| t <= 0.0) {
        return Err("--publish-after-secs must be > 0 (omit to disable)".into());
    }
    if !maintenance.is_noop() {
        fleet.set_maintenance(maintenance);
    }
    if let Some(d) = flags.get("durability") {
        fleet.set_durability(DurabilityPolicy::parse(d).map_err(|e| format!("--durability: {e}"))?);
    }
    fleet.save_dir(out).map_err(|e| e.to_string())?;
    let _ = writeln!(summary, "{} shard models written to {out}", fleet.len());
    Ok(summary)
}

/// `--budget fixed:N | adaptive:MAX:MIN:RATIO` and `--precision f64|f32`
/// → the deployment-level [`ServingPolicy`] (`None` when neither flag is
/// given, deferring to the models' own configs).
fn parse_serving_policy(flags: &Flags) -> Result<Option<ServingPolicy>, String> {
    let budget = match flags.get("budget") {
        None => None,
        Some(spec) => Some(match spec.split_once(':') {
            Some(("fixed", n)) => OnlineBudget::Fixed(
                n.parse()
                    .map_err(|_| format!("--budget fixed:N: bad N in {spec:?}"))?,
            ),
            Some(("adaptive", rest)) => {
                let parts: Vec<&str> = rest.split(':').collect();
                let [max, min, ratio] = parts[..] else {
                    return Err(format!("--budget adaptive:MAX:MIN:RATIO, got {spec:?}"));
                };
                OnlineBudget::Adaptive {
                    max_spe: max
                        .parse()
                        .map_err(|_| format!("--budget: bad MAX in {spec:?}"))?,
                    min_spe: min
                        .parse()
                        .map_err(|_| format!("--budget: bad MIN in {spec:?}"))?,
                    margin_ratio: ratio
                        .parse()
                        .map_err(|_| format!("--budget: bad RATIO in {spec:?}"))?,
                }
            }
            _ => {
                return Err(format!(
                    "--budget fixed:N|adaptive:MAX:MIN:RATIO, got {spec:?}"
                ))
            }
        }),
    };
    if let Some(b) = budget {
        b.validate()
            .map_err(|e| format!("--budget {:?}: {e}", flags.get("budget").unwrap_or("")))?;
    }
    let precision = match flags.get("precision") {
        None => None,
        Some("f64") => Some(MatchPrecision::F64),
        Some("f32") => Some(MatchPrecision::F32Refined),
        Some(other) => return Err(format!("--precision f64|f32, got {other:?}")),
    };
    if budget.is_none() && precision.is_none() {
        return Ok(None);
    }
    Ok(Some(ServingPolicy { budget, precision }))
}

/// Serves a scan stream through the routed fleet (read-only), or — with
/// `--http ADDR` — starts the network front end over it.
fn fleet_serve(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let models = flags.required("models")?;
    if let Some(addr) = flags.get("http") {
        return fleet_serve_http(&flags, models, addr);
    }
    let input = flags.required("input")?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let threads = resolve_threads(flags.parse_or("threads", 1)?);

    let mut fleet = GraficsFleet::load_dir(models).map_err(|e| e.to_string())?;
    if let Some(policy) = parse_serving_policy(&flags)? {
        fleet.set_serving(policy);
    }
    let ds: Dataset = dio::load_jsonl(input).map_err(|e| e.to_string())?;
    let records: Vec<_> = ds.samples().iter().map(|s| s.record.clone()).collect();
    let mut out = String::from("record,building,floor,distance,margin\n");
    for (i, pred) in fleet
        .serve_batch(&records, seed, threads)
        .iter()
        .enumerate()
    {
        match pred {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "{i},{},{},{:.6},{:.6}",
                    p.building, p.floor, p.distance, p.margin
                );
            }
            None => {
                let _ = writeln!(out, "{i},discarded,,,");
            }
        }
    }
    Ok(out)
}

/// Blocks serving the fleet over HTTP until SIGINT/SIGTERM drains it.
///
/// The fleet loads through [`GraficsFleet::recover`]: on a durable
/// directory (manifest `durability` != off) the WAL tail is replayed
/// onto each write side as pending absorbs, each shard serves its last
/// published checkpoint, and the absorb sequence resumes past every
/// journalled index. The replayed entries stay in the logs until each
/// shard's next publish checkpoints them.
fn fleet_serve_http(flags: &Flags, models: &str, addr: &str) -> Result<String, String> {
    let workers = resolve_threads(flags.parse_or("workers", 2)?);
    let seed: u64 = flags.parse_or("seed", 0)?;
    let (mut fleet, recovery) = GraficsFleet::recover(models).map_err(|e| e.to_string())?;
    if let Some(policy) = parse_serving_policy(flags)? {
        fleet.set_serving(policy);
    }
    let shards = fleet.len();
    let maintenance = fleet.maintenance();
    let config = ServeConfig {
        workers,
        seed,
        handle_signals: true,
        access_log: flags.get("access-log").map(std::path::PathBuf::from),
        auth_token: flags.get("auth-token").map(str::to_owned),
        ..ServeConfig::default()
    };
    let server = HttpServer::bind(fleet, addr, config).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    let state = std::sync::Arc::clone(server.state());
    // Never reuse a journalled RNG index: replayed absorbs already burned
    // theirs, and reuse would fork the deterministic write-side history.
    state.resume_absorb_seq(recovery.next_rng_index);
    if recovery.total_replayed() > 0 || recovery.any_torn() {
        state.count_recovery();
        eprintln!(
            "recovered {} journalled absorb(s) across {} shard(s){}",
            recovery.total_replayed(),
            recovery.shards.len(),
            if recovery.any_torn() {
                " (torn WAL tail dropped)"
            } else {
                ""
            },
        );
    }
    eprintln!(
        "serving {shards} shard(s) on http://{local} ({workers} workers; \
         publish after {:?} absorbs / {:?} s, refresh every {:?} publishes); \
         Ctrl-C drains and exits",
        maintenance.publish_after_absorbs,
        maintenance.publish_after_secs,
        maintenance.refresh_every_publishes,
    );
    let report = server.run().map_err(|e| e.to_string())?;
    Ok(format!(
        "served {} requests: {} absorbs, {} auto-publishes, {} background refreshes\n",
        report.requests, report.absorbs, report.maintenance_publishes, report.maintenance_refreshes
    ))
}

/// `--backends [name=]host:port[,...]` → backend specs; bare addresses
/// get positional names `backend-0`, `backend-1`, ….
fn parse_backends(spec: &str) -> Result<Vec<BackendSpec>, String> {
    let mut backends = Vec::new();
    for (i, part) in spec.split(',').enumerate() {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("--backends: empty entry in {spec:?}"));
        }
        let (name, addr) = match part.split_once('=') {
            Some((name, addr)) if !name.is_empty() && !addr.is_empty() => {
                (name.to_owned(), addr.to_owned())
            }
            Some(_) => return Err(format!("--backends: bad entry {part:?}")),
            None => (format!("backend-{i}"), part.to_owned()),
        };
        backends.push(BackendSpec { name, addr });
    }
    Ok(backends)
}

/// Starts the model-free router tier: health-probed, breaker-guarded
/// proxying of `/v1/*` to per-building `fleet serve --http` backends.
/// Blocks until killed.
fn fleet_route(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let addr = flags.required("http")?;
    let mut manifest = match flags.get("manifest") {
        Some(dir) => grafics_core::read_router_manifest(dir).map_err(|e| format!("{dir}: {e}"))?,
        None => RouterManifest::default(),
    };
    if let Some(spec) = flags.get("backends") {
        manifest.backends = parse_backends(spec)?;
    }
    if manifest.backends.is_empty() {
        return Err(
            "router needs --backends [name=]host:port[,...] or a --manifest DIR whose \
             router.json lists backends"
                .to_owned(),
        );
    }
    if let Some(spec) = flags.get("health") {
        manifest.health = HealthPolicy::parse(spec).map_err(|e| format!("--health: {e}"))?;
    }
    if let Some(spec) = flags.get("breaker") {
        manifest.breaker = BreakerPolicy::parse(spec).map_err(|e| format!("--breaker: {e}"))?;
    }
    if let Some(spec) = flags.get("rate-limit") {
        manifest.rate_limit =
            RateLimitPolicy::parse(spec).map_err(|e| format!("--rate-limit: {e}"))?;
    }
    if let Some(token) = flags.get("auth-token") {
        manifest.auth_token = Some(token.to_owned());
    }
    let backends = manifest.backends.len();
    let config = RouterConfig {
        manifest,
        backend_timeout: std::time::Duration::from_millis(flags.parse_or("deadline-ms", 2000)?),
        retries: flags.parse_or("retries", 2)?,
        ..RouterConfig::default()
    };
    let server = RouterServer::bind(config, addr).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr();
    eprintln!("routing {backends} backend(s) on http://{local}");
    let report = server.run().map_err(|e| e.to_string())?;
    Ok(format!("routed {} request(s)\n", report.requests))
}

/// Replays and compacts a durable fleet directory by hand, printing what
/// each shard recovered. Recovery itself only replays; publishing every
/// shard then checkpoints the replayed state and truncates each WAL to
/// its header. Useful after a crash before bringing the HTTP front end
/// back, or to verify a copied-off directory.
fn fleet_recover(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let models = flags.required("models")?;
    let (fleet, report) = GraficsFleet::recover(models).map_err(|e| e.to_string())?;
    // Publish is the checkpoint: it folds the replay into
    // `checkpoint-<id>.json` and truncates the log. A failed checkpoint
    // poisons the shard's WAL, which the drain reports.
    fleet.publish_all();
    fleet.drain_wal().map_err(|e| e.to_string())?;
    let mut out = String::new();
    for s in &report.shards {
        let _ = writeln!(
            out,
            "b{}: {} watermark {}, replayed {}, skipped {}{}",
            s.building.0,
            if s.from_checkpoint {
                "checkpoint"
            } else {
                "legacy model"
            },
            s.watermark,
            s.replayed,
            s.skipped,
            if s.torn { ", torn tail dropped" } else { "" },
        );
    }
    let _ = writeln!(
        out,
        "recovered {} shard(s): {} absorb(s) replayed; next absorb index {}",
        report.shards.len(),
        report.total_replayed(),
        report.next_rng_index
    );
    Ok(out)
}

/// Per-shard structural statistics of a saved fleet.
fn fleet_stat(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let models = flags.required("models")?;
    let fleet = GraficsFleet::load_dir(models).map_err(|e| e.to_string())?;
    let manifest = fleet.manifest();
    let mut out = fleet.stats().to_string();
    let _ = writeln!(
        out,
        "manifest: router={:?} retention={:?} maintenance={:?} durability={:?}",
        manifest.router, manifest.retention, manifest.maintenance, manifest.durability
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| (*p).to_owned()).collect()
    }

    /// A fresh directory owned by one test: its name plus the process
    /// id, so tests running in parallel (or two test processes) never
    /// touch each other's files. Each test removes only its own.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("grafics-cli-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_in(dir: &std::path::Path, name: &str) -> String {
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&[]).unwrap().contains("commands:"));
        assert!(run(&s(&["help"])).unwrap().contains("simulate"));
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn flags_parser_validates() {
        assert!(Flags::parse(&s(&["--a"])).is_err());
        assert!(Flags::parse(&s(&["a", "b"])).is_err());
        let args = s(&["--a", "1", "--b", "x"]);
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get("a"), Some("1"));
        assert_eq!(f.required("b").unwrap(), "x");
        assert!(f.required("c").is_err());
        assert_eq!(f.parse_or("a", 0usize).unwrap(), 1);
        assert!(f.parse_or("b", 0usize).is_err());
    }

    #[test]
    fn backends_parse_named_and_positional() {
        let specs = parse_backends("a=127.0.0.1:1,127.0.0.1:2").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(
            (specs[0].name.as_str(), specs[0].addr.as_str()),
            ("a", "127.0.0.1:1")
        );
        assert_eq!(specs[1].name, "backend-1");
        assert!(parse_backends("").is_err());
        assert!(parse_backends("a,=x").is_err());
        assert!(parse_backends("=127.0.0.1:1").is_err());
    }

    #[test]
    fn route_requires_backends_and_validates_policies() {
        let err = run(&s(&["fleet", "route", "--http", "127.0.0.1:0"])).unwrap_err();
        assert!(err.contains("--backends"), "{err}");
        let err = run(&s(&[
            "fleet",
            "route",
            "--http",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:1",
            "--health",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.contains("--health"), "{err}");
        let err = run(&s(&[
            "fleet",
            "route",
            "--http",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:1",
            "--rate-limit",
            "fast",
        ]))
        .unwrap_err();
        assert!(err.contains("--rate-limit"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_preset() {
        let dir = test_dir("simulate_rejects_bad_preset");
        let out = file_in(&dir, "bad.jsonl");
        let err = run(&s(&["simulate", "--preset", "castle", "--out", &out])).unwrap_err();
        assert!(err.contains("unknown preset"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_accepts_threads_flag() {
        let dir = test_dir("train_accepts_threads_flag");
        let corpus = file_in(&dir, "threads-corpus.jsonl");
        let model = file_in(&dir, "threads-model.json");
        run(&s(&[
            "simulate",
            "--preset",
            "office",
            "--floors",
            "2",
            "--records-per-floor",
            "30",
            "--seed",
            "3",
            "--labels",
            "4",
            "--out",
            &corpus,
        ]))
        .unwrap();
        let msg = run(&s(&[
            "train",
            "--input",
            &corpus,
            "--epochs",
            "20",
            "--threads",
            "4",
            "--out",
            &model,
        ]))
        .unwrap();
        assert!(msg.contains("trained on"), "{msg}");
        // The trained model must serve predictions like any serial model.
        let eval = run(&s(&["evaluate", "--model", &model, "--input", &corpus])).unwrap();
        assert!(eval.contains("micro-F"), "{eval}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infer_is_thread_count_invariant() {
        let dir = test_dir("infer_is_thread_count_invariant");
        let corpus = file_in(&dir, "serve-corpus.jsonl");
        let model = file_in(&dir, "serve-model.json");
        run(&s(&[
            "simulate",
            "--preset",
            "office",
            "--floors",
            "2",
            "--records-per-floor",
            "30",
            "--seed",
            "8",
            "--labels",
            "4",
            "--out",
            &corpus,
        ]))
        .unwrap();
        run(&s(&[
            "train", "--input", &corpus, "--epochs", "20", "--out", &model,
        ]))
        .unwrap();
        let serial = run(&s(&["infer", "--model", &model, "--input", &corpus])).unwrap();
        let parallel = run(&s(&[
            "infer",
            "--model",
            &model,
            "--input",
            &corpus,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(serial, parallel, "--threads must not change predictions");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_cli_workflow() {
        let base = test_dir("fleet_cli_workflow");
        let data = base.join("data").to_string_lossy().into_owned();
        let models = base.join("models").to_string_lossy().into_owned();

        // Simulate a tiny Hong Kong-like fleet trimmed to 2 buildings by
        // using the Microsoft preset with --buildings 2.
        let msg = run(&s(&[
            "fleet",
            "simulate",
            "--preset",
            "microsoft",
            "--buildings",
            "2",
            "--records-per-floor",
            "30",
            "--labels",
            "4",
            "--seed",
            "5",
            "--out",
            &data,
        ]))
        .unwrap();
        assert!(msg.contains("2 building corpora"), "{msg}");

        // Train one shard per corpus, persisting a serving configuration
        // in the directory manifest.
        let msg = run(&s(&[
            "fleet",
            "train",
            "--data",
            &data,
            "--epochs",
            "20",
            "--seed",
            "1",
            "--retention",
            "fifo:64",
            "--router",
            "weighted",
            "--publish-after-absorbs",
            "8",
            "--out",
            &models,
        ]))
        .unwrap();
        assert!(msg.contains("2 shard models"), "{msg}");

        // Serve one of the corpora through the routed fleet; output must
        // be thread-count invariant and carry the margin column.
        let scans = std::fs::read_dir(&data)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path()
            .to_string_lossy()
            .into_owned();
        let serial = run(&s(&[
            "fleet", "serve", "--models", &models, "--input", &scans,
        ]))
        .unwrap();
        assert!(serial.starts_with("record,building,floor,distance,margin"));
        let parallel = run(&s(&[
            "fleet",
            "serve",
            "--models",
            &models,
            "--input",
            &scans,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(serial, parallel, "--threads must not change fleet output");
        // Essentially all scans should route to one building (b0 or b1).
        let routed: Vec<&str> = serial
            .lines()
            .skip(1)
            .filter_map(|l| l.split(',').nth(1))
            .collect();
        assert!(routed.iter().filter(|b| b.starts_with('b')).count() * 10 >= routed.len() * 9);

        // Stats cover both shards, and the manifest written at train
        // time is reloaded without runtime flags.
        let stat = run(&s(&["fleet", "stat", "--models", &models])).unwrap();
        assert!(stat.contains("shards: 2"), "{stat}");
        assert!(stat.contains("b0,") && stat.contains("b1,"), "{stat}");
        assert!(stat.contains("WeightedOverlap"), "{stat}");
        assert!(stat.contains("FifoBudget(64)"), "{stat}");
        assert!(stat.contains("publish_after_absorbs: Some(8)"), "{stat}");

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn fleet_durable_train_recover_roundtrip() {
        let base = test_dir("fleet_durable_train_recover_roundtrip");
        let data = base.join("data").to_string_lossy().into_owned();
        let models = base.join("models").to_string_lossy().into_owned();

        run(&s(&[
            "fleet",
            "simulate",
            "--preset",
            "microsoft",
            "--buildings",
            "2",
            "--records-per-floor",
            "30",
            "--labels",
            "4",
            "--seed",
            "5",
            "--out",
            &data,
        ]))
        .unwrap();
        let msg = run(&s(&[
            "fleet",
            "train",
            "--data",
            &data,
            "--epochs",
            "20",
            "--seed",
            "1",
            "--durability",
            "fsync:8",
            "--out",
            &models,
        ]))
        .unwrap();
        assert!(msg.contains("2 shard models"), "{msg}");

        let files = || {
            let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&models)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
                .collect();
            files.sort();
            files
        };
        // The manifest persists the policy, and `fleet stat` only reads:
        // it opens no WAL of the freshly trained directory.
        let trained = files();
        let stat = run(&s(&["fleet", "stat", "--models", &models])).unwrap();
        assert!(stat.contains("FsyncEveryN(8)"), "{stat}");
        assert!(files() == trained, "fleet stat wrote to {models}");
        // …a bad spec is rejected at train time…
        let err = run(&s(&[
            "fleet",
            "train",
            "--data",
            &data,
            "--durability",
            "fsync:soon",
            "--out",
            &models,
        ]))
        .unwrap_err();
        assert!(err.contains("--durability"), "{err}");

        // …and recovery of the freshly trained (empty-WAL) directory is a
        // clean no-op that still reports per-shard detail.
        let msg = run(&s(&["fleet", "recover", "--models", &models])).unwrap();
        assert!(msg.contains("recovered 2 shard(s)"), "{msg}");
        assert!(msg.contains("0 absorb(s) replayed"), "{msg}");
        assert!(msg.contains("b0:"), "{msg}");

        // A journalled tail: recovery alone leaves it in the log, and
        // `fleet recover` then publishes every shard, which checkpoints
        // the replay and truncates every WAL to its header.
        let corpus = std::fs::read_dir(&data).unwrap().next().unwrap().unwrap();
        let ds = dio::load_jsonl(corpus.path()).unwrap();
        {
            let (fleet, _) = GraficsFleet::recover(&models).unwrap();
            for (i, sample) in (0..3u64).zip(ds.samples()) {
                fleet.absorb_durable(&sample.record, 1, i).unwrap();
            }
        }
        let wal_files = || {
            std::fs::read_dir(&models)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect::<Vec<_>>()
        };
        let entries =
            |path: &std::path::Path| std::fs::read_to_string(path).unwrap().lines().count() - 1;
        assert_eq!(wal_files().iter().map(|p| entries(p)).sum::<usize>(), 3);
        // Sums one `fleet stat` column (pending or absorbed) over shards.
        let column = |stat: &str, name: &str| -> usize {
            let mut rows = stat.lines();
            let at = rows
                .next()
                .unwrap()
                .split(',')
                .position(|c| c == name)
                .unwrap();
            rows.take_while(|row| !row.starts_with("shards:"))
                .map(|row| row.split(',').nth(at).unwrap().parse::<usize>().unwrap())
                .sum()
        };
        // A torn last line, as a crash mid-append (or an append still in
        // flight) leaves it.
        let wal0 = base.join("models").join("wal-0.jsonl");
        let mut torn = std::fs::read(&wal0).unwrap();
        torn.extend_from_slice(b"{\"seq\":");
        std::fs::write(&wal0, torn).unwrap();
        // `fleet stat` and `fleet serve --input` read the recovered state:
        // the 3 journalled absorbs, pending on the write sides. They
        // leave every file as it was, the torn line included.
        let before = files();
        let stat = run(&s(&["fleet", "stat", "--models", &models])).unwrap();
        assert_eq!(column(&stat, "absorbed"), 3, "{stat}");
        assert_eq!(column(&stat, "pending"), 3, "{stat}");
        let csv = run(&s(&[
            "fleet",
            "serve",
            "--models",
            &models,
            "--input",
            &corpus.path().to_string_lossy(),
        ]))
        .unwrap();
        assert!(csv.lines().count() > 1, "{csv}");
        assert!(files() == before, "a report-only command wrote to {models}");
        let msg = run(&s(&["fleet", "recover", "--models", &models])).unwrap();
        assert!(msg.contains("3 absorb(s) replayed"), "{msg}");
        // After the publish, the checkpoints hold the 3 absorbs.
        let stat = run(&s(&["fleet", "stat", "--models", &models])).unwrap();
        assert_eq!(column(&stat, "absorbed"), 3, "{stat}");
        assert_eq!(column(&stat, "pending"), 0, "{stat}");
        assert_eq!(wal_files().len(), 2);
        for path in wal_files() {
            assert_eq!(entries(&path), 0, "{}: not header-only", path.display());
        }
        let msg = run(&s(&["fleet", "recover", "--models", &models])).unwrap();
        assert!(msg.contains("0 absorb(s) replayed"), "{msg}");

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn fleet_rejects_bad_usage() {
        assert!(run(&s(&["fleet"])).is_err());
        assert!(run(&s(&["fleet", "frobnicate"])).is_err());
        let empty = test_dir("fleet_rejects_bad_usage");
        let e = empty.to_string_lossy().into_owned();
        assert!(run(&s(&["fleet", "train", "--data", &e, "--out", &e])).is_err());
        assert!(run(&s(&["fleet", "stat", "--models", &e])).is_err());
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn full_cli_workflow() {
        let dir = test_dir("full_cli_workflow");
        let corpus = file_in(&dir, "corpus.jsonl");
        let test_set = file_in(&dir, "test.jsonl");
        let model = file_in(&dir, "model.json");

        // Simulate a labelled training corpus and a test corpus.
        let msg = run(&s(&[
            "simulate",
            "--preset",
            "office",
            "--floors",
            "2",
            "--records-per-floor",
            "40",
            "--seed",
            "1",
            "--labels",
            "4",
            "--out",
            &corpus,
        ]))
        .unwrap();
        assert!(msg.contains("2 floors"), "{msg}");
        run(&s(&[
            "simulate",
            "--preset",
            "office",
            "--floors",
            "2",
            "--records-per-floor",
            "10",
            "--seed",
            "1",
            "--out",
            &test_set,
        ]))
        .unwrap();

        // Train.
        let msg = run(&s(&[
            "train", "--input", &corpus, "--epochs", "30", "--seed", "2", "--out", &model,
        ]))
        .unwrap();
        assert!(msg.contains("8 clusters"), "{msg}");

        // Infer: CSV output with one row per record.
        let csv = run(&s(&["infer", "--model", &model, "--input", &test_set])).unwrap();
        assert!(csv.starts_with("record,floor,distance"));
        assert_eq!(csv.lines().count(), 21);

        // Evaluate: same-building same-layout test set scores highly.
        let eval = run(&s(&["evaluate", "--model", &model, "--input", &test_set])).unwrap();
        assert!(eval.contains("micro-F"), "{eval}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
