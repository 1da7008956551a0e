//! The GRAFICS benchmark: one command runs a named workload on inputs
//! made from a seed, checks the outputs, and prints the end-to-end
//! metrics (untraced) or the per-layer metrics (traced) as the last line
//! of standard output.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve-http --seed 1 --seconds 20 --trace 0
//! ```
//!
//! (`run.py` builds this package in release mode, then runs it with the
//! same arguments.)
//!
//! Run it from the repository root: inputs, fleet directories and span
//! files live under `.perfbench/` there, and the build flags reported in
//! the environment line come from `.cargo/config.toml`.

mod corpus;
mod cpu;
mod load;
mod probes;
mod report;
mod trace;
mod workloads;

use report::Report;
use std::path::{Path, PathBuf};
use workloads::{Scale, Settings, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <label-offline|serve-http|ingest-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Metrics of an untraced run, with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("label_rps", "records/s"),
    ("micro_f", "ratio"),
    ("macro_f", "ratio"),
    ("infer_p50_us", "us"),
    ("absorb_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Metrics of a traced run, with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("graph.build_ms", "ms"),
    ("graph.edges", "count"),
    ("embed.train_s", "s"),
    ("embed.edge_samples_per_s", "1/s"),
    ("embed.refine_us_p50", "us"),
    ("embed.refine_samples_per_query", "count"),
    ("embed.early_stop_ratio", "ratio"),
    ("cluster.dissimilarity_s", "s"),
    ("cluster.fit_s", "s"),
    ("cluster.match_us_p50", "us"),
    ("cluster.f32_fallback_ratio", "ratio"),
    ("kernels.sgd_updates_per_query", "count"),
    ("kernels.match_bytes_per_query", "B"),
    ("core.load_s", "s"),
    ("core.wal_replayed", "count"),
    ("core.route_us_p50", "us"),
    ("core.serve_us_p50", "us"),
    ("core.absorb_us_p50", "us"),
    ("core.publish_ms_p50", "ms"),
    ("core.wal_appends_per_fsync", "ratio"),
    ("serve.parse_us_p50", "us"),
    ("serve.json_decode_us_p50", "us"),
    ("serve.dispatch_us_p50", "us"),
    ("serve.json_encode_us_p50", "us"),
    ("serve.write_us_p50", "us"),
    ("serve.gap_us_p50", "us"),
    ("serve.layers_sum_us_p50", "us"),
    ("serve.roundtrip_us_p50", "us"),
    ("router.hop_us_p50", "us"),
    ("router.backend_retries", "count"),
    ("router.degraded", "count"),
    ("client.infer_p99_us", "us"),
    ("client.infer_samples", "count"),
    ("trace.overhead_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The build flags in effect: `RUSTFLAGS` if set, else the `rustflags`
/// line of `.cargo/config.toml`.
fn rustflags() -> String {
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return flags;
    }
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|config| {
            config
                .lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .and_then(|l| l.split_once('='))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_default()
}

/// The commit of a git checkout, read without running git; `unknown`
/// in an exported tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_owned)
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit.to_owned()
    }
}

fn environment(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"environment\":{{\"nproc\":{nproc},\"rustflags\":{:?},\"target_cpu_native_avx2\":{},\"profile\":\"{}\",\"git_commit\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        rustflags(),
        cfg!(target_feature = "avx2"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    )
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and keeps the metrics of the run's kind; a metric
/// the kind declares but the run did not produce is an error.
fn execute(args: &Args, scale: Scale, out_dir: &Path) -> Result<Report, String> {
    let work = WorkDir(out_dir.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale,
        work: work.0.clone(),
    };
    trace::reset();
    if args.trace {
        trace::enable();
    }
    let mut all = workloads::run(&args.workload, &settings)?;
    all.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    all.metric("success_ratio", all.success_ratio(), "ratio");
    all.select(if args.trace { &PER_LAYER } else { &END_TO_END })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = environment(&args);
    println!("{env}");
    let out_dir = PathBuf::from(".perfbench");
    match execute(&args, Scale::full(), &out_dir) {
        Ok(report) => {
            for why in &report.failures {
                eprintln!("check failed: {why}");
            }
            if args.trace {
                let spans = trace::collected();
                let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
                if let Err(e) = trace::write_jsonl(&path, &env, &spans) {
                    eprintln!("writing {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("{} spans written to {}", spans.len(), path.display());
                let p50 = |name| report.get(name).map_or(0.0, |(v, _)| v);
                eprintln!(
                    "server layers (parse + dispatch + write) p50 sum {:.1} us, direct round trip p50 {:.1} us, tracing overhead {:.1} us",
                    p50("serve.layers_sum_us_p50"),
                    p50("serve.roundtrip_us_p50"),
                    p50("trace.overhead_us"),
                );
            }
            println!("{}", report.json_line());
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod selftest {
    //! Every workload end to end at toy size: every declared metric is
    //! present with its unit and every output check passes.

    use super::*;

    fn declared(names: &[(&str, &str)], kind: &str) {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark");
        for (name, unit) in names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{name} ({unit}) missing from {kind} in BENCHMARK.json"
            );
        }
    }

    fn toy(workload: &str, trace: bool) {
        let args = Args {
            workload: workload.to_owned(),
            seed: 3,
            seconds: 1.0,
            trace,
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("selftest-{}", std::process::id()));
        let report = execute(&args, Scale::toy(), &dir).expect("toy run completes");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
        let line = report.json_line();
        let kind: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in kind {
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload}: {name} missing from {line}"
            );
            assert_eq!(report.get(name).map(|(_, u)| u), Some(*unit));
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        declared(&END_TO_END, "end_to_end");
        declared(&PER_LAYER, "per_layer");
    }

    // The tracer is process-global, so one test runs every workload in
    // both kinds, one after another.
    #[test]
    fn every_workload_at_toy_size() {
        for workload in WORKLOADS {
            toy(workload, false);
            toy(workload, true);
            trace::disable();
        }
    }
}
