//! Durable-ingestion smoke: what the absorb WAL costs, printed as JSON
//! for BENCH_*.json trajectories.
//!
//! Three arms absorb the same record stream into the same trained fleet,
//! differing only in the manifest's `DurabilityPolicy`:
//!
//! - **off** — no journalling; the in-memory absorb path is the ceiling.
//! - **fsync64** — group commit, one fsync per 64 appended records. The
//!   acceptance bar: within 0.8× of the `off` arm (the flusher thread
//!   batches appends off the absorb path, so the hot loop only pays an
//!   encode + enqueue).
//! - **fsync1** — fsync every append, the worst-case durability tax.
//!
//! Every arm ends with a `drain_wal` barrier inside the timed window, so
//! acknowledged-but-unflushed appends cannot flatter a durable arm, and
//! every durable arm verifies `wal_stats().appends` equals its accepted
//! count — the journal really saw every acknowledged absorb.
//!
//! ```sh
//! cargo run --release -p grafics-bench --bin wal_smoke [-- --absorbs N]
//! ```

use grafics_bench::{train_serving_fleet, ExperimentConfig};
use grafics_core::{GraficsConfig, GraficsFleet, RetentionPolicy};
use grafics_data::BuildingModel;
use grafics_types::{BuildingId, DurabilityPolicy, SignalRecord};
use std::time::Instant;

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Absorbs `stream` into a fresh copy of the saved fleet under `policy`,
/// returning `(accepted, qps)` with the final WAL drain inside the timed
/// window.
fn run_arm(
    dir: &std::path::Path,
    policy: DurabilityPolicy,
    stream: &[(BuildingId, SignalRecord)],
    seed: u64,
) -> (u64, f64) {
    let (fleet, _) = GraficsFleet::recover(dir).expect("recover fleet");
    let mut accepted = 0u64;
    let t = Instant::now();
    for (i, (building, record)) in stream.iter().enumerate() {
        if fleet
            .absorb_to_durable(*building, record, seed, i as u64)
            .is_ok()
        {
            accepted += 1;
        }
    }
    fleet.drain_wal().expect("WAL drains clean");
    let secs = t.elapsed().as_secs_f64();
    if !policy.is_off() {
        assert_eq!(
            fleet.wal_stats().appends,
            accepted,
            "every acknowledged absorb must be journalled"
        );
    }
    (accepted, accepted as f64 / secs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let absorbs = flag(&args, "--absorbs", 300);
    let buildings = flag(&args, "--buildings", 2);
    let records_per_floor = flag(&args, "--records-per-floor", 40);
    let seed = 2027u64;

    let fleet_models: Vec<BuildingModel> = (0..buildings)
        .map(|i| {
            BuildingModel::office(&format!("wal-{i}"), 3).with_records_per_floor(records_per_floor)
        })
        .collect();
    let cfg = ExperimentConfig {
        threads: 1,
        seed,
        ..Default::default()
    };
    let grafics = GraficsConfig {
        epochs: 30,
        ..GraficsConfig::serving()
    };
    let (mut fleet, tagged) =
        train_serving_fleet(&fleet_models, &cfg, Some(grafics), RetentionPolicy::KeepAll);
    let stream: Vec<(BuildingId, SignalRecord)> = tagged
        .iter()
        .map(|(b, _, r)| (*b, r.clone()))
        .cycle()
        .take(absorbs)
        .collect();

    // One saved directory per arm: each run absorbs into a fresh copy of
    // the same trained fleet, so no arm pays for another's WAL tail.
    let base = std::env::temp_dir().join(format!("grafics-wal-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let arms = [
        ("off", DurabilityPolicy::Off),
        ("fsync64", DurabilityPolicy::FsyncEveryN(64)),
        ("fsync1", DurabilityPolicy::FsyncEveryN(1)),
    ];
    let mut results = Vec::new();
    for (name, policy) in arms {
        let dir = base.join(name);
        fleet.set_durability(policy);
        fleet.save_dir(&dir).expect("save fleet");
        results.push(run_arm(&dir, policy, &stream, seed));
    }
    std::fs::remove_dir_all(&base).ok();

    let [(accepted_off, qps_off), (accepted_64, qps_64), (accepted_1, qps_1)] = results[..] else {
        unreachable!("three arms");
    };
    // Identical fleet, stream, and RNG indices in every arm: the
    // durability policy must not change *what* absorbs, only how it is
    // made crash-proof.
    assert_eq!(accepted_off, accepted_64, "arms must accept identically");
    assert_eq!(accepted_off, accepted_1, "arms must accept identically");
    assert!(accepted_off * 10 >= absorbs as u64 * 5, "{accepted_off}");

    let ratio_64 = qps_64 / qps_off;
    let ratio_1 = qps_1 / qps_off;
    // Soft floors: the acceptance bar for group commit is 0.8; tripping
    // at 0.6 (and 0.2 for fsync-per-append) catches a real regression
    // without flaking on CI filesystem noise.
    assert!(
        ratio_64 > 0.6,
        "group-commit absorb qps collapsed: {ratio_64:.2} of durability-off"
    );
    assert!(
        ratio_1 > 0.2,
        "fsync-per-append absorb qps collapsed: {ratio_1:.2} of durability-off"
    );

    let arm_off = serde_json::json!({ "qps": qps_off });
    let arm_64 = serde_json::json!({ "qps": qps_64, "ratio_vs_off": ratio_64 });
    let arm_1 = serde_json::json!({ "qps": qps_1, "ratio_vs_off": ratio_1 });
    let payload = serde_json::json!({
        "benchmark": "wal_smoke",
        "corpus": format!("{buildings}x office-3f, {records_per_floor}/floor"),
        "absorbs": absorbs,
        "accepted": accepted_off,
        "off": arm_off,
        "fsync64": arm_64,
        "fsync1": arm_1,
        "acceptance": "fsync64 within 0.8x of off (soft floor 0.6 against CI noise)",
        "method": "same trained fleet saved per arm; same record stream and RNG indices; drain_wal barrier inside every timed window; durable arms assert wal appends == accepted",
    });
    println!("{}", serde_json::to_string_pretty(&payload).unwrap());
}
