//! Recovery runs its per-shard work on a loader pool that is started
//! once per process: recovering and dropping a durable fleet over and
//! over leaves the process with its baseline threads plus the pool, not
//! one more thread per call. Its own test binary: the check counts every
//! thread of the process, so no other test may spawn threads alongside
//! it.

#![cfg(target_os = "linux")]

use grafics_core::{DurabilityPolicy, Grafics, GraficsConfig, GraficsFleet};
use grafics_data::BuildingModel;
use grafics_types::BuildingId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

/// Waits (briefly) for the thread count to settle at `want`: a joined
/// thread can linger in `/proc/self/task` for a moment after `join`
/// returns. Returns the last count seen.
fn settle_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_names().len();
        if now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn repeated_recoveries_reuse_one_loader_pool() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let ds = BuildingModel::office("pool-hq", 2)
        .with_records_per_floor(30)
        .simulate(&mut rng);
    let train = ds.with_label_budget(4, &mut rng);
    let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
    let records: Vec<_> = ds.samples().iter().map(|s| s.record.clone()).collect();

    let dir = std::env::temp_dir().join(format!("grafics-load-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = GraficsFleet::new();
    for id in 0..4 {
        fleet.add_shard(BuildingId(id), model.clone()).unwrap();
    }
    fleet.set_durability(DurabilityPolicy::FsyncEveryN(8));
    fleet.save_dir(&dir).unwrap();
    drop(fleet);

    let pool = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline = thread_names().len();
    assert!(
        !thread_names()
            .iter()
            .any(|n| n.starts_with("grafics-load-")),
        "the pool starts on the first recovery, not before"
    );
    for cycle in 0..30u64 {
        let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
        // Leave a WAL tail for the next cycle to replay.
        let id = BuildingId(u32::try_from(cycle % 4).unwrap());
        let record = &records[usize::try_from(cycle).unwrap() % records.len()];
        fleet.absorb_to_durable(id, record, 5, cycle).unwrap();
        drop(fleet);

        let now = settle_at(baseline + pool);
        assert_eq!(
            now,
            baseline + pool,
            "cycle {cycle}: {now} threads, want {baseline} + a pool of {pool}: {:?}",
            thread_names()
        );
        let workers = thread_names()
            .iter()
            .filter(|n| n.starts_with("grafics-load-"))
            .count();
        assert_eq!(workers, pool, "cycle {cycle}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
