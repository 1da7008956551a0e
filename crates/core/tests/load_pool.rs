//! Every fleet load runs its per-shard work on a loader pool that is
//! started once per process: loading a plain directory, recovering a
//! durable one, and dropping the fleet over and over leaves the process
//! with its baseline threads plus the pool, not one more thread per
//! call. Its own test binary: the check counts every thread of the
//! process, so no other test may spawn threads alongside it.

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

    let base = std::env::temp_dir().join(format!("grafics-load-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (plain, durable) = (base.join("plain"), base.join("durable"));
    let mut fleet = GraficsFleet::new();
    for id in 0..4 {
        fleet.add_shard(BuildingId(id), model.clone()).unwrap();
    }
    fleet.save_dir(&plain).unwrap();
    fleet.set_durability(DurabilityPolicy::FsyncEveryN(8));
    fleet.save_dir(&durable).unwrap();
    drop(fleet);

    let pool = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline = thread_names().len();
    let workers = || {
        thread_names()
            .iter()
            .filter(|n| n.starts_with("grafics-load-"))
            .count()
    };
    assert_eq!(
        workers(),
        0,
        "the pool starts on the first load, not before"
    );

    // The first load of the process is a plain `load_dir`, which starts
    // the pool; every later load, of either kind, reuses it.
    for cycle in 0..30u64 {
        if cycle % 2 == 0 {
            let fleet = GraficsFleet::load_dir(&plain).unwrap();
            assert_eq!(fleet.len(), 4);
        } else {
            let (fleet, _) = GraficsFleet::recover(&durable).unwrap();
            // Leave a WAL tail for the next recovery to replay.
            let id = BuildingId(u32::try_from(cycle / 2 % 4).unwrap());
            let record = &records[usize::try_from(cycle).unwrap() % records.len()];
            fleet.absorb_to_durable(id, record, 5, cycle).unwrap();
        }

        let now = settle_at(baseline + pool);
        assert_eq!(
            now,
            baseline + pool,
            "cycle {cycle}: {now} threads, want {baseline} + a pool of {pool}: {:?}",
            thread_names()
        );
        assert_eq!(workers(), pool, "cycle {cycle}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
