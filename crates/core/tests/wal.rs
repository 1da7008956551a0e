//! Fault-injected proof of the durability contract: recovery after a
//! crash at *any* injected crash point restores write-side state
//! bit-identical to a never-crashed fleet that absorbed the same durable
//! prefix — never a corrupted or divergent model.
//!
//! "Bit-identical" is checked two ways, mirroring the fleet suite's
//! sampler-parity machinery: the full write-side model compared as its
//! persisted bytes plus every in-memory neighbor list (order and weight
//! bits), and the incrementally-synced `NegativeSampler` weights against
//! a from-scratch rebuild.

use grafics_core::wal::ALL_CRASH_POINTS;
use grafics_core::{
    record_rng, CrashPoint, DurabilityPolicy, FailpointFs, Grafics, GraficsConfig, GraficsFleet,
    ShardRecovery, WalFs,
};
use grafics_data::BuildingModel;
use grafics_types::{BuildingId, SignalRecord};
use proptest::prelude::*;
use proptest::Strategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const B0: BuildingId = BuildingId(0);
/// The serve tier's absorb seed, fixed across crashes like `--seed`.
const SEED: u64 = 4242;

/// One trained building plus its held-out records (the absorb stream).
fn fixture() -> &'static (Grafics, Vec<SignalRecord>) {
    static FIX: OnceLock<(Grafics, Vec<SignalRecord>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ds = BuildingModel::office("wal-hq", 2)
            .with_records_per_floor(40)
            .simulate(&mut rng);
        let split = ds.split(0.7, &mut rng).unwrap();
        let train = split.train.with_label_budget(4, &mut rng);
        let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
        let records = split
            .test
            .samples()
            .iter()
            .map(|s| s.record.clone())
            .collect();
        (model, records)
    })
}

/// A fresh on-disk fleet directory with the given durability policy in
/// its manifest, ready for `GraficsFleet::recover` to attach a WAL.
fn durable_dir(name: &str, policy: DurabilityPolicy) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grafics-wal-it-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (model, _) = fixture();
    let mut fleet = GraficsFleet::new();
    fleet.add_shard(B0, model.clone()).unwrap();
    fleet.set_durability(policy);
    fleet.save_dir(&dir).unwrap();
    dir
}

/// A model as recovery checks compare it: its persisted bytes, which
/// save → load → save reproduces exactly, plus every node's in-memory
/// neighbor list, in order, with its weight bits — the MAC side's
/// weights are derived at load rather than persisted.
#[derive(Debug, Clone, PartialEq)]
struct ModelState {
    json: String,
    neighbors: Vec<Vec<(u32, u64)>>,
}

/// The shard's write-side model state.
fn write_value(fleet: &GraficsFleet) -> ModelState {
    shard_value(fleet, B0)
}

/// [`write_value`] for any shard.
fn shard_value(fleet: &GraficsFleet, id: BuildingId) -> ModelState {
    fleet
        .shard(id)
        .unwrap()
        .with_write_model(|m| model_value(m))
}

fn model_value(model: &Grafics) -> ModelState {
    let graph = model.graph();
    ModelState {
        json: serde_json::to_string(model).unwrap(),
        neighbors: (0..graph.node_capacity())
            .map(|i| {
                graph
                    .neighbors(grafics_graph::NodeIdx(u32::try_from(i).unwrap()))
                    .iter()
                    .map(|&(n, w)| (n.0, w.to_bits()))
                    .collect()
            })
            .collect(),
    }
}

/// The never-crashed reference: a fresh fleet absorbing each `(record
/// index, rng index)` pair on the same deterministic streams.
fn oracle_value(absorbed: &[(usize, u64)]) -> ModelState {
    let (model, records) = fixture();
    let mut fleet = GraficsFleet::new();
    fleet.add_shard(B0, model.clone()).unwrap();
    for &(idx, rng_i) in absorbed {
        let mut rng = record_rng(SEED, usize::try_from(rng_i).unwrap());
        fleet.absorb_to(B0, &records[idx], &mut rng).unwrap();
    }
    write_value(&fleet)
}

/// The first `k` absorbs of the sequential stream (record `i` on rng
/// index `i`), as the matrix and sweep tests issue them.
fn sequential_prefix(k: u64) -> Vec<(usize, u64)> {
    (0..k).map(|i| (usize::try_from(i).unwrap(), i)).collect()
}

/// The write-side sampler must equal a from-scratch rebuild — absorb
/// replay kept the incremental weight sync exact.
fn assert_sampler_parity(fleet: &GraficsFleet) {
    assert_shard_sampler_parity(fleet, B0);
}

/// [`assert_sampler_parity`] for any shard.
fn assert_shard_sampler_parity(fleet: &GraficsFleet, id: BuildingId) {
    let (live, rebuilt) = fleet.shard(id).unwrap().with_write_model(|m| {
        let rebuilt =
            grafics_graph::NegativeSampler::from_graph(m.graph(), m.negative_sampler().exponent());
        (
            m.negative_sampler().weights().to_vec(),
            rebuilt.weights().to_vec(),
        )
    });
    assert_eq!(
        live, rebuilt,
        "{id:?}: recovered sampler diverged from rebuild"
    );
}

/// Graceful restart: recover → absorb → drop (drain-on-drop) → recover
/// replays to the exact never-crashed state, and a third recovery, which
/// replays the same unpublished tail, lands there again.
#[test]
fn graceful_restart_replays_to_bit_identical_state() {
    let dir = durable_dir("graceful", DurabilityPolicy::FsyncEveryN(1));
    let (_, records) = fixture();

    let (fleet, report) = GraficsFleet::recover(&dir).unwrap();
    assert!(fleet.wal_attached());
    assert_eq!(report.total_replayed(), 0);
    for i in 0..6u64 {
        fleet
            .absorb_to_durable(B0, &records[usize::try_from(i).unwrap()], SEED, i)
            .unwrap();
    }
    assert!(fleet.wal_error().is_none());
    drop(fleet); // graceful shutdown: drains + fsyncs the WAL tail

    let (back, report) = GraficsFleet::recover(&dir).unwrap();
    let s = report.shards[0];
    assert_eq!(s.watermark + s.replayed, 6);
    assert!(!report.any_torn());
    assert_eq!(report.next_rng_index, 6);

    let expect = oracle_value(&sequential_prefix(6));
    assert_eq!(write_value(&back), expect);
    assert_sampler_parity(&back);
    drop(back);

    // Recovery writes no checkpoint: nothing was published, so the six
    // absorbs are still only in the log and a third recovery replays them
    // again onto the same state.
    let (again, report) = GraficsFleet::recover(&dir).unwrap();
    assert_eq!(report.shards[0].watermark, 0);
    assert_eq!(report.shards[0].replayed, 6);
    assert_eq!(write_value(&again), expect);
}

/// The tentpole's crash matrix: kill at every injected crash point, under
/// both reboot outcomes (page cache lost / page cache survived), and
/// prove recovery restores exactly the durable prefix.
#[test]
fn crash_matrix_recovery_restores_exact_durable_prefix() {
    let (_, records) = fixture();
    for point in ALL_CRASH_POINTS {
        for keep_unsynced in [false, true] {
            let dir = durable_dir(
                &format!("matrix-{point:?}-{keep_unsynced}"),
                DurabilityPolicy::FsyncEveryN(1),
            );
            let fs = Arc::new(FailpointFs::new());
            let (fleet, _) =
                GraficsFleet::recover_with(Arc::clone(&fs) as Arc<dyn WalFs>, &dir).unwrap();

            // Baseline: four absorbs, drained — durable whatever happens.
            for i in 0..4u64 {
                fleet
                    .absorb_to_durable(B0, &records[usize::try_from(i).unwrap()], SEED, i)
                    .unwrap();
            }
            fleet.drain_wal().unwrap();

            // Provoke the armed crash. The append/fsync points fire on
            // the flusher's next batch; the checkpoint points fire inside
            // publish's snapshot-on-publish checkpoint.
            match point {
                CrashPoint::MidAppend | CrashPoint::PreFsync => {
                    fs.arm(point, 0);
                    for i in 4..7u64 {
                        let r = fleet.absorb_to_durable(
                            B0,
                            &records[usize::try_from(i).unwrap()],
                            SEED,
                            i,
                        );
                        if r.is_err() {
                            break; // WAL already poisoned — a real server would 503 here
                        }
                    }
                    assert!(fleet.drain_wal().is_err(), "{point:?}: drain must surface");
                }
                CrashPoint::MidCheckpoint | CrashPoint::MidTruncate => {
                    for i in 4..6u64 {
                        fleet
                            .absorb_to_durable(B0, &records[usize::try_from(i).unwrap()], SEED, i)
                            .unwrap();
                    }
                    fleet.drain_wal().unwrap();
                    fs.arm(point, 0);
                    fleet.shard(B0).unwrap().publish();
                    assert!(
                        fleet.wal_error().is_some(),
                        "{point:?}: publish must poison"
                    );
                }
            }
            assert!(fs.crashed(), "{point:?}: the armed crash never fired");

            // The process dies mid-flight (every fs op now fails, so the
            // drop cannot quietly drain), the machine reboots, and plain
            // recovery runs over whatever survived.
            drop(fleet);
            fs.apply_power_loss(keep_unsynced);
            let (back, report) = GraficsFleet::recover(&dir).unwrap();
            let s = report.shards[0];
            let k = s.watermark + s.replayed;

            // What each cell may legitimately have kept. The flusher
            // batches, so the acknowledged-but-volatile points have a
            // small honest range; the checkpoint points are exact.
            let (lo, hi) = match point {
                // Half a torn batch can contain one complete line.
                CrashPoint::MidAppend => (4, if keep_unsynced { 5 } else { 4 }),
                CrashPoint::PreFsync => {
                    if keep_unsynced {
                        (5, 7) // appended to page cache, never fsynced
                    } else {
                        (4, 4)
                    }
                }
                CrashPoint::MidCheckpoint | CrashPoint::MidTruncate => (6, 6),
            };
            assert!(
                (lo..=hi).contains(&k),
                "{point:?} keep={keep_unsynced}: recovered {k} absorbs, expected {lo}..={hi}"
            );
            match point {
                // The half-written tmp never renamed: the old checkpoint
                // survives and the whole tail replays.
                CrashPoint::MidCheckpoint => {
                    assert_eq!((s.watermark, s.replayed), (0, 6));
                }
                // The new checkpoint landed but truncation didn't: all
                // six entries are stale, skipped below the watermark.
                CrashPoint::MidTruncate => {
                    assert_eq!((s.watermark, s.skipped), (6, 6));
                }
                _ => {}
            }

            assert_eq!(
                write_value(&back),
                oracle_value(&sequential_prefix(k)),
                "{point:?} keep={keep_unsynced}: recovered state diverged from reference"
            );
            assert_sampler_parity(&back);
        }
    }
}

/// Cutting the WAL at **every byte offset** of its final record recovers
/// exactly the longest valid prefix — 2 entries while the last line is
/// incomplete, all 3 once its JSON is whole. After each recovery one more
/// record is absorbed and the fleet restarts: the second recovery must
/// hold the surviving prefix plus that absorb, which pins that recovery
/// leaves the log ready for a fresh line (a torn line cut away, a missing
/// final newline supplied).
#[test]
fn torn_tail_truncation_sweep_recovers_longest_valid_prefix() {
    let dir = durable_dir("sweep", DurabilityPolicy::FsyncEveryN(1));
    let (_, records) = fixture();
    {
        let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
        for i in 0..3u64 {
            fleet
                .absorb_to_durable(B0, &records[usize::try_from(i).unwrap()], SEED, i)
                .unwrap();
        }
    } // drain-on-drop: header + 3 entry lines on disk

    let wal = std::fs::read(dir.join("wal-0.jsonl")).unwrap();
    let newlines: Vec<usize> = wal
        .iter()
        .enumerate()
        .filter_map(|(i, b)| (*b == b'\n').then_some(i))
        .collect();
    assert_eq!(newlines.len(), 4, "header + 3 entries");
    let last_start = newlines[2] + 1;

    // The record absorbed after recovery, on the next free rng index.
    const NEXT: usize = 3;
    let plus_next = |k: u64| {
        let mut absorbed = sequential_prefix(k);
        absorbed.push((NEXT, k));
        oracle_value(&absorbed)
    };
    let expect = [
        oracle_value(&sequential_prefix(2)),
        oracle_value(&sequential_prefix(3)),
    ];
    let expect_next = [plus_next(2), plus_next(3)];
    let sweep_root = std::env::temp_dir().join(format!("grafics-wal-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sweep_root);
    std::fs::create_dir_all(&sweep_root).unwrap();

    for cut in last_start..=wal.len() {
        let case = sweep_root.join(format!("cut-{cut}"));
        copy_with_truncated_wal(&dir, &case, &wal[..cut]);
        let (back, report) = GraficsFleet::recover(&case).unwrap();
        let s = report.shards[0];
        // A complete final JSON line counts even without its newline.
        let whole = cut >= wal.len() - 1;
        let k = if whole { 3 } else { 2 };
        assert_eq!(s.watermark + s.replayed, k, "cut at byte {cut}");
        assert_eq!(s.torn, !whole && cut > last_start, "cut at byte {cut}");
        assert_eq!(report.next_rng_index, k, "cut at byte {cut}");
        let at = usize::from(whole);
        assert_eq!(write_value(&back), expect[at], "cut at byte {cut}");
        back.absorb_to_durable(B0, &records[NEXT], SEED, k).unwrap();
        drop(back); // drains the new entry

        let (again, report) = GraficsFleet::recover(&case).unwrap();
        let s = report.shards[0];
        assert_eq!(
            (s.watermark + s.replayed, s.torn),
            (k + 1, false),
            "cut at byte {cut}: the absorb after the repair was not replayed"
        );
        assert_eq!(write_value(&again), expect_next[at], "cut at byte {cut}");
        drop(again);
        let _ = std::fs::remove_dir_all(&case);
    }
}

/// Copies a fleet directory with the WAL replaced by a truncated prefix.
fn copy_with_truncated_wal(from: &Path, to: &Path, wal: &[u8]) {
    std::fs::create_dir_all(to).unwrap();
    for name in ["checkpoint-0.json", "shard-0.json", "fleet.json"] {
        if from.join(name).exists() {
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
    }
    std::fs::write(to.join("wal-0.jsonl"), wal).unwrap();
}

/// One step of the interleaving proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    Absorb,
    Publish,
    Drain,
    /// Instant power cut (`keep_unsynced`: did the page cache survive?),
    /// then reboot + recover, continuing on the recovered fleet.
    Crash {
        keep_unsynced: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..9).prop_map(|n| match n {
        0..=4 => Op::Absorb,
        5 => Op::Publish,
        6 => Op::Drain,
        7 => Op::Crash {
            keep_unsynced: false,
        },
        _ => Op::Crash {
            keep_unsynced: true,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of absorb / publish / drain / crash+recover
    /// stays bit-identical to the in-memory oracle replay of whatever
    /// prefix proved durable, and never loses an absorb the API promised
    /// durable (drained or checkpointed).
    #[test]
    fn interleaved_crashes_never_lose_promised_absorbs(
        ops in proptest::collection::vec(op_strategy(), 1..14),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = durable_dir(&format!("prop-{case}"), DurabilityPolicy::FsyncEveryN(1));
        let (_, records) = fixture();

        let fs = Arc::new(FailpointFs::new());
        let (mut fleet, _) =
            GraficsFleet::recover_with(Arc::clone(&fs) as Arc<dyn WalFs>, &dir).unwrap();
        // (record index, rng index) per acknowledged absorb, in order.
        let mut accepted: Vec<(usize, u64)> = Vec::new();
        let mut durable_floor = 0usize; // absorbs the API promised durable
        let mut next_rng = 0u64;

        for op in &ops {
            match op {
                Op::Absorb => {
                    let idx = accepted.len() % records.len();
                    fleet.absorb_to_durable(B0, &records[idx], SEED, next_rng).unwrap();
                    accepted.push((idx, next_rng));
                    next_rng += 1;
                }
                Op::Publish => {
                    // Snapshot-on-publish checkpoints the write side.
                    fleet.shard(B0).unwrap().publish();
                    prop_assert!(fleet.wal_error().is_none());
                    durable_floor = accepted.len();
                }
                Op::Drain => {
                    fleet.drain_wal().unwrap();
                    durable_floor = accepted.len();
                }
                Op::Crash { keep_unsynced } => {
                    fs.crash_now();
                    drop(fleet); // the poisoned fs blocks the drain-on-drop
                    fs.apply_power_loss(*keep_unsynced);
                    let (back, report) =
                        GraficsFleet::recover_with(Arc::clone(&fs) as Arc<dyn WalFs>, &dir)
                            .unwrap();
                    let s = report.shards[0];
                    let k = usize::try_from(s.watermark + s.replayed).unwrap();
                    prop_assert!(
                        k >= durable_floor,
                        "lost a promised-durable absorb: recovered {k} < floor {durable_floor}"
                    );
                    prop_assert!(k <= accepted.len());
                    accepted.truncate(k);
                    durable_floor = k; // the replayed prefix is on disk already
                    next_rng = next_rng.max(report.next_rng_index);
                    prop_assert_eq!(write_value(&back), oracle_value(&accepted));
                    fleet = back;
                }
            }
        }

        // Final graceful shutdown: everything acknowledged is durable.
        drop(fleet);
        let (back, report) = GraficsFleet::recover(&dir).unwrap();
        let s = report.shards[0];
        prop_assert_eq!(usize::try_from(s.watermark + s.replayed).unwrap(), accepted.len());
        prop_assert_eq!(write_value(&back), oracle_value(&accepted));
        assert_sampler_parity(&back);
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Multi-shard recovery
// ---------------------------------------------------------------------------

/// Shards of the multi-shard directory: ids `0..SHARDS`.
const SHARDS: u32 = 6;
/// Absorbs journalled across the shards, one per shard per row of six.
const ABSORBS: u64 = 36;
/// Shards published halfway whose WAL truncation "never ran": their
/// tails start with entries below the checkpoint watermark.
const STALE: [u32; 2] = [1, 4];
/// Shards whose WAL ends in half a line (the last absorb is lost).
const TORN: [u32; 2] = [0, 4];
/// The shard with no checkpoint: it recovers from `shard-<id>.json`.
const LEGACY: u32 = 3;

/// The shard absorb `t` goes to: each row of six absorbs visits every
/// shard once, in an order that rotates from row to row.
fn interleaved_shard(t: u64) -> u32 {
    u32::try_from((t + t / 6) % u64::from(SHARDS)).unwrap()
}

/// A crafted six-shard durable directory and what recovering it must
/// give.
struct MultiShard {
    dir: PathBuf,
    /// Per shard: the never-crashed write side.
    oracle: Vec<ModelState>,
    /// Per shard: the model it publishes after recovery (its checkpoint
    /// or legacy model, before replay).
    snapshot: Vec<ModelState>,
    /// The report recovery must produce.
    report: Vec<ShardRecovery>,
    next_rng_index: u64,
}

fn wal_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("wal-{id}.jsonl"))
}

/// Builds the multi-shard directory once: six copies of the fixture
/// model, every shard but LEGACY checkpointed by a publish, absorb an
/// interleaved stream through a durable fleet; the STALE shards publish
/// halfway; then the files are edited into the shapes a crash leaves
/// behind.
fn multi_shard() -> &'static MultiShard {
    static DIR: OnceLock<MultiShard> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("grafics-wal-it-multi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (model, records) = fixture();
        let mut fleet = GraficsFleet::new();
        for id in 0..SHARDS {
            fleet.add_shard(BuildingId(id), model.clone()).unwrap();
        }
        fleet.set_durability(DurabilityPolicy::FsyncEveryN(1));
        fleet.save_dir(&dir).unwrap();
        drop(fleet);

        // Per shard: (record index, rng index) of every absorb that
        // survives, in order.
        let mut log: Vec<Vec<(usize, u64)>> = vec![Vec::new(); SHARDS as usize];
        let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
        for id in (0..SHARDS).filter(|&id| id != LEGACY) {
            fleet.shard(BuildingId(id)).unwrap().publish();
        }
        let mut absorb = |fleet: &GraficsFleet, t: u64| {
            let id = interleaved_shard(t);
            let idx = usize::try_from(t).unwrap() % records.len();
            fleet
                .absorb_to_durable(BuildingId(id), &records[idx], SEED, t)
                .unwrap();
            log[id as usize].push((idx, t));
        };
        for t in 0..ABSORBS / 2 {
            absorb(&fleet, t);
        }
        fleet.drain_wal().unwrap();
        let stale: Vec<Vec<u8>> = STALE
            .iter()
            .map(|&id| std::fs::read(wal_path(&dir, id)).unwrap())
            .collect();
        for id in STALE {
            fleet.shard(BuildingId(id)).unwrap().publish();
        }
        for t in ABSORBS / 2..ABSORBS {
            absorb(&fleet, t);
        }
        drop(fleet); // drains every WAL

        // The truncations after the STALE publishes never ran: the old
        // entries stay in front of the ones appended after the publish.
        for (&id, old) in STALE.iter().zip(&stale) {
            let now = std::fs::read(wal_path(&dir, id)).unwrap();
            let header_end = now.iter().position(|&b| b == b'\n').unwrap() + 1;
            std::fs::write(wal_path(&dir, id), [&old[..], &now[header_end..]].concat()).unwrap();
        }
        for id in TORN {
            let wal = std::fs::read(wal_path(&dir, id)).unwrap();
            let last = wal[..wal.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .unwrap()
                + 1;
            std::fs::write(wal_path(&dir, id), &wal[..last + (wal.len() - last) / 2]).unwrap();
            log[id as usize].pop();
        }
        assert!(!dir.join(format!("checkpoint-{LEGACY}.json")).exists());

        let published = ABSORBS / 2 / u64::from(SHARDS);
        let report: Vec<ShardRecovery> = (0..SHARDS)
            .map(|id| {
                let watermark = if STALE.contains(&id) { published } else { 0 };
                ShardRecovery {
                    building: BuildingId(id),
                    from_checkpoint: id != LEGACY,
                    watermark,
                    replayed: log[id as usize].len() as u64 - watermark,
                    skipped: watermark,
                    torn: TORN.contains(&id),
                }
            })
            .collect();
        let never_crashed = |id: u32, absorbs: &[(usize, u64)]| {
            let mut fleet = GraficsFleet::new();
            fleet.add_shard(BuildingId(id), model.clone()).unwrap();
            for &(idx, rng_i) in absorbs {
                let mut rng = record_rng(SEED, usize::try_from(rng_i).unwrap());
                fleet
                    .absorb_to(BuildingId(id), &records[idx], &mut rng)
                    .unwrap();
            }
            shard_value(&fleet, BuildingId(id))
        };
        MultiShard {
            oracle: (0..SHARDS)
                .map(|id| never_crashed(id, &log[id as usize]))
                .collect(),
            snapshot: report
                .iter()
                .map(|s| {
                    let id = s.building.0;
                    never_crashed(id, &log[id as usize][..s.watermark as usize])
                })
                .collect(),
            next_rng_index: log.iter().flatten().map(|&(_, t)| t + 1).max().unwrap(),
            report,
            dir,
        }
    })
}

/// A fresh copy of the multi-shard directory.
fn multi_shard_copy(name: &str) -> PathBuf {
    let to = std::env::temp_dir().join(format!("grafics-wal-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&to);
    std::fs::create_dir_all(&to).unwrap();
    for entry in std::fs::read_dir(&multi_shard().dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
    to
}

/// WAL bytes cut back to the end of their last whole line.
fn clean_tail(wal: &[u8]) -> &[u8] {
    &wal[..=wal.iter().rposition(|&b| b == b'\n').unwrap()]
}

/// Every file of `dir`, with its bytes, sorted by name.
fn all_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// The shard id a file belongs to (names ending in `-<id>.json`,
/// `-<id>.jsonl` or a `.tmp` of either).
fn file_shard(name: &str) -> Option<u32> {
    let stem = name.trim_end_matches(".tmp");
    let stem = stem
        .strip_suffix(".jsonl")
        .or_else(|| stem.strip_suffix(".json"))
        .unwrap_or(stem);
    stem.rsplit('-')
        .next()
        .and_then(|id| id.parse::<u32>().ok())
}

/// Every file of `dir` that belongs to a shard with id `>= from`, with
/// its bytes.
fn shard_files(dir: &Path, from: u32) -> Vec<(String, Vec<u8>)> {
    all_files(dir)
        .into_iter()
        .filter(|(name, _)| file_shard(name).is_some_and(|id| id >= from))
        .collect()
}

/// Every shard of a recovered multi-shard fleet equals the never-crashed
/// fleet's write side.
fn assert_matches_oracle(fleet: &GraficsFleet, context: &str) {
    let expect = multi_shard();
    assert_eq!(fleet.len(), SHARDS as usize, "{context}");
    for id in 0..SHARDS {
        assert_eq!(
            shard_value(fleet, BuildingId(id)),
            expect.oracle[id as usize],
            "{context}: shard {id} diverged from the never-crashed fleet"
        );
    }
}

/// Six shards recovered in parallel land exactly where a never-crashed
/// fleet stands, shard by shard: torn tails, stale sub-watermark entries
/// and a legacy shard included, with the report in id order.
#[test]
fn multi_shard_recovery_matches_the_never_crashed_fleet() {
    let expect = multi_shard();
    let dir = multi_shard_copy("multi-oracle");
    let (fleet, report) = GraficsFleet::recover(&dir).unwrap();
    assert_eq!(report.shards, expect.report);
    assert_eq!(report.next_rng_index, expect.next_rng_index);
    assert!(report.any_torn());
    assert_matches_oracle(&fleet, "recovery");
    for id in 0..SHARDS {
        assert_shard_sampler_parity(&fleet, BuildingId(id));
        let shard = fleet.shard(BuildingId(id)).unwrap();
        assert_eq!(
            model_value(&shard.snapshot()),
            expect.snapshot[id as usize],
            "shard {id}: the published snapshot is not the pre-replay model"
        );
    }
    assert!(fleet.wal_attached());
    drop(fleet);

    // Recovery checkpointed nothing and only cut the torn lines away: the
    // second recovery replays the same tails onto the same state.
    let (again, report) = GraficsFleet::recover(&dir).unwrap();
    let repaired: Vec<ShardRecovery> = expect
        .report
        .iter()
        .map(|&s| ShardRecovery { torn: false, ..s })
        .collect();
    assert_eq!(report.shards, repaired);
    assert_eq!(report.next_rng_index, expect.next_rng_index);
    assert_matches_oracle(&again, "second recovery");
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovering a directory whose logs all end in a whole line reads every
/// file and writes none: names and bytes are unchanged after one
/// recovery, and again after a second.
#[test]
fn recovering_clean_logs_writes_no_file() {
    let dir = multi_shard_copy("multi-clean");
    for id in TORN {
        let wal = std::fs::read(wal_path(&dir, id)).unwrap();
        std::fs::write(wal_path(&dir, id), clean_tail(&wal)).unwrap();
    }
    let before = all_files(&dir);
    for round in ["first", "second"] {
        let (fleet, report) = GraficsFleet::recover(&dir).unwrap();
        assert!(!report.any_torn(), "{round} recovery");
        assert_matches_oracle(&fleet, &format!("{round} recovery"));
        drop(fleet);
        assert!(
            all_files(&dir) == before,
            "{round} recovery changed a file of a clean directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers do not depend on how often the fleet restarted: each shard
/// serves its last published checkpoint after every recovery, so two
/// restarts in a row serve bit-identical answers, and both write sides
/// stand where the never-crashed fleet does.
#[test]
fn answers_do_not_depend_on_the_number_of_restarts() {
    let dir = multi_shard_copy("multi-restarts");
    let (_, records) = fixture();
    let serve = |context: &str| {
        let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
        assert_matches_oracle(&fleet, context);
        fleet.serve_batch(records, 77, 2)
    };
    let first = serve("first recovery");
    let second = serve("second recovery");
    assert!(first.iter().any(Option::is_some), "nothing was served");
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.building, b.building, "record {i} routed differently");
                assert_eq!(a.floor, b.floor, "record {i}");
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "record {i}: distances must match bitwise"
                );
            }
            (None, None) => {}
            _ => panic!("record {i}: presence differs across restarts"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a sequence gap in shard 2 and a corrupt checkpoint in shard 5,
/// recovery reports shard 2, however the shards' jobs finish, and writes
/// nothing for shard 2 or any shard above it.
#[test]
fn lowest_failing_shard_is_reported_and_later_shards_are_untouched() {
    for repeat in 0..5 {
        let dir = multi_shard_copy(&format!("multi-errors-{repeat}"));
        let wal = std::fs::read_to_string(wal_path(&dir, 2)).unwrap();
        let mut lines: Vec<&str> = wal.split_inclusive('\n').collect();
        lines.remove(3); // header, seq 0, seq 1, [seq 2], ...
        std::fs::write(wal_path(&dir, 2), lines.concat()).unwrap();
        let checkpoint = dir.join("checkpoint-5.json");
        let bytes = std::fs::read(&checkpoint).unwrap();
        std::fs::write(&checkpoint, &bytes[..bytes.len() / 2]).unwrap();
        let before = shard_files(&dir, 2);

        let err = GraficsFleet::recover(&dir).unwrap_err().to_string();
        assert!(
            err.contains("wal-2.jsonl: sequence gap"),
            "repeat {repeat}: {err}"
        );
        assert!(
            shard_files(&dir, 2) == before,
            "repeat {repeat}: files of shard 2 or above changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash inside recovery's own tail repair — the truncation of the
/// k-th torn shard's WAL — stops recovery at that shard in id order,
/// every time: the torn shards below it are repaired, every other file
/// below it is untouched, and the crashed shard and the shards above it
/// keep their files. After the reboot, a plain recovery lands on the
/// never-crashed state.
#[test]
fn tail_repair_crash_stops_recovery_at_the_kth_shard_in_id_order() {
    let expect = multi_shard();
    for (skip, k) in (0u32..).zip(TORN) {
        for repeat in 0..5 {
            let case = format!("k={k} repeat {repeat}");
            let dir = multi_shard_copy(&format!("multi-crash-{k}-{repeat}"));
            let before = all_files(&dir);
            let at_or_above = shard_files(&dir, k);

            let fs = Arc::new(FailpointFs::new());
            fs.arm(CrashPoint::MidTruncate, skip);
            let err = GraficsFleet::recover_with(Arc::clone(&fs) as Arc<dyn WalFs>, &dir)
                .unwrap_err()
                .to_string();
            assert!(fs.crashed(), "{case}: the armed crash never fired");
            assert!(
                err.starts_with(&format!("shard {k}: WAL tail repair:")),
                "{case}: {err}"
            );
            for (name, bytes) in &before {
                let Some(id) = file_shard(name).filter(|&id| id < k) else {
                    continue;
                };
                let now = std::fs::read(dir.join(name)).unwrap();
                let want = if TORN.contains(&id) && name.ends_with(".jsonl") {
                    clean_tail(bytes)
                } else {
                    bytes
                };
                assert!(now == want, "{case}: {name} below the crash");
            }
            assert!(
                shard_files(&dir, k) == at_or_above,
                "{case}: a shard at or above the crash was written"
            );

            fs.apply_power_loss(false);
            let (back, report) = GraficsFleet::recover(&dir).unwrap();
            assert_eq!(report.next_rng_index, expect.next_rng_index, "{case}");
            assert_matches_oracle(&back, &case);
            drop(back);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
