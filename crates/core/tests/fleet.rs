//! The fleet engine's contracts: deterministic routing, serve/absorb
//! isolation across the snapshot swap, bounded retention that keeps the
//! negative sampler exact, and lossless migration of pre-fleet models.

use grafics_core::{
    record_rng, FleetManifest, Grafics, GraficsConfig, GraficsFleet, MaintenancePolicy,
    RetentionPolicy, RouterKind, Shard,
};
use grafics_data::BuildingModel;
use grafics_types::{BuildingId, SignalRecord};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// Trains one small model per building name (deterministic per name/seed)
/// and returns each building's held-out test records.
fn trained_building(name: &str, seed: u64) -> (Grafics, Vec<SignalRecord>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ds = BuildingModel::office(name, 2)
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
}

/// Per-building trained shards and the tagged query stream.
type Fixture = (Vec<(BuildingId, Grafics)>, Vec<(BuildingId, SignalRecord)>);

/// A 3-building fleet plus an interleaved query stream tagged with the
/// building each record truly came from. Built once (training is the
/// expensive part) and cloned per test.
fn fleet_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut models = Vec::new();
        let mut stream = Vec::new();
        for (i, name) in ["fleet-a", "fleet-b", "fleet-c"].iter().enumerate() {
            let id = BuildingId(i as u32);
            let (model, records) = trained_building(name, 100 + i as u64);
            models.push((id, model));
            for r in records {
                stream.push((id, r));
            }
        }
        // Interleave the three buildings' traffic deterministically.
        stream.sort_by_key(|(id, r)| (r.len(), id.0, r.strongest().mac));
        (models, stream)
    })
}

fn build_fleet(retention: RetentionPolicy) -> GraficsFleet {
    let (models, _) = fleet_fixture();
    let mut fleet = GraficsFleet::new();
    fleet.set_retention(retention);
    for (id, model) in models {
        fleet.add_shard(*id, model.clone()).unwrap();
    }
    fleet
}

/// Satellite (c): same records + same snapshots ⇒ identical shard
/// assignment and bit-identical predictions regardless of `threads`.
#[test]
fn fleet_serving_is_thread_count_invariant() {
    let fleet = build_fleet(RetentionPolicy::KeepAll);
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).collect();

    let serial = fleet.serve_batch(&records, 2024, 1);
    for threads in [2, 4, 7] {
        let parallel = fleet.serve_batch(&records, 2024, threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
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
                _ => panic!("record {i}: presence differs across thread counts"),
            }
        }
    }
}

/// The sub-50 µs serving path — adaptive refinement budget + f32-refined
/// matching, served through the shared-snapshot batch workers — keeps
/// the thread-count-invariance contract bit for bit, and the fleet's
/// process-wide counters record the refinement work.
#[test]
fn adaptive_f32_serving_is_thread_count_invariant() {
    use grafics_core::{MatchPrecision, OnlineBudget, ServingPolicy};
    let mut fleet = build_fleet(RetentionPolicy::KeepAll);
    fleet.set_serving(ServingPolicy {
        budget: Some(OnlineBudget::Adaptive {
            max_spe: 120,
            min_spe: 10,
            margin_ratio: 0.25,
        }),
        precision: Some(MatchPrecision::F32Refined),
    });
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).collect();

    let serial = fleet.serve_batch(&records, 4096, 1);
    assert!(serial.iter().flatten().count() * 10 >= records.len() * 9);
    for threads in [2, 4, 7] {
        let parallel = fleet.serve_batch(&records, 4096, threads);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.building, b.building, "record {i}");
                    assert_eq!(a.floor, b.floor, "record {i}");
                    assert_eq!(
                        a.distance.to_bits(),
                        b.distance.to_bits(),
                        "record {i}: adaptive serving must stay thread-count invariant"
                    );
                    assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "record {i}");
                }
                (None, None) => {}
                _ => panic!("record {i}: presence differs across thread counts"),
            }
        }
    }
    let counters = fleet.serve_counters();
    assert!(counters.refine_samples > 0);
    assert!(
        counters.early_stops > 0,
        "well-separated offices must early-stop some queries: {counters:?}"
    );
}

/// A never-stopping adaptive budget (`margin_ratio: 0`) with the model's
/// own ceiling is bit-identical to the historical fixed path — the probe
/// consumes no RNG and the LR schedule spans the full budget.
#[test]
fn adaptive_zero_ratio_is_bit_identical_to_fixed_default() {
    use grafics_core::{OnlineBudget, ServingPolicy};
    let baseline = build_fleet(RetentionPolicy::KeepAll);
    let mut adaptive = build_fleet(RetentionPolicy::KeepAll);
    adaptive.set_serving(ServingPolicy {
        // `fast()` models embed queries at 120 samples per edge.
        budget: Some(OnlineBudget::Adaptive {
            max_spe: 120,
            min_spe: 10,
            margin_ratio: 0.0,
        }),
        precision: None,
    });
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).collect();
    let expect = baseline.serve_batch(&records, 31, 2);
    let got = adaptive.serve_batch(&records, 31, 2);
    for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.floor, b.floor, "record {i}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "record {i}");
                assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "record {i}");
            }
            (None, None) => {}
            _ => panic!("record {i}: presence differs"),
        }
    }
    assert_eq!(adaptive.serve_counters().early_stops, 0);
}

/// Satellite (c): the router sends essentially every record home (MAC
/// namespaces are disjoint up to simulated noise hotspots), and fleet
/// `serve_batch` is bit-identical to serving each record on its routed
/// shard serially with the same per-record RNG stream.
#[test]
fn fleet_serve_batch_matches_per_shard_serial() {
    let fleet = build_fleet(RetentionPolicy::KeepAll);
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).collect();
    let seed = 77u64;
    let batch = fleet.serve_batch(&records, seed, 3);

    let mut routed_home = 0usize;
    for (i, ((truth, record), out)) in stream.iter().zip(&batch).enumerate() {
        let Some(pred) = out else {
            continue; // noise-only record overlapping nothing
        };
        routed_home += usize::from(pred.building == *truth);
        // Per-shard serial reference: a fresh session on the routed
        // shard with the same (seed, index) stream.
        let shard = fleet.shard(pred.building).unwrap();
        let mut rng = record_rng(seed, i);
        let reference = shard.server().infer(record, &mut rng).unwrap();
        assert_eq!(pred.floor, reference.floor, "record {i}");
        assert_eq!(
            pred.distance.to_bits(),
            reference.distance.to_bits(),
            "record {i}"
        );
        assert!(pred.margin >= 0.0, "record {i}");
    }
    let served = batch.iter().flatten().count();
    assert!(served * 10 >= records.len() * 9, "served {served}");
    assert!(
        routed_home * 20 >= served * 19,
        "router must send records home: {routed_home}/{served}"
    );
}

/// Absorbed records stay invisible to readers until `publish`, the epoch
/// counts publishes, and in-flight sessions keep their snapshot.
#[test]
fn absorb_is_invisible_until_publish() {
    let (models, stream) = fleet_fixture();
    let shard = Shard::new(BuildingId(9), models[0].1.clone(), RetentionPolicy::KeepAll);
    let own: Vec<&SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r)
        .collect();
    let baseline = shard.snapshot().graph().record_count();
    assert_eq!(shard.epoch(), 0);

    // A session opened before any absorb/publish.
    let pinned = shard.server();

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut absorbed = 0;
    for r in own.iter().take(12) {
        absorbed += usize::from(shard.absorb(r, &mut rng).is_ok());
    }
    assert!(absorbed > 0);
    assert_eq!(
        shard.snapshot().graph().record_count(),
        baseline,
        "readers must not see unpublished absorbs"
    );
    assert_eq!(shard.stats().pending, absorbed);

    let epoch = shard.publish();
    assert_eq!(epoch, 1);
    assert_eq!(shard.epoch(), 1);
    assert_eq!(
        shard.snapshot().graph().record_count(),
        baseline + absorbed,
        "publish exposes the absorbed records"
    );
    assert_eq!(shard.stats().pending, 0);
    // The pre-publish session still serves its original epoch.
    assert_eq!(pinned.model().graph().record_count(), baseline);
}

/// Acceptance: a retention-bounded shard holds at most `budget` absorbed
/// records after absorbing 2× budget.
#[test]
fn fifo_budget_bounds_resident_records() {
    let (models, stream) = fleet_fixture();
    let budget = 10usize;
    let shard = Shard::new(
        BuildingId(0),
        models[0].1.clone(),
        RetentionPolicy::FifoBudget(budget),
    );
    let own: Vec<&SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut absorbed = 0;
    let mut i = 0;
    while absorbed < 2 * budget {
        let r = own[i % own.len()];
        i += 1;
        absorbed += usize::from(shard.absorb(r, &mut rng).is_ok());
    }
    let stats = shard.stats();
    assert!(
        stats.absorbed_resident <= budget,
        "resident {} > budget {budget}",
        stats.absorbed_resident
    );
    assert_eq!(stats.absorbed_resident, budget); // exactly full, not off by one
}

/// Switching retention from `KeepAll` to a budget evicts the whole
/// backlog — including records absorbed while `KeepAll` was in force —
/// and keeps enforcing it afterwards.
#[test]
fn set_retention_enforces_bound_on_keepall_backlog() {
    let (models, stream) = fleet_fixture();
    let shard = Shard::new(BuildingId(0), models[0].1.clone(), RetentionPolicy::KeepAll);
    let own: Vec<&SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut absorbed = 0;
    for r in own.iter().take(14) {
        absorbed += usize::from(shard.absorb(r, &mut rng).is_ok());
    }
    assert!(absorbed > 6);
    assert_eq!(shard.stats().absorbed_resident, absorbed);

    shard.set_retention(RetentionPolicy::FifoBudget(5));
    assert_eq!(
        shard.stats().absorbed_resident,
        5,
        "the KeepAll-era backlog must shrink to the new budget"
    );
    for r in own.iter().skip(14).take(4) {
        let _ = shard.absorb(r, &mut rng);
    }
    assert!(shard.stats().absorbed_resident <= 5);
    // The evictions kept the sampler exact.
    let (live, rebuilt) = shard.with_write_model(|m| {
        let rebuilt =
            grafics_graph::NegativeSampler::from_graph(m.graph(), m.negative_sampler().exponent());
        (
            m.negative_sampler().weights().to_vec(),
            rebuilt.weights().to_vec(),
        )
    });
    assert_eq!(live, rebuilt);
}

/// Per-floor caps bound every floor's bucket independently.
#[test]
fn per_floor_cap_bounds_each_floor() {
    let (models, stream) = fleet_fixture();
    let cap = 4usize;
    let shard = Shard::new(
        BuildingId(0),
        models[0].1.clone(),
        RetentionPolicy::PerFloorCap(cap),
    );
    let own: Vec<&SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for r in own.iter().take(30) {
        let _ = shard.absorb(r, &mut rng);
    }
    // The building has 2 floors: at most 2 × cap absorbed residents.
    assert!(shard.stats().absorbed_resident <= 2 * cap);
}

/// Satellite (b): a pre-fleet single-building model (`Grafics::load_json`)
/// migrates losslessly into a one-shard fleet — identical predictions —
/// and survives a fleet save/load round trip.
#[test]
fn single_model_migrates_into_one_shard_fleet() {
    let (models, stream) = fleet_fixture();
    let model = &models[0].1;
    let records: Vec<SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r.clone())
        .take(10)
        .collect();

    let dir = std::env::temp_dir().join("grafics-fleet-migration");
    std::fs::create_dir_all(&dir).unwrap();
    let single = dir.join("pre-fleet-model.json");
    model.save_json(&single).unwrap();

    // Migrate: pre-fleet file → one-shard fleet.
    let fleet = GraficsFleet::from_model(Grafics::load_json(&single).unwrap());
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet.shards()[0].id(), BuildingId(0));

    // Round trip the fleet itself.
    let fleet_dir = dir.join("fleet");
    fleet.save_dir(&fleet_dir).unwrap();
    let reloaded = GraficsFleet::load_dir(&fleet_dir).unwrap();
    assert_eq!(reloaded.len(), 1);

    // All three serve bit-identically to the original monolith.
    let seed = 11u64;
    let direct = model.serve_batch(&records, seed, 1);
    for f in [&fleet, &reloaded] {
        let via_fleet = f.serve_batch(&records, seed, 1);
        for (i, (a, b)) in direct.iter().zip(&via_fleet).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.floor, b.floor, "record {i}");
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "record {i}");
                    assert_eq!(b.building, BuildingId(0));
                }
                (None, None) => {}
                _ => panic!("record {i}: migration changed the served set"),
            }
        }
    }
    std::fs::remove_file(&single).ok();
    std::fs::remove_dir_all(&fleet_dir).ok();
}

/// Satellite (manifest): save_dir writes `fleet.json`; load_dir restores
/// router, retention, and maintenance cadence without runtime flags; and
/// a PR-3-era directory (shards only, no manifest) migrates losslessly
/// to the default manifest — the behaviour the old loader hard-wired.
#[test]
fn manifest_round_trips_and_pre_manifest_dirs_migrate() {
    let dir = std::env::temp_dir().join("grafics-fleet-manifest");
    std::fs::remove_dir_all(&dir).ok();

    let mut fleet = build_fleet(RetentionPolicy::KeepAll);
    fleet.set_retention(RetentionPolicy::PerFloorCap(7));
    fleet.set_router(RouterKind::WeightedOverlap);
    fleet.set_maintenance(MaintenancePolicy {
        publish_after_absorbs: Some(32),
        publish_after_secs: Some(1.5),
        refresh_every_publishes: Some(4),
        refresh_trigger: None,
    });
    let saved = fleet.manifest();
    fleet.save_dir(&dir).unwrap();

    let reloaded = GraficsFleet::load_dir(&dir).unwrap();
    assert_eq!(reloaded.manifest(), saved);
    assert_eq!(reloaded.retention(), RetentionPolicy::PerFloorCap(7));
    assert_eq!(reloaded.len(), 3);

    // PR-3-era directory: the same shards without the manifest file.
    std::fs::remove_file(dir.join("fleet.json")).unwrap();
    let migrated = GraficsFleet::load_dir(&dir).unwrap();
    assert_eq!(migrated.manifest(), FleetManifest::default());
    assert_eq!(migrated.len(), 3);
    // And the default manifest reproduces the old behaviour: KeepAll +
    // overlap routing.
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).take(20).collect();
    let old_style = build_fleet(RetentionPolicy::KeepAll).serve_batch(&records, 3, 1);
    let migrated_out = migrated.serve_batch(&records, 3, 1);
    for (a, b) in old_style.iter().zip(&migrated_out) {
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.floor, b.floor);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            (None, None) => {}
            _ => panic!("migration changed the served set"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `load_dir` decodes shard files in parallel on the loader pool but adds
/// them in id order, and a directory with several bad files fails with
/// the error of the lowest failing id, as a sequential load would.
#[test]
fn parallel_load_keeps_id_order_and_reports_the_lowest_failing_id() {
    let dir = std::env::temp_dir().join(format!("grafics-fleet-load-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    build_fleet(RetentionPolicy::KeepAll)
        .save_dir(&dir)
        .unwrap();

    let reloaded = GraficsFleet::load_dir(&dir).unwrap();
    let ids: Vec<u32> = reloaded.shards().iter().map(|s| s.id().0).collect();
    assert_eq!(ids, [0, 1, 2]);
    let (_, stream) = fleet_fixture();
    let records: Vec<SignalRecord> = stream.iter().map(|(_, r)| r.clone()).take(20).collect();
    let expect = build_fleet(RetentionPolicy::KeepAll).serve_batch(&records, 3, 1);
    for (a, b) in expect.iter().zip(&reloaded.serve_batch(&records, 3, 1)) {
        assert_eq!(
            a.as_ref().map(|p| (p.floor, p.distance.to_bits())),
            b.as_ref().map(|p| (p.floor, p.distance.to_bits()))
        );
    }

    // Two corrupt shards that fail with different errors.
    std::fs::write(dir.join("shard-1.json"), "{\"config\":").unwrap();
    std::fs::write(dir.join("shard-2.json"), "garbage").unwrap();
    let lowest = Grafics::load_json(dir.join("shard-1.json")).unwrap_err();
    let other = Grafics::load_json(dir.join("shard-2.json")).unwrap_err();
    assert_ne!(lowest.to_string(), other.to_string());
    for _ in 0..4 {
        let Err(err) = GraficsFleet::load_dir(&dir) else {
            panic!("corrupt shards must fail the load");
        };
        assert_eq!(err.to_string(), lowest.to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The weighted router agrees with the overlap router on essentially the
/// whole home-building stream (disjoint AP namespaces), while remaining
/// deterministic and persistable.
#[test]
fn weighted_router_sends_records_home() {
    let mut fleet = build_fleet(RetentionPolicy::KeepAll);
    fleet.set_router(RouterKind::WeightedOverlap);
    let (_, stream) = fleet_fixture();
    let mut routed_home = 0usize;
    let mut routed = 0usize;
    for (truth, record) in stream {
        if let Some(id) = fleet.route(record) {
            routed += 1;
            routed_home += usize::from(id == *truth);
        }
    }
    assert!(routed * 10 >= stream.len() * 9, "routed {routed}");
    assert!(
        routed_home * 20 >= routed * 19,
        "weighted router must send records home: {routed_home}/{routed}"
    );
}

/// `Shard::refresh_write_side` keeps the few-labelled-seeds regime (one
/// seed per existing cluster, so the cluster count is stable) and is
/// indexed by record id — retention eviction gaps plus repeated
/// refreshes never shift a seed label onto the wrong record, and the
/// refreshed shard still serves.
#[test]
fn refresh_write_side_survives_eviction_gaps() {
    let (models, stream) = fleet_fixture();
    let shard = Shard::new(
        BuildingId(0),
        models[0].1.clone(),
        RetentionPolicy::FifoBudget(5),
    );
    let clusters_before = shard.with_write_model(|m| m.clusters().clusters().len());
    let own: Vec<&SignalRecord> = stream
        .iter()
        .filter(|(id, _)| *id == BuildingId(0))
        .map(|(_, r)| r)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    // 12 absorbs against a budget of 5: evictions punch id gaps into the
    // absorbed range.
    for r in own.iter().take(12) {
        let _ = shard.absorb(r, &mut rng);
    }
    shard.refresh_write_side(&mut rng).unwrap();
    // More absorbs and a second refresh — the historical failure mode
    // was the refit *after* positions and record ids diverged.
    for r in own.iter().skip(12).take(8) {
        let _ = shard.absorb(r, &mut rng);
    }
    shard.refresh_write_side(&mut rng).unwrap();
    let clusters_after = shard.with_write_model(|m| m.clusters().clusters().len());
    assert_eq!(
        clusters_after, clusters_before,
        "refresh must reseed one label per cluster, not per record"
    );
    shard.publish();
    let mut session = shard.server();
    let mut served = 0usize;
    for (i, r) in own.iter().take(10).enumerate() {
        let mut qrng = record_rng(7, i);
        if let Ok(pred) = session.infer(r, &mut qrng) {
            assert!(pred.distance.is_finite());
            served += 1;
        }
    }
    assert!(served >= 8, "refreshed shard must keep serving: {served}");
}

/// `infer_topk` (now `(floor, distance)` pairs) heads with `infer`'s
/// prediction through the fleet's shard servers.
#[test]
fn topk_pairs_head_with_infer() {
    let fleet = build_fleet(RetentionPolicy::KeepAll);
    let (_, stream) = fleet_fixture();
    let (_, record) = &stream[0];
    let shard = fleet.shard(fleet.route(record).unwrap()).unwrap();
    let mut rng_a = ChaCha8Rng::seed_from_u64(4);
    let mut rng_b = ChaCha8Rng::seed_from_u64(4);
    let top = shard.server().infer_topk(record, 3, &mut rng_a).unwrap();
    let best = shard.server().infer(record, &mut rng_b).unwrap();
    assert_eq!(top[0], (best.floor, best.distance));
    assert!(top.windows(2).all(|w| w[0].1 <= w[1].1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite (a): after any interleaved absorb/evict sequence under
    /// `FifoBudget` (including budget 0 and an empty shard that never
    /// absorbs), the incrementally synced `NegativeSampler` weights equal
    /// a from-scratch rebuild over the write-side graph, and the resident
    /// count respects the budget exactly — no off-by-one at the boundary.
    #[test]
    fn retention_keeps_sampler_exact_under_interleaving(
        budget in 0usize..6,
        picks in prop::collection::vec(0usize..24, 0..32),
        publish_every in 1usize..8,
    ) {
        let (models, stream) = fleet_fixture();
        let own: Vec<&SignalRecord> = stream
            .iter()
            .filter(|(id, _)| *id == BuildingId(0))
            .map(|(_, r)| r)
            .collect();
        let shard = Shard::new(
            BuildingId(0),
            models[0].1.clone(),
            RetentionPolicy::FifoBudget(budget),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut absorbed = 0usize;
        for (step, &p) in picks.iter().enumerate() {
            if shard.absorb(own[p % own.len()], &mut rng).is_ok() {
                absorbed += 1;
            }
            if step % publish_every == publish_every - 1 {
                shard.publish();
            }
            let stats = shard.stats();
            prop_assert!(
                stats.absorbed_resident <= budget,
                "step {step}: resident {} > budget {budget}",
                stats.absorbed_resident
            );
            prop_assert_eq!(stats.absorbed_resident, absorbed.min(budget));
        }
        // The write-side sampler must equal a from-scratch table after
        // the whole interleaving.
        let (live, rebuilt) = shard.with_write_model(|m| {
            let rebuilt = grafics_graph::NegativeSampler::from_graph(
                m.graph(),
                m.negative_sampler().exponent(),
            );
            (
                m.negative_sampler().weights().to_vec(),
                rebuilt.weights().to_vec(),
            )
        });
        prop_assert_eq!(live, rebuilt);
        // An empty-shard sequence holds nothing.
        if picks.is_empty() {
            prop_assert_eq!(shard.stats().absorbed_resident, 0);
        }
    }
}
