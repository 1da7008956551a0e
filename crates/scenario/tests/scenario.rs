//! Scenario-engine contracts: seed-pinned determinism of full replays,
//! strand-safety of churn pruning under arbitrary MAC subsets, and
//! end-to-end parity between the in-process replay driver and the real
//! `grafics-serve` HTTP server.

use grafics_core::{Grafics, GraficsConfig, RetentionPolicy};
use grafics_scenario::{
    prune_removed_macs, replay, replay_http, RefreshMode, ReplayConfig, Scenario,
};
use grafics_types::{MacAddr, RefreshTrigger};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// A drift preset shrunk to test size.
fn shrunk(name: &str, epochs: usize, absorbs: usize, probes: usize) -> Scenario {
    let mut s = Scenario::preset(name).expect("known preset");
    s.buildings = 2;
    s.records_per_floor = 30;
    s.epochs.truncate(epochs);
    for e in &mut s.epochs {
        e.absorb_per_building = absorbs;
        e.probe_per_building = probes;
    }
    s
}

/// Same seed, same scenario, same config ⇒ bit-identical reports — the
/// whole pipeline (world generation, drift, absorb RNG indices, margin
/// windows, trigger decisions, probe serving) replays exactly. A
/// different seed tells a different story.
#[test]
fn replay_is_bit_deterministic_for_a_pinned_seed() {
    let scenario = shrunk("campus-churn", 4, 15, 35);
    let cfg = ReplayConfig {
        refresh: RefreshMode::MarginTrigger(RefreshTrigger::MarginDrop {
            window: 24,
            ratio: 0.98,
        }),
        ..ReplayConfig::default()
    };
    let a = replay(&scenario, &cfg).unwrap();
    let b = replay(&scenario, &cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed must replay bit-identically"
    );

    let other = replay(
        &scenario,
        &ReplayConfig {
            seed: cfg.seed + 1,
            refresh: cfg.refresh,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&other).unwrap(),
        "a different seed must generate a different world"
    );
}

/// A small trained model plus its known MACs, trained once and cloned
/// per proptest case.
fn trained() -> &'static (Grafics, Vec<MacAddr>) {
    static MODEL: OnceLock<(Grafics, Vec<MacAddr>)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let ds = grafics_data::BuildingModel::office("prune", 2)
            .with_records_per_floor(25)
            .simulate(&mut rng)
            .filter_rare_macs(2)
            .with_label_budget(4, &mut rng);
        let model = Grafics::train(&ds, &GraficsConfig::fast(), &mut rng).unwrap();
        let macs: Vec<MacAddr> = model.graph().macs().collect();
        (model, macs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: however churn picks the decommissioned set — any
    /// subset of the model's MACs, in any order, duplicates included —
    /// [`prune_removed_macs`] never strands a record with zero known
    /// MACs, and accounts every known MAC as either pruned or skipped.
    #[test]
    fn churn_prune_never_strands_a_record(
        picks in prop::collection::vec(0usize..64, 1..48),
    ) {
        let (model, macs) = trained();
        let mut model = model.clone();
        let doomed: Vec<MacAddr> = picks.iter().map(|&i| macs[i % macs.len()]).collect();
        let known: std::collections::BTreeSet<MacAddr> = doomed.iter().copied().collect();
        let outcome = prune_removed_macs(&mut model, &doomed);
        prop_assert!(
            outcome.pruned + outcome.skipped >= known.len(),
            "every known MAC must be accounted: {outcome:?} vs {} distinct",
            known.len()
        );
        for (rid, node) in model.graph().record_ids() {
            prop_assert!(
                model.graph().degree(node) >= 1,
                "record {rid:?} stranded with zero known MACs"
            );
        }
    }
}

/// End-to-end parity: replaying the same scenario through a real
/// `grafics-serve` HTTP server — every record over the wire — must
/// produce the same per-epoch serving results as the in-process driver:
/// same served counts, same accuracy, and margin quantiles equal to the
/// bit.
#[test]
fn http_replay_matches_in_process_replay_per_epoch() {
    // `podium` drifts without churn, so the HTTP driver's no-pruning
    // limitation does not diverge the worlds.
    let scenario = shrunk("podium", 3, 10, 15);
    let cfg = ReplayConfig {
        retention: RetentionPolicy::KeepAll,
        refresh: RefreshMode::None,
        ..ReplayConfig::default()
    };
    let local = replay(&scenario, &cfg).unwrap();
    let wire = replay_http(&scenario, &cfg).unwrap();
    assert_eq!(local.epochs.len(), wire.epochs.len());
    for (e, (l, w)) in local.epochs.iter().zip(&wire.epochs).enumerate() {
        assert_eq!(l.probes, w.probes, "epoch {e} probes");
        assert_eq!(l.served, w.served, "epoch {e} served");
        assert_eq!(l.absorbed, w.absorbed, "epoch {e} absorbed");
        assert_eq!(l.absorb_errors, w.absorb_errors, "epoch {e} absorb errors");
        assert_eq!(
            l.accuracy.to_bits(),
            w.accuracy.to_bits(),
            "epoch {e}: accuracy must survive the HTTP hop bit-exactly ({} vs {})",
            l.accuracy,
            w.accuracy
        );
        assert_eq!(
            l.margin_p10.to_bits(),
            w.margin_p10.to_bits(),
            "epoch {e} margin p10"
        );
        assert_eq!(
            l.margin_p50.to_bits(),
            w.margin_p50.to_bits(),
            "epoch {e} margin p50"
        );
        assert_eq!(
            l.resident_records, w.resident_records,
            "epoch {e} resident records"
        );
    }
}
