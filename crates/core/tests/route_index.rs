//! The route index against the per-building scan it replaced: for random
//! fleets that share MACs, random records (with and without any overlap)
//! and exact weight ties, both routing rules pick the same building. A
//! real fleet routes and serves through the index exactly as the scan
//! over its snapshots picks, a record routes nowhere exactly when no
//! shard could embed it, and a publish that grows a shard's AP inventory
//! re-routes the very next query.

use grafics_core::{
    record_rng, FleetPrediction, Grafics, GraficsConfig, GraficsError, GraficsFleet, GraficsServer,
    RouteIndex, RouterKind, WeightFunction,
};
use grafics_data::BuildingModel;
use grafics_types::{BuildingId, MacAddr, Reading, Rssi, SignalRecord};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// One building's routing inventory.
type Inventory = (BuildingId, WeightFunction, BTreeSet<MacAddr>);

/// The per-building scan the index replaced: every building in ascending
/// id order counts (or sums the weights of) the record's readings it
/// knows (`knows(position, mac)`); strict `>` keeps the lowest id on
/// ties, and zero overlap routes nowhere.
fn scan(
    kind: RouterKind,
    buildings: &[(BuildingId, WeightFunction)],
    knows: impl Fn(usize, MacAddr) -> bool,
    record: &SignalRecord,
) -> Option<BuildingId> {
    match kind {
        RouterKind::Overlap => {
            let mut best: Option<(usize, BuildingId)> = None;
            for (i, (id, _)) in buildings.iter().enumerate() {
                let overlap = record.macs().filter(|&m| knows(i, m)).count();
                if overlap > 0 && best.is_none_or(|(b, _)| overlap > b) {
                    best = Some((overlap, *id));
                }
            }
            best.map(|(_, id)| id)
        }
        RouterKind::WeightedOverlap => {
            let mut best: Option<(f64, BuildingId)> = None;
            for (i, (id, weight)) in buildings.iter().enumerate() {
                let sum: f64 = record
                    .readings()
                    .iter()
                    .filter(|r| knows(i, r.mac))
                    .map(|r| weight.weight(r.rssi))
                    .sum();
                if sum > 0.0 && best.is_none_or(|(b, _)| sum > b) {
                    best = Some((sum, *id));
                }
            }
            best.map(|(_, id)| id)
        }
    }
}

fn scan_inventories(
    kind: RouterKind,
    inventories: &[Inventory],
    record: &SignalRecord,
) -> Option<BuildingId> {
    let buildings: Vec<_> = inventories.iter().map(|(id, w, _)| (*id, *w)).collect();
    scan(
        kind,
        &buildings,
        |i, m| inventories[i].2.contains(&m),
        record,
    )
}

fn record(readings: &[(u64, f64)]) -> SignalRecord {
    SignalRecord::new(
        readings
            .iter()
            .map(|&(mac, dbm)| Reading {
                mac: MacAddr::from_u64(mac),
                rssi: Rssi::new(dbm).unwrap(),
            })
            .collect(),
    )
    .unwrap()
}

fn index_of(kind: RouterKind, inventories: &[Inventory]) -> RouteIndex {
    RouteIndex::new(
        kind,
        inventories
            .iter()
            .map(|(id, weight, macs)| (*id, *weight, macs.iter().copied())),
    )
}

/// A random fleet over a small shared MAC universe (so inventories
/// overlap and counts tie), with few distinct weight functions and RSS
/// levels (so weighted sums tie exactly), plus records that mix known
/// MACs with MACs no building knows.
fn random_case(seed: u64) -> (Vec<Inventory>, Vec<SignalRecord>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = [
        WeightFunction::default(),
        WeightFunction::Offset { alpha: 100.0 },
        WeightFunction::Power,
    ];
    let mut id = 0u32;
    let inventories: Vec<Inventory> = (0..rng.gen_range(0..7usize))
        .map(|_| {
            id += rng.gen_range(1..4u32);
            let macs = (0..rng.gen_range(0..10usize))
                .map(|_| MacAddr::from_u64(rng.gen_range(0..16u64)))
                .collect();
            (
                BuildingId(id),
                weights[rng.gen_range(0..weights.len())],
                macs,
            )
        })
        .collect();
    let levels = [-40.0, -60.0, -75.0];
    let records = (0..24)
        .map(|_| {
            let readings: Vec<(u64, f64)> = (0..rng.gen_range(1..8usize))
                .map(|_| (rng.gen_range(0..24u64), levels[rng.gen_range(0..3usize)]))
                .collect();
            record(&readings)
        })
        .collect();
    (inventories, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Oracle: the index routes every record where the scan does, for
    /// both rules.
    #[test]
    fn index_agrees_with_the_per_building_scan(seed in any::<u64>()) {
        let (inventories, records) = random_case(seed);
        for kind in [RouterKind::Overlap, RouterKind::WeightedOverlap] {
            let index = index_of(kind, &inventories);
            for (i, r) in records.iter().enumerate() {
                prop_assert_eq!(
                    index.route(r),
                    scan_inventories(kind, &inventories, r),
                    "{:?} record {}",
                    kind,
                    i
                );
            }
        }
    }
}

#[test]
fn overlap_routing_prefers_more_macs_then_lowest_building() {
    let at = |macs: &[u64]| macs.iter().map(|&m| MacAddr::from_u64(m)).collect();
    let inventories = [
        (BuildingId(2), WeightFunction::default(), at(&[1, 2, 3])),
        (BuildingId(7), WeightFunction::default(), at(&[3, 4, 5])),
    ];
    let index = index_of(RouterKind::Overlap, &inventories);
    // Two overlaps with b7, one with b2.
    assert_eq!(
        index.route(&record(&[(3, -60.0), (4, -60.0), (9, -60.0)])),
        Some(BuildingId(7))
    );
    // Equal overlap (mac 3 hits both): the lowest building id wins.
    assert_eq!(
        index.route(&record(&[(3, -60.0), (9, -60.0)])),
        Some(BuildingId(2))
    );
    // No overlap at all: no route.
    assert_eq!(index.route(&record(&[(77, -60.0), (78, -60.0)])), None);
    // A MAC listed twice for one building (as a route table from
    // outside could) counts once.
    let mac = MacAddr::from_u64;
    let doubled = RouteIndex::new(
        RouterKind::Overlap,
        [
            (BuildingId(2), WeightFunction::default(), [mac(3), mac(3)]),
            (BuildingId(7), WeightFunction::default(), [mac(3), mac(4)]),
        ],
    );
    assert_eq!(
        doubled.route(&record(&[(3, -60.0), (4, -60.0)])),
        Some(BuildingId(7))
    );
}

#[test]
fn owner_lookup_is_by_building_id() {
    let at = |mac: u64| BTreeSet::from([MacAddr::from_u64(mac)]);
    let inventories = [
        (BuildingId(2), WeightFunction::default(), at(1)),
        (BuildingId(7), WeightFunction::default(), at(4)),
    ];
    let index = index_of(RouterKind::Overlap, &inventories);
    assert_eq!(index.slot_of(BuildingId(7)), Some(1));
    assert_eq!(index.slot_of(BuildingId(2)), Some(0));
    assert_eq!(index.slot_of(BuildingId(3)), None);
}

#[test]
fn weighted_routing_ties_go_to_the_lowest_building() {
    let both = BTreeSet::from([MacAddr::from_u64(1), MacAddr::from_u64(2)]);
    let inventories = [
        (BuildingId(4), WeightFunction::default(), both.clone()),
        (BuildingId(9), WeightFunction::default(), both),
    ];
    let index = index_of(RouterKind::WeightedOverlap, &inventories);
    let r = record(&[(1, -50.0), (2, -70.0)]);
    assert_eq!(index.route(&r), Some(BuildingId(4)));
    assert_eq!(
        index.route(&r),
        scan_inventories(RouterKind::WeightedOverlap, &inventories, &r)
    );
}

/// Three trained buildings and their held-out records, trained once.
/// The third weighs its edges by [`WeightFunction::Power`], the first two
/// by the default offset.
fn trained() -> &'static Vec<(Grafics, Vec<SignalRecord>)> {
    static TRAINED: OnceLock<Vec<(Grafics, Vec<SignalRecord>)>> = OnceLock::new();
    TRAINED.get_or_init(|| {
        [
            ("route-a", WeightFunction::default()),
            ("route-b", WeightFunction::default()),
            ("route-c", WeightFunction::Power),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(name, weight_function))| {
            let mut rng = ChaCha8Rng::seed_from_u64(500 + i as u64);
            let ds = BuildingModel::office(name, 2)
                .with_records_per_floor(30)
                .simulate(&mut rng);
            let split = ds.split(0.7, &mut rng).unwrap();
            let train = split.train.with_label_budget(4, &mut rng);
            let config = GraficsConfig {
                weight_function,
                ..GraficsConfig::fast()
            };
            let model = Grafics::train(&train, &config, &mut rng).unwrap();
            let held_out = split.test.samples().iter().map(|s| s.record.clone());
            (model, held_out.collect())
        })
        .collect()
    })
}

/// Building A under two ids (every A record ties) plus building B.
fn with_buildings(mut fleet: GraficsFleet) -> GraficsFleet {
    let models = trained();
    for (id, model) in [(1, &models[0].0), (3, &models[1].0), (5, &models[0].0)] {
        fleet.add_shard(BuildingId(id), model.clone()).unwrap();
    }
    fleet
}

/// A prediction as comparable bits: building, floor, distance, margin.
fn bits(p: &Option<FleetPrediction>) -> Option<(BuildingId, i16, u64, u64)> {
    p.map(|p| {
        (
            p.building,
            p.floor.0,
            p.distance.to_bits(),
            p.margin.to_bits(),
        )
    })
}

/// A real fleet routes through the cached index exactly where the scan
/// over its published snapshots picks, and `serve_batch` answers each
/// record bit for bit as serving it on the scanned shard with its own
/// `record_rng(11, i)` stream.
#[test]
fn fleet_index_matches_the_scan_router() {
    let records: Vec<SignalRecord> = trained()
        .iter()
        .flat_map(|(_, held_out)| held_out.iter().cloned())
        .chain([record(&[(0xdead_beef, -50.0)])])
        .collect();
    for kind in [RouterKind::Overlap, RouterKind::WeightedOverlap] {
        let mut fleet = GraficsFleet::new();
        fleet.set_router(kind);
        let fleet = with_buildings(fleet);
        let snapshots = fleet.snapshots();
        let buildings: Vec<_> = snapshots
            .iter()
            .map(|(id, snap)| (*id, snap.graph().weight_function()))
            .collect();
        let knows = |i: usize, m| snapshots[i].1.graph().mac_node(m).is_some();
        let served = fleet.serve_batch(&records, 11, 2);
        for (i, r) in records.iter().enumerate() {
            let picked = scan(kind, &buildings, knows, r);
            assert_eq!(fleet.route(r), picked, "{kind:?} record {i}");
            let expected = picked.and_then(|id| {
                let slot = snapshots.iter().position(|(sid, _)| *sid == id)?;
                let mut server = GraficsServer::over(Arc::clone(&snapshots[slot].1));
                let (pred, margin) = server.infer_with_margin(r, &mut record_rng(11, i)).ok()?;
                Some(FleetPrediction {
                    building: id,
                    floor: pred.floor,
                    distance: pred.distance,
                    margin,
                })
            });
            assert_eq!(bits(&served[i]), bits(&expected), "{kind:?} record {i}");
        }
        assert_eq!(fleet.route(&trained()[0].1[0]), Some(BuildingId(1)));
    }
}

/// A random fleet over the trained buildings (a building may appear under
/// several ids, so routes tie) and records mixing known MACs, MACs no
/// building knows, and RSS values at both ends of the range (at
/// −120 dBm both weight functions sit on their positive floor).
fn random_fleet_case(seed: u64) -> (GraficsFleet, Vec<SignalRecord>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let models = trained();
    let mut fleet = GraficsFleet::new();
    let mut id = 0u32;
    for _ in 0..rng.gen_range(0..6usize) {
        id += rng.gen_range(1..4u32);
        let model = &models[rng.gen_range(0..models.len())].0;
        fleet.add_shard(BuildingId(id), model.clone()).unwrap();
    }
    let known: BTreeSet<MacAddr> = models.iter().flat_map(|(m, _)| m.graph().macs()).collect();
    let known: Vec<MacAddr> = known.into_iter().collect();
    let levels = [-120.0, -119.0, -60.0, 19.0, 20.0];
    let records = (0..24)
        .map(|_| {
            let mut readings: Vec<(u64, f64)> = Vec::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let mac = known[rng.gen_range(0..known.len())];
                readings.push((mac.as_u64(), levels[rng.gen_range(0..levels.len())]));
            }
            while readings.is_empty() || rng.gen_bool(0.4) {
                let mac = MacAddr::from_u64(rng.gen_range(0..1u64 << 48));
                if known.binary_search(&mac).is_err() {
                    readings.push((mac.as_u64(), levels[rng.gen_range(0..levels.len())]));
                }
            }
            record(&readings)
        })
        .collect();
    (fleet, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The invariant that makes a cross-shard broadcast pointless: under
    /// both rules a record routes nowhere exactly when no published
    /// shard's graph overlaps it, and then every shard refuses to embed
    /// it as outside the building.
    #[test]
    fn unroutable_records_are_outside_every_building(seed in any::<u64>()) {
        let (mut fleet, records) = random_fleet_case(seed);
        for kind in [RouterKind::Overlap, RouterKind::WeightedOverlap] {
            fleet.set_router(kind);
            let snapshots = fleet.snapshots();
            for (i, r) in records.iter().enumerate() {
                let overlapped = snapshots.iter().any(|(_, snap)| snap.graph().overlaps(r));
                prop_assert_eq!(
                    fleet.route(r).is_none(),
                    !overlapped,
                    "{:?} record {}",
                    kind,
                    i
                );
                if overlapped {
                    continue;
                }
                for (id, snap) in &snapshots {
                    let answer = GraficsServer::over(Arc::clone(snap))
                        .infer(r, &mut record_rng(seed, i));
                    prop_assert!(
                        matches!(answer, Err(GraficsError::OutsideBuilding)),
                        "{:?} record {} on {}: {:?}",
                        kind,
                        i,
                        id,
                        answer
                    );
                }
            }
        }
    }
}

/// Staleness: a published absorb that teaches a shard a new MAC
/// re-routes the very next query, though the index was cached before.
#[test]
fn publish_of_a_new_mac_reroutes_the_next_query() {
    let fleet = with_buildings(GraficsFleet::new());
    let fresh = MacAddr::from_u64(0x00ab_cdef_0123);
    let only_fresh = record(&[(fresh.as_u64(), -45.0)]);
    // Warm the cache, then absorb a B record carrying the new MAC.
    assert_eq!(fleet.route(&only_fresh), None);
    let mut readings = trained()[1].1[0].readings().to_vec();
    readings.push(Reading {
        mac: fresh,
        rssi: Rssi::new(-45.0).unwrap(),
    });
    let carrier = SignalRecord::new(readings).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    fleet.absorb_to(BuildingId(3), &carrier, &mut rng).unwrap();
    // Unpublished absorbs are invisible to routing…
    assert_eq!(fleet.route(&only_fresh), None);
    fleet.shard(BuildingId(3)).unwrap().publish();
    // …and the next route and serve see the new inventory.
    assert_eq!(fleet.route(&only_fresh), Some(BuildingId(3)));
    let pred = fleet.serve(&only_fresh, &mut rng).unwrap();
    assert_eq!(pred.building, BuildingId(3));
}
