//! The route index against the per-building scan it replaced: for random
//! fleets that share MACs, random records (with and without any overlap)
//! and exact weight ties, both routing rules pick the same building. A
//! real fleet routes through the index exactly as through the scan, and
//! a publish that grows a shard's AP inventory re-routes the very next
//! query.

use grafics_core::{
    Grafics, GraficsConfig, GraficsFleet, RouteIndex, Router, RouterKind, WeightFunction,
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

/// The scan as a custom [`Router`] over a fleet's published snapshots.
struct ScanRouter(RouterKind);

impl Router for ScanRouter {
    fn route(
        &self,
        snapshots: &[(BuildingId, Arc<Grafics>)],
        record: &SignalRecord,
    ) -> Option<BuildingId> {
        let buildings: Vec<_> = snapshots
            .iter()
            .map(|(id, snap)| (*id, snap.graph().weight_function()))
            .collect();
        let knows = |i: usize, m| snapshots[i].1.graph().mac_node(m).is_some();
        scan(self.0, &buildings, knows, record)
    }
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

/// Two trained buildings and their held-out records, trained once.
fn trained() -> &'static Vec<(Grafics, Vec<SignalRecord>)> {
    static TRAINED: OnceLock<Vec<(Grafics, Vec<SignalRecord>)>> = OnceLock::new();
    TRAINED.get_or_init(|| {
        ["route-a", "route-b"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut rng = ChaCha8Rng::seed_from_u64(500 + i as u64);
                let ds = BuildingModel::office(name, 2)
                    .with_records_per_floor(30)
                    .simulate(&mut rng);
                let split = ds.split(0.7, &mut rng).unwrap();
                let train = split.train.with_label_budget(4, &mut rng);
                let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
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

/// A real fleet routes and serves through the cached index exactly as
/// through the scan over its snapshots.
#[test]
fn fleet_index_matches_the_scan_router() {
    let records: Vec<SignalRecord> = trained()
        .iter()
        .flat_map(|(_, held_out)| held_out.iter().cloned())
        .chain([record(&[(0xdead_beef, -50.0)])])
        .collect();
    for kind in [RouterKind::Overlap, RouterKind::WeightedOverlap] {
        let mut indexed = GraficsFleet::new();
        indexed.set_router(kind);
        let indexed = with_buildings(indexed);
        let scanned = with_buildings(GraficsFleet::with_router(Box::new(ScanRouter(kind))));
        for r in &records {
            assert_eq!(indexed.route(r), scanned.route(r), "{kind:?}");
        }
        assert_eq!(indexed.route(&trained()[0].1[0]), Some(BuildingId(1)));
        let a = indexed.serve_batch(&records, 11, 2);
        let b = scanned.serve_batch(&records, 11, 1);
        assert_eq!(a, b, "{kind:?}");
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
