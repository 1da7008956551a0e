//! Golden fixtures of the persisted formats.
//!
//! `tests/fixtures/` holds a small `GraficsConfig::fast()` model file and
//! a checkpoint written before embedding rows were printed as shortest
//! `f32` text, when every `f32` was widened to `f64` and printed with 17
//! significant digits, and when the graph still stored its MAC-side edge
//! weights, MAC lookup and sampler weights. Both must keep loading to the
//! same bits, and re-saving them in the current form must lose none; the
//! weights the loader now derives must equal the ones they stored.
//! `model-derived.json` is the current form, written from the first
//! model after absorbs, FIFO forgetting and an AP removal (see
//! [`regenerate_derived_fixture`]); it must load and re-save byte for
//! byte. Predictions on the probe records (`probe-records.json`) are
//! pinned by a hash taken from each model before it was first saved.

use grafics_core::{record_rng, wal, Grafics, GraficsFleet, RetentionPolicy};
use grafics_graph::{NodeIdx, NodeKind};
use grafics_types::{BuildingId, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::JsonValue;
use std::path::{Path, PathBuf};

/// FNV-1a over (floor, distance bits) of each probe's prediction.
const MODEL_PREDICTIONS: u64 = 0x43ae_ea19_8d02_08e2;
/// The same hash for the checkpoint's model, which absorbed three
/// records after training.
const CHECKPOINT_PREDICTIONS: u64 = 0x43ae_ea19_8d02_08e2;
/// The same hash for `model-derived.json`.
const DERIVED_PREDICTIONS: u64 = 0xaa8a_c217_e588_f260;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn probe_records() -> Vec<SignalRecord> {
    let text = std::fs::read_to_string(fixtures().join("probe-records.json")).unwrap();
    serde_json::from_str(&text).unwrap()
}

/// Every embedding row's bits, ego then context.
fn embedding_bits(model: &Grafics) -> Vec<u32> {
    let embeddings = model.embeddings();
    (0..embeddings.rows())
        .flat_map(|row| {
            let node = NodeIdx(u32::try_from(row).unwrap());
            embeddings.ego(node).iter().chain(embeddings.context(node))
        })
        .map(|v| v.to_bits())
        .collect()
}

/// Each probe inferred on a fresh copy of `model` with its own seed.
fn predictions(model: &Grafics) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (i, record) in probe_records().iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
        let p = model.clone().infer(record, &mut rng).unwrap();
        for word in [p.floor.0 as u64, p.distance.to_bits()] {
            hash = (hash ^ word).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn old_model_file_loads_and_resaves_with_the_same_bits() {
    let path = fixtures().join("model-f64.json");
    let old = Grafics::load_json(&path).unwrap();
    assert_eq!(predictions(&old), MODEL_PREDICTIONS);

    let text = serde_json::to_string(&old).unwrap();
    assert!(text.len() < std::fs::metadata(&path).unwrap().len() as usize);
    let new: Grafics = serde_json::from_str(&text).unwrap();
    assert_eq!(embedding_bits(&new), embedding_bits(&old));
    assert_eq!(predictions(&new), MODEL_PREDICTIONS);
}

#[test]
fn old_checkpoint_loads_and_resaves_with_the_same_bits() {
    let old = wal::read_checkpoint(&fixtures(), 0).unwrap().unwrap();
    assert_eq!((old.watermark, old.next_rng, old.pending), (3, 3, 0));
    assert_eq!(old.absorbed.len(), 3);
    assert_eq!(predictions(&old.model), CHECKPOINT_PREDICTIONS);

    let text = wal::encode_checkpoint(
        old.building,
        old.watermark,
        old.next_rng,
        &old.absorbed,
        &old.by_floor,
        &old.model,
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("grafics-fixture-ck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(wal::checkpoint_file_name(0)), &text).unwrap();
    let new = wal::read_checkpoint(&dir, 0).unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(
        (new.building, new.watermark, new.next_rng, new.pending),
        (old.building, old.watermark, old.next_rng, old.pending)
    );
    assert_eq!(new.absorbed, old.absorbed);
    assert_eq!(new.by_floor, old.by_floor);
    assert_eq!(embedding_bits(&new.model), embedding_bits(&old.model));
    assert_eq!(predictions(&new.model), CHECKPOINT_PREDICTIONS);
}

/// `key` of a JSON object.
fn get<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    serde_json::JsonValue::as_map(value)
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key}"))
}

fn number(value: &JsonValue) -> f64 {
    match *value {
        JsonValue::F64(f) => f,
        JsonValue::U64(n) => n as f64,
        JsonValue::I64(n) => n as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

/// The stored sampler weights and MAC-side edge weights of an old model
/// value equal the ones the loader derived for `model`.
fn assert_derived_state_matches_stored(stored: &JsonValue, model: &Grafics) {
    let weights = get(get(get(stored, "neg_sampler"), "sampler"), "weights");
    let weights: Vec<u64> = weights
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| number(w).to_bits())
        .collect();
    let derived: Vec<u64> = model
        .negative_sampler()
        .weights()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(derived, weights, "sampler weights");

    let graph = model.graph();
    let adj = get(get(stored, "graph"), "adj").as_seq().unwrap();
    let mut mac_edges = 0;
    for (i, list) in adj.iter().enumerate() {
        let node = NodeIdx(u32::try_from(i).unwrap());
        if !matches!(graph.kind(node), NodeKind::Mac(_)) {
            continue;
        }
        let stored: Vec<(u32, u64)> = list
            .as_seq()
            .unwrap()
            .iter()
            .map(|pair| {
                let pair = pair.as_seq().unwrap();
                (number(&pair[0]) as u32, number(&pair[1]).to_bits())
            })
            .collect();
        let derived: Vec<(u32, u64)> = graph
            .neighbors(node)
            .iter()
            .map(|&(n, w)| (n.0, w.to_bits()))
            .collect();
        assert_eq!(derived, stored, "MAC node {node}");
        mac_edges += stored.len();
    }
    assert_eq!(mac_edges, graph.edge_count());
}

#[test]
fn old_files_store_exactly_the_state_the_loader_derives() {
    let text = std::fs::read_to_string(fixtures().join("model-f64.json")).unwrap();
    let stored: JsonValue = serde_json::from_str(&text).unwrap();
    assert_derived_state_matches_stored(&stored, &serde_json::from_str(&text).unwrap());

    let text = std::fs::read_to_string(fixtures().join(wal::checkpoint_file_name(0))).unwrap();
    let stored: JsonValue = serde_json::from_str(&text).unwrap();
    let old = wal::read_checkpoint(&fixtures(), 0).unwrap().unwrap();
    assert!(old.model.negative_sampler().staleness() > 0);
    assert_derived_state_matches_stored(get(&stored, "model"), &old.model);
}

/// The first fixture after a serving history: three probes absorbed
/// three times each (the last twice) into a `FifoBudget(3)` shard, so
/// forgotten copies leave MAC lists out of insertion order, then the
/// removal of a shared AP, ending mid-epoch.
fn derived_fixture_model() -> Grafics {
    let base = Grafics::load_json(fixtures().join("model-f64.json")).unwrap();
    let mut fleet = GraficsFleet::new();
    fleet.add_shard(BuildingId(0), base).unwrap();
    fleet.set_retention(RetentionPolicy::FifoBudget(3));
    let probes = probe_records();
    for k in 0..8 {
        fleet
            .absorb_to(BuildingId(0), &probes[k / 3], &mut record_rng(11, k))
            .unwrap();
    }
    let shard = fleet.shard(BuildingId(0)).unwrap();
    shard.with_write_model(|m| {
        let graph = m.graph();
        // The first AP whose removal strands no record.
        let mac = (0..graph.node_capacity())
            .map(|i| NodeIdx(u32::try_from(i).unwrap()))
            .find_map(|node| match graph.kind(node) {
                NodeKind::Mac(mac)
                    if !graph.is_removed(node)
                        && graph.degree(node) >= 2
                        && graph
                            .neighbors(node)
                            .iter()
                            .all(|&(v, _)| graph.degree(v) > 1) =>
                {
                    Some(mac)
                }
                _ => None,
            })
            .unwrap();
        m.remove_ap(mac).unwrap();
        m.clone()
    })
}

/// Rewrites `model-derived.json`: `cargo test -p grafics-core --test
/// format_fixtures -- --ignored`. Only for a deliberate format change;
/// pin the new hash in `DERIVED_PREDICTIONS`.
#[test]
#[ignore = "rewrites a committed fixture"]
fn regenerate_derived_fixture() {
    let model = derived_fixture_model();
    assert!(model.negative_sampler().staleness() > 0);
    let graph = model.graph();
    let unordered = (0..graph.node_capacity()).any(|i| {
        let node = NodeIdx(u32::try_from(i).unwrap());
        matches!(graph.kind(node), NodeKind::Mac(_))
            && graph.neighbors(node).windows(2).any(|w| w[0].0 > w[1].0)
    });
    assert!(unordered, "no MAC list out of insertion order");
    println!("predictions {:#018x}", predictions(&model));
    model
        .save_json(fixtures().join("model-derived.json"))
        .unwrap();
}

#[test]
fn derived_form_fixture_loads_and_resaves_byte_for_byte() {
    let path = fixtures().join("model-derived.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let model = Grafics::load_json(&path).unwrap();
    assert!(model.negative_sampler().staleness() > 0);
    assert_eq!(predictions(&model), DERIVED_PREDICTIONS);
    assert_eq!(serde_json::to_string(&model).unwrap(), text);
}
