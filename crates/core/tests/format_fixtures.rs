//! Golden fixtures of the persisted formats.
//!
//! `tests/fixtures/` holds a small `GraficsConfig::fast()` model file and
//! a checkpoint written before embedding rows were printed as shortest
//! `f32` text, when every `f32` was widened to `f64` and printed with 17
//! significant digits. Both must keep loading to the same bits, and
//! re-saving them in the current form must lose none. Predictions on the
//! probe records (`probe-records.json`) are pinned by a hash taken from
//! the trained model before it was first saved.

use grafics_core::{wal, Grafics};
use grafics_graph::NodeIdx;
use grafics_types::SignalRecord;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

/// FNV-1a over (floor, distance bits) of each probe's prediction.
const MODEL_PREDICTIONS: u64 = 0x43ae_ea19_8d02_08e2;
/// The same hash for the checkpoint's model, which absorbed three
/// records after training.
const CHECKPOINT_PREDICTIONS: u64 = 0x43ae_ea19_8d02_08e2;

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
