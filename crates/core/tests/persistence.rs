//! Model files persist only state that cannot be derived, so they are
//! byte-stable: save → load → save reproduces a file exactly, for a
//! freshly trained model and for one a serving history churned (absorbs,
//! FIFO forgetting, an AP removal, a stale sampler snapshot). The loader
//! is a trust boundary: a file with one integer or token perturbed loads
//! to a self-consistent model that serves without panicking, or fails
//! with an error.

use grafics_core::{
    record_rng, Grafics, GraficsConfig, GraficsFleet, GraficsServer, RetentionPolicy,
};
use grafics_data::BuildingModel;
use grafics_graph::{NodeIdx, NodeKind};
use grafics_types::{BuildingId, SignalRecord};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// A small trained model (sampler fresh, staleness 0) and held-out
/// records of its building.
fn trained() -> &'static (Grafics, Vec<SignalRecord>) {
    static FIX: OnceLock<(Grafics, Vec<SignalRecord>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let ds = BuildingModel::office("persist", 2)
            .with_records_per_floor(30)
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

/// The trained model after a serving history: one held-out record
/// absorbed three times and a second twice into a `FifoBudget(4)` shard,
/// whose eviction of the first copy leaves MAC lists out of insertion
/// order, then the removal of a shared AP, ending mid-epoch.
fn churned() -> &'static Grafics {
    static FIX: OnceLock<Grafics> = OnceLock::new();
    FIX.get_or_init(|| {
        let (model, records) = trained();
        let mut fleet = GraficsFleet::new();
        fleet.add_shard(BuildingId(0), model.clone()).unwrap();
        fleet.set_retention(RetentionPolicy::FifoBudget(4));
        for k in 0..5 {
            fleet
                .absorb_to(BuildingId(0), &records[k / 3], &mut record_rng(5, k))
                .unwrap();
        }
        let model = fleet.shard(BuildingId(0)).unwrap().with_write_model(|m| {
            let mac = shared_ap(m);
            m.remove_ap(mac).unwrap();
            m.clone()
        });
        let graph = model.graph();
        assert!(model.negative_sampler().staleness() > 0, "ends mid-epoch");
        assert!(
            graph.stats().tombstones > 1,
            "forgot records, removed an AP"
        );
        assert!(
            nodes(&model).any(|node| {
                matches!(graph.kind(node), NodeKind::Mac(_))
                    && graph.neighbors(node).windows(2).any(|w| w[0].0 > w[1].0)
            }),
            "some MAC list is out of insertion order"
        );
        model
    })
}

/// The first AP whose removal strands no record.
fn shared_ap(model: &Grafics) -> grafics_types::MacAddr {
    let graph = model.graph();
    nodes(model)
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
        .unwrap()
}

fn nodes(model: &Grafics) -> impl Iterator<Item = NodeIdx> {
    (0..model.graph().node_capacity()).map(|i| NodeIdx(u32::try_from(i).unwrap()))
}

/// Saves `model`, loads it back and checks the copy: the same bytes on
/// a second save, the same neighbor lists (order and weight bits), the
/// same sampler and the same predictions.
fn assert_byte_stable(model: &Grafics) {
    let text = serde_json::to_string(model).unwrap();
    let back: Grafics = serde_json::from_str(&text).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
    for node in nodes(model) {
        assert_eq!(
            back.graph().neighbors(node),
            model.graph().neighbors(node),
            "{node}"
        );
    }
    assert_eq!(back.negative_sampler(), model.negative_sampler());
    let (_, records) = trained();
    for (i, record) in records.iter().rev().take(6).enumerate() {
        let predict = |m: &Grafics| {
            let p = m.clone().infer(record, &mut record_rng(9, i)).unwrap();
            (p.floor, p.distance.to_bits())
        };
        assert_eq!(predict(&back), predict(model), "record {i}");
    }
}

#[test]
fn fresh_model_resaves_byte_for_byte() {
    let (model, _) = trained();
    assert_eq!(model.negative_sampler().staleness(), 0);
    assert_byte_stable(model);
}

#[test]
fn churned_model_resaves_byte_for_byte() {
    assert_byte_stable(churned());
}

/// Byte ranges of `text` holding the graph and the sampler: the parts
/// the loader cross-checks and derives from.
fn checked_sections(text: &str) -> [std::ops::Range<usize>; 2] {
    let at = |key: &str| text.find(key).unwrap();
    [
        at("\"graph\":")..at("\"embeddings\":"),
        at("\"neg_sampler\":")..text.len(),
    ]
}

/// Start offsets and lengths of every whole integer token in `range`.
fn integer_tokens(text: &str, range: &std::ops::Range<usize>) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b'[' | b',' | b':') {
            let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            if matches!(bytes[i + len], b',' | b']' | b'}') {
                out.push((i, len));
            }
            i += len;
        } else {
            i += 1;
        }
    }
    out
}

/// `text` with one perturbation, chosen by `op` and placed by `pick`.
fn perturb(text: &str, op: u8, pick: u64, variant: usize) -> String {
    let sections = checked_sections(text);
    let range = &sections[usize::from(op & 1)];
    let ints = integer_tokens(text, range);
    let (start, len) = ints[(pick % ints.len() as u64) as usize];
    let original: u64 = text[start..start + len].parse().unwrap();
    let splice =
        |at: usize, cut: usize, with: &str| format!("{}{with}{}", &text[..at], &text[at + cut..]);
    match op >> 1 {
        // Replace one integer with a nearby or boundary value.
        0 => {
            let values = [
                0,
                1,
                original + 1,
                original.saturating_sub(1),
                original * 2 + 3,
                u64::from(u32::MAX),
                u64::from(u32::MAX) + 1,
                u64::MAX,
            ];
            splice(start, len, &values[variant % values.len()].to_string())
        }
        // Swap an integer with the next one.
        1 => match ints.iter().find(|&&(s, _)| s > start) {
            Some(&(next, next_len)) => {
                let a = &text[start..start + len];
                let b = &text[next..next + next_len];
                format!(
                    "{}{b}{}{a}{}",
                    &text[..start],
                    &text[start + len..next],
                    &text[next + next_len..]
                )
            }
            None => splice(start, len, "7"),
        },
        // Delete, or replace, one byte of the section.
        _ => {
            let at = range.start + (pick % (range.end - range.start) as u64) as usize;
            let tokens = [
                "", "0", "1", "-1", "[", "]", "{", "}", ",", "\"", "null", "[]",
            ];
            splice(at, 1, tokens[variant % tokens.len()])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One perturbed integer or token in the graph or sampler of a valid
    /// model file: the load fails with an error, or it yields a model
    /// whose own file loads back to the same bytes and which serves
    /// held-out records (an answer or an error, on both the inserting
    /// and the read-only path) without panicking.
    #[test]
    fn perturbed_model_files_load_or_fail_cleanly(
        op in 0u8..6,
        pick in any::<u64>(),
        variant in 0usize..12,
    ) {
        static TEXT: OnceLock<String> = OnceLock::new();
        let text = TEXT.get_or_init(|| serde_json::to_string(churned()).unwrap());
        let bent = perturb(text, op, pick, variant);
        if let Ok(model) = serde_json::from_str::<Grafics>(&bent) {
            let again = serde_json::to_string(&model).unwrap();
            let back: Grafics = serde_json::from_str(&again).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), again);
            let (_, records) = trained();
            let mut server = GraficsServer::over(&model);
            for (i, record) in records.iter().take(2).enumerate() {
                let _ = model.clone().infer(record, &mut record_rng(3, i));
                let _ = server.infer(record, &mut record_rng(4, i));
            }
        }
    }
}
