//! The one-pass JSON decoder against the `Value`-tree path it replaced.
//!
//! For every wire and file type the serving stack decodes — request
//! bodies, WAL lines, the fleet manifest and a trained model file —
//! `serde_json::from_str::<T>(s)` must agree with
//! `T::from_value(&serde_json::from_str::<Value>(s)?)`: both reject, or
//! both produce the same value with bit-equal floats; on malformed text
//! both report the same syntax error. Inputs are valid
//! texts, random JSON over the types' own key vocabulary, byte-mutated
//! valid texts, and hand cases for the rules the two paths must share
//! (first duplicate field wins, last duplicate map key wins, missing
//! `Option` fields, unknown keys, enum forms).
//!
//! The same file pins the encoder: a saved model's bytes equal what the
//! `format!`-per-number `Value` writer produced.

use grafics_core::wal::WalEntry;
use grafics_core::{
    DurabilityPolicy, FleetManifest, Grafics, GraficsConfig, MaintenancePolicy, MatchPrecision,
    OnlineBudget, RefreshTrigger, RetentionPolicy, RouterKind, ServingPolicy,
};
use grafics_data::BuildingModel;
use grafics_serve::api::{AbsorbRequest, InferBatchRequest, InferRequest};
use grafics_types::SignalRecord;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use serde_json::json;
use std::sync::OnceLock;

/// A small trained model, its saved text, and its held-out records.
fn fixture() -> &'static (Grafics, String, Vec<SignalRecord>) {
    static FIXTURE: OnceLock<(Grafics, String, Vec<SignalRecord>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let ds = BuildingModel::office("json-oracle", 2)
            .with_records_per_floor(20)
            .simulate(&mut rng);
        let split = ds.split(0.7, &mut rng).unwrap();
        let train = split.train.with_label_budget(4, &mut rng);
        let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
        let text = serde_json::to_string(&model).unwrap();
        let records = split
            .test
            .samples()
            .iter()
            .map(|s| s.record.clone())
            .collect();
        (model, text, records)
    })
}

/// Bit-exact comparison of two `Value` trees, ignoring object entry
/// order (a `HashMap` serializes in per-instance order).
fn same(a: &Value, b: &Value) -> bool {
    fn sorted(m: &[(String, Value)]) -> Vec<&(String, Value)> {
        let mut v: Vec<_> = m.iter().collect();
        v.sort_by(|x, y| x.0.cmp(&y.0));
        v
    }
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            let (x, y) = (sorted(x), sorted(y));
            x.len() == y.len()
                && x.iter()
                    .zip(&y)
                    .all(|(a, b)| a.0 == b.0 && same(&a.1, &b.1))
        }
        _ => a == b,
    }
}

/// The request bodies are decode-only; compare them field by field.
fn infer_fields(r: &InferRequest) -> Value {
    json!({ "record": r.record, "seed": r.seed, "fallback": r.fallback, "index": r.index })
}

fn absorb_fields(r: &AbsorbRequest) -> Value {
    json!({ "record": r.record, "building": r.building })
}

fn batch_fields(r: &InferBatchRequest) -> Value {
    json!({
        "records": r.records,
        "seed": r.seed,
        "threads": r.threads,
        "fallback": r.fallback,
        "indices": r.indices
    })
}

/// Runs the oracle on one text; `true` if it decoded.
fn oracle<T: Deserialize>(text: &str, fields: impl Fn(&T) -> Value) -> bool {
    let one = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text).and_then(|v| Ok(T::from_value(&v)?));
    match (one, tree) {
        (Ok(a), Ok(b)) => {
            assert!(same(&fields(&a), &fields(&b)), "values differ on {text:?}");
            true
        }
        (Err(one), Err(_)) => {
            // Malformed text reads as the same error on both paths.
            if let Err(syntax) = serde_json::from_str::<Value>(text) {
                assert_eq!(one, syntax, "{text:?}");
            }
            false
        }
        (a, b) => panic!(
            "paths disagree on {text:?}: one-pass ok={}, tree ok={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// Every target type on one text.
fn oracle_all(text: &str) {
    oracle::<InferRequest>(text, infer_fields);
    oracle::<AbsorbRequest>(text, absorb_fields);
    oracle::<InferBatchRequest>(text, batch_fields);
    oracle::<WalEntry>(text, Serialize::to_value);
    oracle::<FleetManifest>(text, Serialize::to_value);
}

fn record_json(i: usize) -> String {
    let records = &fixture().2;
    serde_json::to_string(&records[i % records.len()]).unwrap()
}

/// Valid texts of every target type.
fn valid_texts() -> Vec<String> {
    let r0 = record_json(0);
    let r1 = record_json(1);
    let entry = WalEntry {
        seq: 3,
        rng: 17,
        seed: u64::MAX,
        record: fixture().2[2].clone(),
    };
    let manifest = FleetManifest {
        retention: RetentionPolicy::PerFloorCap(7),
        router: RouterKind::WeightedOverlap,
        durability: DurabilityPolicy::FsyncEveryN(64),
        maintenance: MaintenancePolicy {
            publish_after_absorbs: Some(32),
            publish_after_secs: Some(1.5),
            refresh_every_publishes: None,
            refresh_trigger: Some(RefreshTrigger::MarginDrop {
                window: 50,
                ratio: 0.1,
            }),
        },
        serving: Some(ServingPolicy {
            budget: Some(OnlineBudget::Adaptive {
                max_spe: 40,
                min_spe: 5,
                margin_ratio: 0.25,
            }),
            precision: Some(MatchPrecision::F32Refined),
        }),
        ..FleetManifest::default()
    };
    vec![
        format!(r#"{{"record":{r0},"seed":7,"index":3}}"#),
        format!(r#"{{"record":{r0},"seed":7,"fallback":true,"index":0}}"#),
        format!(r#"{{"record":{r1},"building":2}}"#),
        format!(r#"{{"records":[{r0},{r1}],"seed":1,"threads":4,"indices":[5,9]}}"#),
        serde_json::to_string(&entry).unwrap(),
        serde_json::to_string(&manifest).unwrap(),
        serde_json::to_string(&FleetManifest::default()).unwrap(),
    ]
}

/// The rules both paths share, one hand case each.
#[test]
fn hand_cases_agree() {
    let r0 = record_json(0);
    let r1 = record_json(1);
    let cases = [
        // Duplicate struct field: the first wins, the second is skipped
        // even when it would not decode.
        (format!(r#"{{"record":{r0},"record":{r1}}}"#), true),
        (format!(r#"{{"seed":1,"record":{r0},"seed":"x"}}"#), true),
        // Missing `Option` fields and unknown keys.
        (
            format!(r#"{{"zz":{{"a":[1,2,null]}},"record":{r0}}}"#),
            true,
        ),
        // An unknown key must still be well-formed.
        (format!(r#"{{"zz":[1,],"record":{r0}}}"#), false),
        // A quoted number is not an f64.
        (
            r#"{"record":{"readings":[{"mac":1,"rssi":"120"}]}}"#.to_owned(),
            false,
        ),
        (
            r#"{"record":{"readings":[{"mac":1,"rssi":-120}]}}"#.to_owned(),
            true,
        ),
        // Trailing characters.
        (format!(r#"{{"record":{r0}}} {{}}"#), false),
    ];
    for (text, decodes) in &cases {
        assert_eq!(
            oracle::<InferRequest>(text, infer_fields),
            *decodes,
            "{text}"
        );
        oracle_all(text);
    }

    // Enums: unit, tuple and struct variants; one-entry vs two-entry
    // objects; a unit variant in object form.
    let manifest = &valid_texts()[5];
    assert!(oracle::<FleetManifest>(manifest, Serialize::to_value));
    for (from, to, decodes) in [
        (r#""WeightedOverlap""#, r#""Overlap""#, true),
        (r#""WeightedOverlap""#, r#"{"Overlap":null}"#, false),
        (r#"{"PerFloorCap":7}"#, r#"{"FifoBudget":9}"#, true),
        (r#"{"PerFloorCap":7}"#, r#""KeepAll""#, true),
        (
            r#"{"PerFloorCap":7}"#,
            r#"{"PerFloorCap":7,"FifoBudget":9}"#,
            false,
        ),
        (r#"{"PerFloorCap":7}"#, r#"{}"#, false),
        (r#""max_spe":40"#, r#""max_spe":40,"max_spe":"x""#, true),
        (r#""F32Refined""#, r#""F16""#, false),
    ] {
        assert!(manifest.contains(from), "{from}");
        let text = manifest.replacen(from, to, 1);
        assert_eq!(
            oracle::<FleetManifest>(&text, Serialize::to_value),
            decodes,
            "{text}"
        );
    }
}

/// A trained model file decodes identically on both paths, including
/// with a duplicated field (the first occurrence wins on both).
#[test]
fn model_file_agrees() {
    let (_, text, _) = fixture();
    assert!(oracle::<Grafics>(text, Serialize::to_value));

    assert!(text.ends_with('}') && text.contains(r#""train_records":"#));
    let dup = format!(r#"{},"train_records":0}}"#, &text[..text.len() - 1]);
    assert!(oracle::<Grafics>(&dup, Serialize::to_value));
    let reread: Grafics = serde_json::from_str(&dup).unwrap();
    let original: Grafics = serde_json::from_str(text).unwrap();
    assert!(same(&reread.to_value(), &original.to_value()));
}

/// Random JSON over the target types' own keys, so objects often hit
/// real fields, repeat them, or nest them at the wrong depth.
fn random_json(rng: &mut ChaCha8Rng, depth: usize, out: &mut String) {
    const KEYS: [&str; 18] = [
        "record",
        "readings",
        "mac",
        "rssi",
        "seed",
        "fallback",
        "index",
        "building",
        "records",
        "threads",
        "indices",
        "seq",
        "rng",
        "version",
        "router",
        "retention",
        "serving",
        "zz",
    ];
    let pick = if depth >= 4 {
        rng.gen_range(0..8)
    } else {
        rng.gen_range(0..11)
    };
    match pick {
        0 => out.push_str("null"),
        1 => out.push_str(if rng.gen_bool(0.5) { "true" } else { "false" }),
        2 => out.push_str(&rng.gen_range(0u64..300).to_string()),
        3 => out.push_str(&(-(rng.gen_range(0i64..130))).to_string()),
        4 => out.push_str(&format!("{:?}", rng.gen_range(-130.0f64..30.0))),
        5 => out.push_str(
            ["1e400", "-0", "18446744073709551616", "1E2", "0.5e-3"][rng.gen_range(0..5)],
        ),
        6 => out.push_str(
            ["\"120\"", "\"Overlap\"", "\"KeepAll\"", "\"a\\u00e9\\n\""][rng.gen_range(0..4)],
        ),
        7 => out.push_str(&record_json(rng.gen_range(0..8))),
        8 | 9 => {
            out.push('{');
            for i in 0..rng.gen_range(0..5) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", KEYS[rng.gen_range(0..KEYS.len())]));
                random_json(rng, depth + 1, out);
            }
            out.push('}');
        }
        _ => {
            out.push('[');
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                }
                random_json(rng, depth + 1, out);
            }
            out.push(']');
        }
    }
}

/// One random byte-level edit: replace, delete, insert or duplicate.
fn mutate(rng: &mut ChaCha8Rng, text: &str) -> String {
    const BYTES: &[u8] = b"{}[],:\"\\-+.0123456789eEnulltrfasx \x01";
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..4) {
        0 => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
        1 => {
            bytes.remove(at);
        }
        2 => bytes.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
        _ => {
            let end = (at + rng.gen_range(1..24)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn random_json_agrees(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut text = String::new();
        random_json(&mut rng, 0, &mut text);
        oracle_all(&text);
    }

    #[test]
    fn mutated_valid_texts_agree(seed in any::<u64>(), which in 0usize..7, edits in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut text = valid_texts().swap_remove(which);
        for _ in 0..edits {
            text = mutate(&mut rng, &text);
        }
        oracle_all(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutated_model_files_agree(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let text = mutate(&mut rng, &fixture().1);
        oracle::<Grafics>(&text, Serialize::to_value);
    }
}

/// The compact writer as it was before numbers were formatted in place:
/// one `format!`/`to_string` allocation per number. An `f32` is its
/// shortest text, or the widened `f64` where that text reads back as
/// another `f32`.
fn reference_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::F64(_) => out.push_str("null"),
        // The shortest `f32` text, unless reading it as `f64` and
        // narrowing misses `f`; then the widened `f64`.
        Value::F32(f) if f.is_finite() => {
            let short = format!("{f:?}");
            if short.parse::<f64>().map(|x| (x as f32).to_bits()) == Ok(f.to_bits()) {
                out.push_str(&short);
            } else {
                out.push_str(&format!("{:?}", f64::from(*f)));
            }
        }
        Value::F32(_) => out.push_str("null"),
        Value::Str(s) => out.push_str(&serde_json::to_string(s).unwrap()),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_compact(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(k).unwrap());
                out.push(':');
                reference_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// A saved model's bytes are exactly what the per-number-allocating
/// writer produced for the same `Value` tree.
#[test]
fn saved_model_bytes_match_the_reference_writer() {
    let (model, _, _) = fixture();
    let tree = model.to_value();
    let mut expect = String::new();
    reference_compact(&tree, &mut expect);
    assert_eq!(serde_json::to_string(model).unwrap(), expect);
}
