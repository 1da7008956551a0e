//! Golden-bits oracle for the online SGD kernel.
//!
//! Every case below runs the online refinement on a model drawn with
//! [`EmbeddingModel::init`] (no training, so no libm `expf` beyond the
//! sigmoid table, which is pinned separately) against a background
//! graph whose negative weights use exponent 1 (integer degrees, no
//! libm `pow`). Each `(dim, objective)` pair folds into one FNV-1a hash:
//!
//! - the query path under `Fixed`, a never-firing `Adaptive` and a
//!   firing `Adaptive` budget — the output bits, the spent samples, the
//!   bits of every row the probe saw, and the RNG's next `u64`;
//! - the graph-extending path (`embed_new_node_with`) — the full ego
//!   and context matrices after the insertion and the RNG's next `u64`;
//!
//! over records with only known MACs, one never-seen MAC and mostly
//! never-seen MACs. Dims 4, 8 and 16 run the monomorphised kernels; 32
//! runs the runtime-length (`DIM == 0`) path. The pinned values were
//! recorded from the slice-based kernel that preceded the register-held
//! one, so any change to arithmetic order, RNG draw order, the LR
//! schedule or probe placement fails here.

use super::*;
use crate::sgd::sigmoid_table;
use grafics_graph::WeightFunction;
use grafics_types::{MacAddr, Reading, Rssi};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        for &x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }
}

fn rec(readings: &[(u64, f64)]) -> SignalRecord {
    SignalRecord::new(
        readings
            .iter()
            .map(|&(m, dbm)| Reading::new(MacAddr::from_u64(m), Rssi::new(dbm).unwrap()))
            .collect(),
    )
    .unwrap()
}

/// 24 records over 12 MACs with varied degrees and RSSI.
fn background() -> BipartiteGraph {
    let mut g = BipartiteGraph::new(WeightFunction::default());
    for k in 0..24u64 {
        let macs = [k % 12, (k * 5 + 1) % 12, (k * 7 + 3) % 12];
        let readings: Vec<(u64, f64)> = macs
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, -40.0 - ((k * 3 + i as u64 * 11) % 50) as f64))
            .collect();
        g.add_record(&rec(&readings));
    }
    g
}

fn queries() -> Vec<SignalRecord> {
    vec![
        rec(&[(0, -45.0), (4, -61.0), (7, -70.0), (9, -52.0)]),
        rec(&[(2, -58.0), (5, -49.0), (900, -66.0)]),
        rec(&[(3, -72.0), (700, -50.0), (800, -63.0), (901, -77.0)]),
    ]
}

/// Query-path budgets: fixed, adaptive whose probe is consulted but
/// never fires, and adaptive whose probe fires on its third call.
const BUDGETS: [(OnlineBudget, Option<usize>); 3] = [
    (OnlineBudget::Fixed(12), None),
    (
        OnlineBudget::Adaptive {
            max_spe: 12,
            min_spe: 2,
            margin_ratio: 0.5,
        },
        None,
    ),
    (
        OnlineBudget::Adaptive {
            max_spe: 12,
            min_spe: 2,
            margin_ratio: 0.5,
        },
        Some(3),
    ),
];

fn case_hash(dim: usize, objective: Objective) -> u64 {
    let g = background();
    let model = EmbeddingModel::init(
        g.node_capacity(),
        dim,
        &mut ChaCha8Rng::seed_from_u64(dim as u64),
    );
    let neg = NegativeSampler::from_graph(&g, 1.0);
    let trainer = ElineTrainer::new(EmbeddingConfig {
        dim,
        objective,
        online_samples_per_edge: 12,
        ..Default::default()
    });
    let mut h = Fnv::new();
    let mut scratch = OnlineScratch::new();
    for (qi, query) in queries().iter().enumerate() {
        for (budget, fire_at) in BUDGETS {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + qi as u64);
            let mut seen = Fnv::new();
            let mut calls = 0usize;
            let (q, out) = trainer
                .embed_query_budgeted(
                    &g,
                    &model,
                    query,
                    &neg,
                    budget,
                    &mut |row| {
                        calls += 1;
                        seen.f32s(row);
                        fire_at == Some(calls)
                    },
                    &mut scratch,
                    &mut rng,
                )
                .unwrap();
            for &x in q {
                h.word(x.to_bits());
            }
            h.word(out.samples as u64);
            h.word(out.budget as u64);
            h.word(calls as u64);
            h.word(seen.0);
            h.word(rng.next_u64());
            if fire_at.is_some() {
                assert!(out.early_stop(), "dim {dim} {objective}: probe never fired");
            } else {
                assert_eq!(out.samples, out.budget, "dim {dim} {objective}");
            }
        }

        let mut g2 = g.clone();
        let mut model2 = model.clone();
        let rid = g2.add_record(query);
        let node = g2.record_node(rid).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(200 + qi as u64);
        trainer
            .embed_new_node_with(&g2, &mut model2, node, &neg, &mut scratch, &mut rng)
            .unwrap();
        let (ego, context) = model2.matrices();
        h.f32s(ego);
        h.f32s(context);
        h.word(rng.next_u64());
    }
    h.0
}

const OBJECTIVES: [Objective; 4] = [
    Objective::LineFirst,
    Objective::LineSecond,
    Objective::LineBoth,
    Objective::ELine,
];

/// `(dim, objective index into OBJECTIVES, hash)`.
const GOLDEN: [(usize, usize, u64); 16] = [
    (4, 0, 0xef9da56943eede41),
    (4, 1, 0x79930b5bd962aeb4),
    (4, 2, 0xbe06ea66b21dee07),
    (4, 3, 0xf060f579f1f79d82),
    (8, 0, 0x5acc0765ba78121f),
    (8, 1, 0xb63d45b0a3f90aa6),
    (8, 2, 0xfd5e634d50d3a3c4),
    (8, 3, 0x8c2f95ff650d626b),
    (16, 0, 0xe98f23e69e0b68d7),
    (16, 1, 0x3b1abf3f7196e1b1),
    (16, 2, 0xfda21f61159adc1e),
    (16, 3, 0xe1e689b9db2619b9),
    (32, 0, 0x91b629d7f5f3abaf),
    (32, 1, 0xba52e59492f3d319),
    (32, 2, 0xc813966fd28837b7),
    (32, 3, 0xda1391c4fb6d704c),
];

/// The sigmoid table is the one libm-derived input of the kernel; a
/// platform whose `expf` rounds differently fails here, not in the
/// kernel hashes below.
#[test]
fn sigmoid_table_bits_are_pinned() {
    let mut h = Fnv::new();
    h.f32s(sigmoid_table());
    assert_eq!(
        h.0, 0xc04e_b703_f80c_0ddb,
        "sigmoid table bits: {:#018x}",
        h.0
    );
}

#[test]
fn online_kernel_bits_are_pinned() {
    let got: Vec<(usize, usize, u64)> = GOLDEN
        .iter()
        .map(|&(dim, o, _)| (dim, o, case_hash(dim, OBJECTIVES[o])))
        .collect();
    let table: String = got
        .iter()
        .map(|(d, o, h)| format!("    ({d}, {o}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "online kernel bits changed; now:\n{table}");
}
