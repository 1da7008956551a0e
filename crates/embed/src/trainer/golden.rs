//! Golden-bits oracle for the serial offline trainer.
//!
//! Every case trains a model from scratch with
//! [`ElineTrainer::train_with_stats`] on a small two-floor graph whose
//! edge weights are integer offsets and whose negative weights use
//! exponent 1 (integer degrees, no libm `pow`). Each `(dim, objective)`
//! pair folds eight runs — dropout {0, 0.1} × negatives {0, 5} ×
//! `lr_decay` {off, on} — into one FNV-1a hash of:
//!
//! - the final ego and context matrices;
//! - every [`TrainingStats`] checkpoint (sample count and loss bits);
//! - the RNG's next `u64`, which pins the number and order of draws.
//!
//! Dims 4, 8 and 16 run the monomorphised step; 12 runs the
//! runtime-length (`DIM == 0`) one. The trainer's libm inputs — the
//! exact `expf` sigmoid and the `ln` of the probe loss — are pinned by
//! their own hashes, so a platform whose libm rounds differently fails
//! there and not in the training hashes. The pinned values were
//! recorded from the slice-based step that preceded the register-held
//! one, so any change to arithmetic order, RNG draw order, the dropout
//! rule or the LR schedule fails here.

use super::*;
use crate::sgd::sigmoid;
use grafics_graph::WeightFunction;
use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
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

/// Two floors of 10 records each: floor A hears MACs 0..8, floor B
/// MACs 100..108, four MACs per record at integer RSSI.
fn two_floor_graph() -> BipartiteGraph {
    let mut g = BipartiteGraph::new(WeightFunction::default());
    for k in 0..20u64 {
        let base = if k % 2 == 0 { 0 } else { 100 };
        let readings: Vec<Reading> = (0..4u64)
            .map(|i| {
                let mac = base + (k * 3 + i * 2) % 8;
                let dbm = -40.0 - ((k * 7 + i * 13) % 50) as f64;
                Reading::new(MacAddr::from_u64(mac), Rssi::new(dbm).unwrap())
            })
            .collect();
        g.add_record(&SignalRecord::new(readings).unwrap());
    }
    g
}

const OBJECTIVES: [Objective; 4] = [
    Objective::LineFirst,
    Objective::LineSecond,
    Objective::LineBoth,
    Objective::ELine,
];

fn case_hash(g: &BipartiteGraph, dim: usize, objective: Objective) -> u64 {
    let mut h = Fnv::new();
    let mut seed = dim as u64 * 100;
    for dropout in [0.0, 0.1] {
        for negatives in [0, 5] {
            for lr_decay in [false, true] {
                let trainer = ElineTrainer::new(EmbeddingConfig {
                    dim,
                    objective,
                    epochs: 10,
                    negatives,
                    initial_lr: 0.05,
                    lr_decay,
                    dropout,
                    negative_exponent: 1.0,
                    ..Default::default()
                });
                seed += 1;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let (model, stats) = trainer.train_with_stats(g, &mut rng).unwrap();
                let (ego, context) = model.matrices();
                h.f32s(ego);
                h.f32s(context);
                h.word(stats.checkpoints.len() as u64);
                for &(t, loss) in &stats.checkpoints {
                    h.word(t as u64);
                    h.word(loss.to_bits());
                }
                h.word(rng.next_u64());
            }
        }
    }
    h.0
}

/// `(dim, objective index into OBJECTIVES, hash)`.
const GOLDEN: [(usize, usize, u64); 16] = [
    (4, 0, 0x15068f8ece7e66d8),
    (4, 1, 0x1d93042eed1cebf1),
    (4, 2, 0x7f94589fd72810ec),
    (4, 3, 0x2dabc2ef82866f57),
    (8, 0, 0x4bfe3c224e7e56c3),
    (8, 1, 0x7e714b494c2d4c24),
    (8, 2, 0xb7c709f8061b0bdb),
    (8, 3, 0x6128c0d66d9a7f79),
    (16, 0, 0x29ded31d15f9d99b),
    (16, 1, 0xa53dfe221aaac7a3),
    (16, 2, 0x9b9794c4b65aa942),
    (16, 3, 0x9f5b0971222a314e),
    (12, 0, 0xe4830aeb552b17ec),
    (12, 1, 0xe5d7b81682455639),
    (12, 2, 0x284617f0cf72e672),
    (12, 3, 0x3dbb4be53c5dfe35),
];

/// The exact sigmoid is the trainer's one libm `expf` input; a platform
/// whose `expf` rounds differently fails here, not in the training
/// hashes below. The grid `i / 64` covers both clamp bounds.
#[test]
fn sigmoid_bits_are_pinned() {
    let mut h = Fnv::new();
    for i in -640..=640 {
        h.word(u64::from(sigmoid(i as f32 / 64.0).to_bits()));
    }
    assert_eq!(h.0, 0xa8d6_67bb_14c1_7c3e, "sigmoid bits: {:#018x}", h.0);
}

/// The probe loss takes the `ln` of a sigmoid clamped to `[1e-9, 1]`;
/// pinned separately for the same reason as the sigmoid.
#[test]
fn probe_ln_bits_are_pinned() {
    let mut h = Fnv::new();
    for i in 0..=1000 {
        let x = (f64::from(i) / 1000.0).max(1e-9);
        h.word(x.ln().to_bits());
    }
    assert_eq!(h.0, 0xbd77_b662_2327_bfc4, "ln bits: {:#018x}", h.0);
}

#[test]
fn serial_trainer_bits_are_pinned() {
    let g = two_floor_graph();
    let got: Vec<(usize, usize, u64)> = GOLDEN
        .iter()
        .map(|&(dim, o, _)| (dim, o, case_hash(&g, dim, OBJECTIVES[o])))
        .collect();
    let table: String = got
        .iter()
        .map(|(d, o, h)| format!("    ({d}, {o}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "serial trainer bits changed; now:\n{table}");
}
