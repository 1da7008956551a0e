//! Extension experiment: GRAFICS (no AP locations) against the related
//! work that *requires* them. The ViFi-style baseline (§II \[29\]) gets the
//! simulator's true AP map — oracle information no crowdsourced system
//! has — plus the same labelled samples; HELM and SVM-OvO (§II \[16\],
//! \[12\]) get the standard matrix inputs. GRAFICS matching the oracle
//! while using strictly less information is the strongest form of the
//! paper's "independent of AP locations" claim.

use grafics_baselines::{BaselineConfig, FloorClassifier, Helm, StoryTeller, SvmOvO, ViFi};
use grafics_bench::{write_json, ExperimentConfig};
use grafics_core::{Grafics, GraficsConfig};
use grafics_data::BuildingModel;
use grafics_metrics::ConfusionMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let buildings = [
        BuildingModel::office("oracle-office", 5),
        BuildingModel::mall("oracle-mall", 4),
        BuildingModel::hospital("oracle-hospital", 6),
    ];
    let mut all = Vec::new();
    println!(
        "{:<18} {:>9} {:>12} {:>13} {:>9} {:>9}",
        "building", "GRAFICS", "ViFi(oracle)", "StoryT(oracle)", "HELM", "SVM-OvO"
    );
    for b in buildings {
        let b = b.with_records_per_floor(cfg.records_per_floor);
        let (mut g_sum, mut v_sum, mut st_sum, mut h_sum, mut s_sum, mut n) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0);
        for run in 0..cfg.runs {
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed + run as u64);
            let layout = b.layout(&mut rng);
            let ds = b
                .simulate_with_layout(&layout, &mut rng)
                .filter_rare_macs(2);
            let Ok(split) = ds.split(cfg.train_ratio, &mut rng) else {
                continue;
            };
            let train = split
                .train
                .with_label_budget(cfg.labels_per_floor, &mut rng);

            // GRAFICS (crowdsourced info only).
            let mut cm = ConfusionMatrix::new();
            if let Ok(mut m) = Grafics::train(&train, &GraficsConfig::default(), &mut rng) {
                for s in split.test.samples() {
                    if let Ok(p) = m.infer(&s.record, &mut rng) {
                        cm.observe(s.ground_truth, p.floor);
                    }
                }
            }
            g_sum += cm.report().micro_f;

            // ViFi with oracle AP locations.
            let mut cm = ConfusionMatrix::new();
            if let Ok(v) = ViFi::train(
                &train,
                &layout,
                b.width_m,
                b.depth_m,
                b.floors,
                b.propagation.floor_height_m,
                8,
            ) {
                for s in split.test.samples() {
                    if let Some(f) = v.predict(&s.record) {
                        cm.observe(s.ground_truth, f);
                    }
                }
            }
            v_sum += cm.report().micro_f;

            // StoryTeller with oracle AP positions.
            let bl = BaselineConfig::default();
            let mut cm = ConfusionMatrix::new();
            if let Ok(mut m) =
                StoryTeller::train(&train, &layout, b.width_m, b.depth_m, 12, &bl, &mut rng)
            {
                for s in split.test.samples() {
                    if let Some(f) = m.predict(&s.record) {
                        cm.observe(s.ground_truth, f);
                    }
                }
            }
            st_sum += cm.report().micro_f;

            // HELM and SVM (matrix inputs, pseudo-labels).
            let mut cm = ConfusionMatrix::new();
            if let Ok(mut m) = Helm::train(&train, &bl, &mut rng) {
                for s in split.test.samples() {
                    if let Some(f) = m.predict(&s.record) {
                        cm.observe(s.ground_truth, f);
                    }
                }
            }
            h_sum += cm.report().micro_f;

            let mut cm = ConfusionMatrix::new();
            if let Ok(mut m) = SvmOvO::train(&train, &bl, &mut rng) {
                for s in split.test.samples() {
                    if let Some(f) = m.predict(&s.record) {
                        cm.observe(s.ground_truth, f);
                    }
                }
            }
            s_sum += cm.report().micro_f;
            n += 1;
        }
        let nf = n as f64;
        println!(
            "{:<18} {:>9.3} {:>12.3} {:>13.3} {:>9.3} {:>9.3}",
            b.name,
            g_sum / nf,
            v_sum / nf,
            st_sum / nf,
            h_sum / nf,
            s_sum / nf
        );
        all.push(serde_json::json!({
            "building": b.name,
            "grafics": g_sum / nf,
            "vifi_oracle": v_sum / nf,
            "storyteller_oracle": st_sum / nf,
            "helm": h_sum / nf,
            "svm_ovo": s_sum / nf,
        }));
    }
    write_json("extension_oracle.json", &all);
}
