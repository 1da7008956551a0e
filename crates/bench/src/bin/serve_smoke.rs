//! Serving smoke: online queries/sec against graph size, incremental
//! negative sampler vs the pre-PR rebuild-per-query path, printed as JSON
//! for BENCH_*.json trajectories.
//!
//! The model is trained once on a small labelled corpus, then grown to
//! each target node count by absorbing simulated crowdsourced records
//! through the online path (exactly how a deployment's graph grows). At
//! every checkpoint the same query set is served two ways:
//!
//! - **incremental** — [`grafics_core::GraficsServer`] over the model's
//!   incrementally maintained sampler: O(deg) per query;
//! - **adaptive** — the same engine under the deployment-tunable fast
//!   policy (adaptive refinement budget stopping on a decisive top-2
//!   centroid margin, f32 centroid sweep with f64 re-score), with
//!   p50/p95/p99 per-query latency, the early-stop rate, and the floor
//!   agreement against the incremental arm;
//! - **rebuild** — a faithful reference reproduction of the pre-PR
//!   per-query procedure: the O(n) `d_z^{3/4}` sweep + alias-table
//!   construction *and* the historical serial embedding kernels
//!   (exact-`exp` sigmoid, two-RNG-draw alias sampling, per-query
//!   allocations), as `Grafics::infer` ran before the serving engine.
//!
//! The win is algorithmic, not parallelism: every path runs one thread.
//!
//! ```sh
//! cargo run --release -p grafics-bench --bin serve_smoke [-- --queries N --sizes 5000,20000]
//! ```
//!
//! The default sizes are the two largest of the historical
//! {1 000, 5 000, 20 000} sweep — the small point showed the same flat
//! per-query cost while costing CI minutes next to `fleet_smoke`; pass
//! `--sizes` explicitly to re-measure it.

use grafics_core::{
    Grafics, GraficsConfig, GraficsServer, MatchPrecision, OnlineBudget, Prediction, ServingPolicy,
};
use grafics_graph::{AliasTable, BipartiteGraph, NodeIdx};
use grafics_types::SignalRecord;

use grafics_data::BuildingModel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The pre-serving-engine online path, reproduced from the original
/// `ElineTrainer::embed_new_node` and its slice-based SGD step (E-LINE
/// objective, the preset in use): per query it re-sweeps the `d_z^{3/4}` weights over the
/// whole node space, builds two alias tables, embeds the new node with
/// the exact-`exp` sigmoid and sequential dot/axpy kernels, and allocates
/// its working vectors afresh — everything the engine now avoids.
fn legacy_infer(
    model: &Grafics,
    record: &SignalRecord,
    rng: &mut ChaCha8Rng,
) -> Option<Prediction> {
    let graph: &BipartiteGraph = model.graph();
    let cfg = model.config();
    let dim = cfg.dim;
    let embeddings = model.embeddings();

    // Historical per-query O(n) rebuild.
    let neg_weights = graph.negative_sampling_weights(0.75);
    let neg_alias = AliasTable::new(&neg_weights)?;

    // Known-MAC neighbor list — the same anchoring rule as the server, so
    // both arms serve the same record set (never-seen MACs trained only
    // against their own fresh random rows historically; skipping them
    // shortens this arm's loop, which is conservative for the
    // comparison).
    let mut neighbors: Vec<(NodeIdx, f64)> = Vec::new();
    for reading in record.readings() {
        if let Some(m) = graph.mac_node(reading.mac) {
            neighbors.push((m, graph.weight_function().weight(reading.rssi)));
        }
    }
    let weights: Vec<f64> = neighbors.iter().map(|&(_, w)| w).collect();
    let local_alias = AliasTable::new(&weights)?;

    let sigmoid = |x: f32| 1.0 / (1.0 + (-x.clamp(-8.0, 8.0)).exp());
    let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(&x, &y)| x * y).sum() };
    let bound = 0.5 / dim as f32;
    let mut node_ego: Vec<f32> = (0..dim).map(|_| rng.gen_range(-bound..=bound)).collect();
    let mut node_ctx: Vec<f32> = (0..dim).map(|_| rng.gen_range(-bound..=bound)).collect();
    let mut negatives: Vec<NodeIdx> = Vec::with_capacity(cfg.negatives);

    let total = cfg.online_samples_per_edge * neighbors.len();
    for t in 0..total {
        let frac = 1.0 - t as f32 / total as f32;
        let lr = cfg.initial_lr as f32 * frac.max(1e-4);
        let (j, _) = neighbors[local_alias.sample(rng)];
        negatives.clear();
        let mut guard = 0;
        while negatives.len() < cfg.negatives && guard < 20 * cfg.negatives.max(1) {
            let z = NodeIdx(neg_alias.sample(rng) as u32);
            if z != j {
                negatives.push(z);
            }
            guard += 1;
        }
        // E-LINE: two positive+negative directions, two positive pulls —
        // node rows are the only ones written (everything else frozen).
        for (src, tgt_ctx) in [(&mut node_ego, true), (&mut node_ctx, false)] {
            let jrow = if tgt_ctx {
                embeddings.context(j)
            } else {
                embeddings.ego(j)
            };
            let mut grad = vec![0.0f32; dim];
            let g = lr * (1.0 - sigmoid(dot(src, jrow)));
            for d in 0..dim {
                grad[d] += g * jrow[d];
            }
            for &z in &negatives {
                let zrow = if tgt_ctx {
                    embeddings.context(z)
                } else {
                    embeddings.ego(z)
                };
                let g = lr * (0.0 - sigmoid(dot(src, zrow)));
                for d in 0..dim {
                    grad[d] += g * zrow[d];
                }
            }
            for d in 0..dim {
                src[d] += grad[d];
            }
        }
        for (src, jrow) in [
            (&mut node_ctx, embeddings.ego(j)),
            (&mut node_ego, embeddings.context(j)),
        ] {
            let g = lr * (1.0 - sigmoid(dot(src, jrow)));
            for d in 0..dim {
                src[d] += g * jrow[d];
            }
        }
    }

    let query: Vec<f64> = node_ego.iter().map(|&x| f64::from(x)).collect();
    model.clusters().predict(&query).ok()
}

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let queries = flag(&args, "--queries", 200);
    let sizes: Vec<usize> = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![5_000, 20_000]);

    // Train once on a small labelled corpus, with the serving preset
    // (accuracy-equivalent per-query budget; see `spe_sweep`).
    let mut rng = ChaCha8Rng::seed_from_u64(2022);
    let train = BuildingModel::office("serve-smoke", 3)
        .with_records_per_floor(60)
        .simulate(&mut rng)
        .with_label_budget(4, &mut rng);
    let config = GraficsConfig {
        epochs: 30,
        ..GraficsConfig::serving()
    };
    let mut model = Grafics::train(&train, &config, &mut rng).unwrap();

    // A fixed query set, and a large unlabelled stream to grow the graph.
    let query_set: Vec<SignalRecord> = BuildingModel::office("serve-smoke", 3)
        .with_records_per_floor(queries.div_ceil(3).max(1))
        .simulate(&mut rng)
        .samples()
        .iter()
        .take(queries)
        .map(|s| s.record.clone())
        .collect();
    let max_nodes = sizes.iter().copied().max().unwrap_or(1_000);
    let stream = BuildingModel::office("serve-smoke", 3)
        .with_records_per_floor(max_nodes.div_ceil(3) + 64)
        .simulate(&mut rng);
    let mut absorb = stream.samples().iter();

    let mut points = Vec::new();
    for &target in &sizes {
        // Grow the graph online to the target node count.
        while model.graph().node_capacity() < target {
            let Some(s) = absorb.next() else { break };
            let _ = model.infer(&s.record, &mut rng);
        }
        let nodes = model.graph().node_capacity();

        // Incremental path: shared sampler, session scratch, historical
        // fixed budget + f64 matching.
        let mut server = model.server();
        let t = Instant::now();
        let mut served = 0usize;
        let mut inc_lat_us: Vec<f64> = Vec::with_capacity(query_set.len());
        let mut inc_floors = Vec::with_capacity(query_set.len());
        for (i, q) in query_set.iter().enumerate() {
            let mut qrng = ChaCha8Rng::seed_from_u64(i as u64);
            let tq = Instant::now();
            let pred = server.infer(q, &mut qrng).ok();
            inc_lat_us.push(1e6 * tq.elapsed().as_secs_f64());
            served += usize::from(pred.is_some());
            inc_floors.push(pred.map(|p| p.floor));
        }
        let incremental_secs = t.elapsed().as_secs_f64();
        inc_lat_us.sort_by(f64::total_cmp);

        // Adaptive + f32 path: the deployment-tunable fast configuration —
        // refinement stops once the top-2 centroid margin is decisive,
        // matching sweeps in f32 with an f64 re-score of the shortlist.
        let policy = ServingPolicy {
            budget: Some(OnlineBudget::Adaptive {
                max_spe: 40,
                min_spe: 10,
                margin_ratio: 0.25,
            }),
            precision: Some(MatchPrecision::F32Refined),
        };
        let mut adaptive_server = GraficsServer::with_policy(&model, policy);
        let t = Instant::now();
        let mut served_adaptive = 0usize;
        let mut agree = 0usize;
        let mut ada_lat_us: Vec<f64> = Vec::with_capacity(query_set.len());
        for (i, q) in query_set.iter().enumerate() {
            let mut qrng = ChaCha8Rng::seed_from_u64(i as u64);
            let tq = Instant::now();
            let floor = adaptive_server.infer(q, &mut qrng).ok().map(|p| p.floor);
            ada_lat_us.push(1e6 * tq.elapsed().as_secs_f64());
            served_adaptive += usize::from(floor.is_some());
            agree += usize::from(floor.is_some() && floor == inc_floors[i]);
        }
        let adaptive_secs = t.elapsed().as_secs_f64();
        ada_lat_us.sort_by(f64::total_cmp);
        let counters = adaptive_server.counters();
        assert_eq!(
            served, served_adaptive,
            "adaptive arm must serve the same record set"
        );
        let agreement = agree as f64 / served.max(1) as f64;
        assert!(
            agreement >= 0.9,
            "adaptive+f32 floors must track the fixed path: {agreement:.3}"
        );

        // Historical rebuild-per-query path (see `legacy_infer`).
        let t = Instant::now();
        let mut served_rebuild = 0usize;
        for (i, q) in query_set.iter().enumerate() {
            let mut qrng = ChaCha8Rng::seed_from_u64(i as u64);
            served_rebuild += usize::from(legacy_infer(&model, q, &mut qrng).is_some());
        }
        let rebuild_secs = t.elapsed().as_secs_f64();

        assert_eq!(served, served_rebuild, "paths must serve the same set");
        let qps_incremental = queries as f64 / incremental_secs;
        let qps_rebuild = queries as f64 / rebuild_secs;
        let early_stop_rate = counters.early_stops as f64 / served.max(1) as f64;
        points.push(serde_json::json!({
            "nodes": nodes,
            "edges": model.graph().edge_count(),
            "queries": queries,
            "served": served,
            "qps_incremental": qps_incremental,
            "qps_rebuild_per_query": qps_rebuild,
            "us_per_query_incremental": 1e6 * incremental_secs / queries as f64,
            "incremental_p50_us": percentile(&inc_lat_us, 0.50),
            "incremental_p95_us": percentile(&inc_lat_us, 0.95),
            "incremental_p99_us": percentile(&inc_lat_us, 0.99),
            "us_per_query_adaptive": 1e6 * adaptive_secs / queries as f64,
            "adaptive_p50_us": percentile(&ada_lat_us, 0.50),
            "adaptive_p95_us": percentile(&ada_lat_us, 0.95),
            "adaptive_p99_us": percentile(&ada_lat_us, 0.99),
            "adaptive_early_stop_rate": early_stop_rate,
            "adaptive_floor_agreement": agreement,
            "speedup_adaptive_vs_incremental": incremental_secs / adaptive_secs,
            "us_per_query_rebuild": 1e6 * rebuild_secs / queries as f64,
            "speedup": qps_incremental / qps_rebuild,
        }));
    }

    let payload = serde_json::json!({
        "benchmark": "serve_smoke",
        "corpus": "office-3f (grown online)",
        "threads": 1,
        "points": points,
    });
    println!("{}", serde_json::to_string_pretty(&payload).unwrap());
}
