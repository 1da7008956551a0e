//! Per-layer probes for traced runs. Each probe calls one layer's public
//! functions from here, inside a span, on the workload's own models and
//! scans, so the layer numbers describe the fleet the workload served:
//!
//! - training stages on a few shards: graph build, E-LINE training,
//!   dissimilarity matrix and clustering fit;
//! - one query at a time: fleet routing, budgeted refinement (with the
//!   adaptive margin probes as child spans), centroid matching, and the
//!   whole `GraficsFleet::serve`, which must agree bit for bit with the
//!   decomposed path;
//! - the HTTP layers replayed in process on the exact bytes the client
//!   sends (parse, JSON decode, dispatch, JSON encode, write), next to
//!   the same requests' round trips to a direct server and through a
//!   router over two backends;
//! - absorbs and publishes on the workload's write side.

use crate::corpus::Corpus;
use crate::load;
use crate::report::{median, Report};
use crate::trace::{self, Span};
use grafics_cluster::{dissimilarity_matrix, ClusterModel, MatchPrecision, MatchScratch};
use grafics_core::{
    record_rng, BackendSpec, Grafics, GraficsConfig, GraficsFleet, OnlineBudget, RouterManifest,
    ServingPolicy,
};
use grafics_embed::{ElineTrainer, OnlineScratch};
use grafics_graph::BipartiteGraph;
use grafics_serve::api::{dispatch_into, InferRequest};
use grafics_serve::http::{read_request_into, write_response, Limits, Request};
use grafics_serve::{HttpServer, PredictionBody, RouterConfig, RouterServer, ServeConfig};
use grafics_types::{BuildingId, RecordId, RowMatrix};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// What the probes run on.
pub struct Probe<'a> {
    pub seed: u64,
    pub corpus: &'a Corpus,
    pub config: GraficsConfig,
    /// The published models the workload served.
    pub snapshots: Vec<(BuildingId, Arc<Grafics>)>,
    pub serving: ServingPolicy,
    /// The fleet whose write side absorbs and publishes are probed on.
    pub write_fleet: &'a GraficsFleet,
    /// Scans (indices into `corpus.queries`) to probe, in order.
    pub order: &'a [usize],
    pub train_shards: usize,
}

pub fn run(p: &Probe<'_>, report: &mut Report) -> Result<(), String> {
    train_stages(p, report);
    serving_path(p, report)?;
    http_layers(p, report)?;
    write_side(p, report);
    Ok(())
}

fn ms(v: f64) -> f64 {
    v / 1e3
}

fn total(values: &[f64]) -> f64 {
    values.iter().sum()
}

fn train_stages(p: &Probe<'_>, report: &mut Report) {
    let mut edges = 0usize;
    let mut samples = 0usize;
    for (id, train) in p.corpus.train.iter().take(p.train_shards) {
        let mut rng = record_rng(p.seed, id.0 as usize);
        trace::span("probe.train_shard", u64::from(id.0), || {
            let graph = trace::span("graph.build", u64::from(id.0), || {
                BipartiteGraph::from_dataset(train, p.config.weight_function)
            });
            edges += graph.edge_count();
            samples += p.config.epochs * graph.edge_count();
            let trainer = ElineTrainer::new(p.config.embedding());
            let (embeddings, _) = trace::span("embed.train", u64::from(id.0), || {
                trainer.train_with_stats(&graph, &mut rng)
            })
            .expect("simulated buildings embed");
            let mut points = RowMatrix::with_capacity(train.len(), p.config.dim);
            let mut labels = Vec::with_capacity(train.len());
            for (i, sample) in train.samples().iter().enumerate() {
                let node = graph
                    .record_node(RecordId(i as u32))
                    .expect("training records are live");
                points.push_row_widen(embeddings.ego(node));
                labels.push(sample.floor);
            }
            std::hint::black_box(trace::span(
                "cluster.dissimilarity",
                u64::from(id.0),
                || dissimilarity_matrix(&points, 1),
            ));
            trace::span("cluster.fit", u64::from(id.0), || {
                ClusterModel::fit(&points, &labels, &p.config.clustering())
            })
            .expect("simulated buildings cluster");
        });
    }
    let spans = trace::collected();
    let embed_s = total(&trace::micros(&spans, "embed.train")) / 1e6;
    report.metric(
        "graph.build_ms",
        ms(total(&trace::micros(&spans, "graph.build"))),
        "ms",
    );
    report.metric("graph.edges", edges as f64, "count");
    report.metric("embed.train_s", embed_s, "s");
    report.metric(
        "embed.edge_samples_per_s",
        samples as f64 / embed_s.max(1e-9),
        "1/s",
    );
    report.metric(
        "cluster.dissimilarity_s",
        total(&trace::micros(&spans, "cluster.dissimilarity")) / 1e6,
        "s",
    );
    report.metric(
        "cluster.fit_s",
        total(&trace::micros(&spans, "cluster.fit")) / 1e6,
        "s",
    );
}

/// Rebuilds a serving fleet over the given published models.
pub fn fleet_of(snapshots: &[(BuildingId, Arc<Grafics>)], serving: ServingPolicy) -> GraficsFleet {
    let mut fleet = GraficsFleet::new();
    fleet.set_serving(serving);
    for (id, model) in snapshots {
        fleet
            .add_shard(*id, (**model).clone())
            .expect("snapshot ids are unique");
    }
    fleet
}

fn serving_path(p: &Probe<'_>, report: &mut Report) -> Result<(), String> {
    let fleet = fleet_of(&p.snapshots, p.serving);
    let by_id: HashMap<BuildingId, &Arc<Grafics>> =
        p.snapshots.iter().map(|(id, m)| (*id, m)).collect();
    let mut scratch = OnlineScratch::new();
    let mut matching = MatchScratch::new();
    let (mut queries, mut samples, mut early, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let (mut updates, mut bytes) = (0f64, 0f64);
    for &q in p.order {
        let record = &p.corpus.queries[q].record;
        let request = q as u64;
        let Some(id) = trace::span("core.route", request, || fleet.route(record)) else {
            continue;
        };
        let model = by_id[&id];
        if !model.graph().overlaps(record) {
            continue;
        }
        let (budget, precision) = p.serving.resolve(model.config());
        let margin_ratio = match budget {
            OnlineBudget::Fixed(_) => 0.0,
            OnlineBudget::Adaptive { margin_ratio, .. } => margin_ratio,
        };
        let trainer = ElineTrainer::new(model.config().embedding());
        let clusters = model.clusters();
        let mut rng = record_rng(p.seed, q);
        let mut probes = 0u64;
        let (query, outcome) = trace::span("embed.refine", request, || {
            let mut decisive = |ego: &[f32]| {
                probes += 1;
                trace::span("cluster.margin_probe", request, || {
                    clusters.margin_decisive(ego, margin_ratio, &mut matching)
                })
            };
            trainer
                .embed_query_budgeted(
                    model.graph(),
                    model.embeddings(),
                    record,
                    model.negative_sampler(),
                    budget,
                    &mut decisive,
                    &mut scratch,
                    &mut rng,
                )
                .map(|(query, outcome)| (query.to_vec(), outcome))
        })
        .map_err(|e| format!("refining scan {q}: {e}"))?;
        let (pred, _margin, fell_back) =
            trace::span("cluster.match", request, || match precision {
                MatchPrecision::F64 => clusters
                    .predict_with_margin(&query)
                    .map(|(pred, margin)| (pred, margin, false)),
                MatchPrecision::F32Refined => {
                    clusters.predict_with_margin_f32(&query, &mut matching)
                }
            })
            .map_err(|e| format!("matching scan {q}: {e}"))?;
        let served = trace::span("core.serve", request, || {
            fleet.serve(record, &mut record_rng(p.seed, q))
        })
        .map_err(|e| format!("serving scan {q}: {e}"))?;
        report.count(1, 0);
        if served.building != id
            || served.floor != pred.floor
            || served.distance.to_bits() != pred.distance.to_bits()
        {
            report.fail(format!(
                "scan {q}: GraficsFleet::serve answered b{} f{} d={} but route+refine+match gives b{} f{} d={}",
                served.building, served.floor, served.distance, id, pred.floor, pred.distance
            ));
        }
        queries += 1;
        samples += outcome.samples as u64;
        early += u64::from(outcome.early_stop());
        fallbacks += u64::from(fell_back);
        // Each SGD sample updates the positive pair and every negative.
        updates += (outcome.samples * (1 + model.config().negatives)) as f64;
        // Every margin probe and f64 sweep reads each centroid in f64;
        // the f32 sweep reads the f32 shadow, plus a full f64 sweep when
        // it falls back.
        let centroid_bytes = (clusters.clusters().len() * clusters.dim()) as f64;
        let sweep = match precision {
            MatchPrecision::F64 => 8.0,
            MatchPrecision::F32Refined => 4.0 + if fell_back { 8.0 } else { 0.0 },
        };
        bytes += centroid_bytes * (probes as f64 * 8.0 + sweep);
    }
    let n = queries.max(1) as f64;
    let spans = trace::collected();
    report.metric(
        "core.route_us_p50",
        median(&trace::micros(&spans, "core.route")),
        "us",
    );
    report.metric(
        "core.serve_us_p50",
        median(&trace::micros(&spans, "core.serve")),
        "us",
    );
    report.metric(
        "embed.refine_us_p50",
        median(&trace::self_micros(&spans, "embed.refine")),
        "us",
    );
    report.metric(
        "embed.refine_samples_per_query",
        samples as f64 / n,
        "count",
    );
    report.metric("embed.early_stop_ratio", early as f64 / n, "ratio");
    report.metric(
        "cluster.match_us_p50",
        median(&trace::micros(&spans, "cluster.match")),
        "us",
    );
    report.metric("cluster.f32_fallback_ratio", fallbacks as f64 / n, "ratio");
    report.metric("kernels.sgd_updates_per_query", updates / n, "count");
    report.metric("kernels.match_bytes_per_query", bytes / n, "B");
    Ok(())
}

/// The bytes `HttpClient::post` writes for one request.
fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn same_answer(a: &str, b: &str) -> bool {
    match (
        serde_json::from_str::<PredictionBody>(a),
        serde_json::from_str::<PredictionBody>(b),
    ) {
        (Ok(a), Ok(b)) => {
            a.building == b.building
                && a.floor == b.floor
                && a.distance.to_bits() == b.distance.to_bits()
        }
        _ => a == b,
    }
}

fn http_layers(p: &Probe<'_>, report: &mut Report) -> Result<(), String> {
    let direct = HttpServer::bind(
        fleet_of(&p.snapshots, p.serving),
        "127.0.0.1:0",
        ServeConfig {
            seed: p.seed,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("binding the probe server: {e}"))?;
    let state = Arc::clone(direct.state());
    let direct = direct.spawn().map_err(|e| e.to_string())?;
    let routed = RoutedFleet::start(&p.snapshots, p.serving, p.seed)?;
    let result = (|| -> Result<(), String> {
        load::wait_healthy(direct.addr())?;
        let mut to_direct = load::connect(direct.addr())?;
        let mut to_router = load::connect(routed.router.addr())?;
        let limits = Limits {
            max_head_bytes: ServeConfig::default().max_head_bytes,
            max_body_bytes: ServeConfig::default().max_body_bytes,
        };
        let mut req = Request::new();
        let mut out = String::new();
        let mut sink = Vec::new();
        for &q in p.order {
            let request = q as u64;
            let body = load::infer_body(&p.corpus.queries[q].record, p.seed, q);
            let raw = raw_request("/v1/infer", &body);
            let (status, direct_body) = trace::span("probe.roundtrip_direct", request, || {
                to_direct.post("/v1/infer", &body)
            })
            .map_err(|e| format!("direct probe: {e}"))?;
            let (routed_status, routed_body) =
                trace::span("probe.roundtrip_routed", request, || {
                    to_router.post("/v1/infer", &body)
                })
                .map_err(|e| format!("routed probe: {e}"))?;
            let (replay_status, encoded) = trace::span("probe.replay", request, || {
                sink.clear();
                let parsed = trace::span("serve.parse", request, || {
                    read_request_into(
                        &mut std::io::Cursor::new(&raw),
                        &mut sink,
                        &limits,
                        &mut req,
                    )
                });
                if !matches!(parsed, Ok(true)) {
                    return (0, None);
                }
                let decoded = trace::span("serve.json_decode", request, || {
                    std::str::from_utf8(&req.body)
                        .ok()
                        .and_then(|text| serde_json::from_str::<InferRequest>(text).ok())
                });
                std::hint::black_box(decoded.map(|r| r.index));
                let (status, _) = trace::span("serve.dispatch", request, || {
                    dispatch_into(&state, &req.method, &req.path, &req.body, &mut out)
                });
                let answer = serde_json::from_str::<PredictionBody>(&out).ok();
                let encoded = trace::span("serve.json_encode", request, || {
                    answer.as_ref().and_then(|a| serde_json::to_string(a).ok())
                });
                sink.clear();
                let written = trace::span("serve.write", request, || {
                    write_response(&mut sink, status, &out, true)
                });
                (if written.is_ok() { status } else { 0 }, encoded)
            });
            report.count(1, 0);
            let consistent = status == replay_status
                && status == routed_status
                && same_answer(&direct_body, &out)
                && same_answer(&routed_body, &direct_body)
                && (status != 200 || encoded.is_some_and(|e| same_answer(&e, &out)));
            if !consistent {
                report.fail(format!(
                    "scan {q}: direct {status} {direct_body}, routed {routed_status} {routed_body}, in process {replay_status} {out}"
                ));
            }
        }
        Ok(())
    })();
    let retries = routed.router.state().backend_retry_count();
    let degraded = routed.router.state().degraded_count();
    routed.stop();
    direct
        .shutdown()
        .map_err(|e| format!("probe server: {e}"))?;
    result?;

    let spans = trace::collected();
    let parse = trace::by_request(&spans, "serve.parse");
    let dispatch = trace::by_request(&spans, "serve.dispatch");
    let write = trace::by_request(&spans, "serve.write");
    let direct_rtt = trace::by_request(&spans, "probe.roundtrip_direct");
    let routed_rtt = trace::by_request(&spans, "probe.roundtrip_routed");
    let mut gaps = Vec::new();
    let mut hops = Vec::new();
    for (request, rtt) in &direct_rtt {
        if let (Some(a), Some(b), Some(c)) = (
            parse.get(request),
            dispatch.get(request),
            write.get(request),
        ) {
            gaps.push(rtt - a - b - c);
        }
        if let Some(routed) = routed_rtt.get(request) {
            hops.push(routed - rtt);
        }
    }
    let p50 = |name: &str| median(&trace::micros(&spans, name));
    report.metric("serve.parse_us_p50", p50("serve.parse"), "us");
    report.metric("serve.json_decode_us_p50", p50("serve.json_decode"), "us");
    report.metric("serve.dispatch_us_p50", p50("serve.dispatch"), "us");
    report.metric("serve.json_encode_us_p50", p50("serve.json_encode"), "us");
    report.metric("serve.write_us_p50", p50("serve.write"), "us");
    report.metric("serve.gap_us_p50", median(&gaps), "us");
    // JSON decode and encode happen inside dispatch, so the layers that
    // add up to a server-side request are parse, dispatch and write.
    report.metric(
        "serve.layers_sum_us_p50",
        p50("serve.parse") + p50("serve.dispatch") + p50("serve.write"),
        "us",
    );
    report.metric(
        "serve.roundtrip_us_p50",
        p50("probe.roundtrip_direct"),
        "us",
    );
    report.metric("router.hop_us_p50", median(&hops), "us");
    report.metric("router.backend_retries", retries as f64, "count");
    report.metric("router.degraded", degraded as f64, "count");
    Ok(())
}

fn write_side(p: &Probe<'_>, report: &mut Report) {
    let fleet = p.write_fleet;
    for (k, &q) in p.order.iter().enumerate() {
        let scan = &p.corpus.queries[q];
        // Stream indices far past any the workload used, so no absorb
        // stream is drawn twice.
        let stream = (1u64 << 40) + k as u64;
        report.count(1, 0);
        let absorbed = trace::span("core.absorb", q as u64, || {
            fleet.absorb_to_durable(scan.building, &scan.record, p.seed, stream)
        });
        if let Err(e) = absorbed {
            report.fail(format!("probe absorb of scan {q}: {e}"));
        }
    }
    for shard in fleet.shards().iter().take(p.train_shards) {
        trace::span("core.publish", u64::from(shard.id().0), || shard.publish());
    }
    let spans: Vec<Span> = trace::collected();
    report.metric(
        "core.absorb_us_p50",
        median(&trace::micros(&spans, "core.absorb")),
        "us",
    );
    report.metric(
        "core.publish_ms_p50",
        ms(median(&trace::micros(&spans, "core.publish"))),
        "ms",
    );
    let wal = fleet.wal_stats();
    report.metric(
        "core.wal_appends_per_fsync",
        if wal.fsyncs == 0 {
            0.0
        } else {
            wal.appends as f64 / wal.fsyncs as f64
        },
        "ratio",
    );
}

/// Two backends, each holding every other shard, behind a router: the
/// router hop of traced runs.
struct RoutedFleet {
    backends: Vec<grafics_serve::RunningServer>,
    router: grafics_serve::RouterRunning,
}

/// Backend workers: above the router's two pooled connections per
/// backend, so health probes always find a free worker. With only two,
/// idle pooled keep-alive connections pin both workers, probes time out
/// and every backend is marked down.
const BACKEND_WORKERS: usize = 4;

impl RoutedFleet {
    /// Serves the two halves of `snapshots` and a router over them;
    /// returns once the router's route table holds every building.
    fn start(
        snapshots: &[(BuildingId, Arc<Grafics>)],
        serving: ServingPolicy,
        seed: u64,
    ) -> Result<Self, String> {
        let mut backends = Vec::new();
        for half in 0..2 {
            let shards: Vec<(BuildingId, Arc<Grafics>)> =
                snapshots.iter().skip(half).step_by(2).cloned().collect();
            let server = HttpServer::bind(
                fleet_of(&shards, serving),
                "127.0.0.1:0",
                ServeConfig {
                    workers: BACKEND_WORKERS,
                    seed,
                    ..ServeConfig::default()
                },
            )
            .and_then(HttpServer::spawn)
            .map_err(|e| format!("starting a backend: {e}"))?;
            backends.push(server);
        }
        let mut manifest = RouterManifest::default();
        for (i, backend) in backends.iter().enumerate() {
            manifest.backends.push(BackendSpec {
                name: format!("b{i}"),
                addr: backend.addr().to_string(),
            });
        }
        let router = RouterServer::bind(
            RouterConfig {
                manifest,
                ..RouterConfig::default()
            },
            "127.0.0.1:0",
        )
        .and_then(RouterServer::spawn)
        .map_err(|e| format!("starting the router: {e}"))?;
        let routed = RoutedFleet { backends, router };
        if !routed
            .router
            .wait_for_buildings(snapshots.len(), Duration::from_secs(60))
        {
            routed.stop();
            return Err("the router never learned every building".to_owned());
        }
        Ok(routed)
    }

    /// Stops the router first (its clients must already be closed), then
    /// the backends; waits for every thread.
    fn stop(self) {
        let _ = self.router.shutdown();
        for backend in self.backends {
            let _ = backend.shutdown();
        }
    }
}
