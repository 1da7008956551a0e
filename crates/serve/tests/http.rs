//! End-to-end contracts of the network front end: HTTP responses are
//! bit-identical to the in-process serving engine at equal seeds,
//! concurrent clients see one consistent answer, oversized/malformed
//! requests are rejected with the right statuses, and the maintenance
//! daemon publishes absorbed records without any client calling
//! `/v1/publish`.

use grafics_core::{
    DurabilityPolicy, FleetManifest, Grafics, GraficsConfig, GraficsFleet, MaintenancePolicy,
    RetentionPolicy, RouterKind,
};
use grafics_data::BuildingModel;
use grafics_serve::{
    AbsorbBody, BatchBody, HealthBody, HttpClient, HttpServer, PredictionBody, PublishBody,
    RouteTableBody, RunningServer, ServeConfig,
};
use grafics_types::{BuildingId, MacAddr, Reading, Rssi, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

type Fixture = (Vec<(BuildingId, Grafics)>, Vec<SignalRecord>);

/// Two trained buildings plus an interleaved held-out query stream,
/// trained once and cloned per test.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut models = Vec::new();
        let mut queries: Vec<(usize, SignalRecord)> = Vec::new();
        for (i, name) in ["net-a", "net-b"].iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(300 + i as u64);
            let ds = BuildingModel::office(name, 2)
                .with_records_per_floor(30)
                .simulate(&mut rng);
            let split = ds.split(0.7, &mut rng).unwrap();
            let train = split.train.with_label_budget(4, &mut rng);
            let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
            models.push((BuildingId(i as u32), model));
            for r in split.test.samples().iter().map(|s| s.record.clone()) {
                queries.push((i, r));
            }
        }
        queries.sort_by_key(|(i, r)| (r.len(), *i, r.strongest().mac));
        (models, queries.into_iter().map(|(_, r)| r).collect())
    })
}

fn build_fleet() -> GraficsFleet {
    let (models, _) = fixture();
    let mut fleet = GraficsFleet::new();
    for (id, model) in models {
        fleet.add_shard(*id, model.clone()).unwrap();
    }
    fleet
}

fn spawn(fleet: GraficsFleet, config: ServeConfig) -> RunningServer {
    HttpServer::bind(fleet, "127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap()
}

fn records_json(records: &[SignalRecord]) -> String {
    serde_json::to_string(&records.to_vec()).unwrap()
}

/// Acceptance: an `/v1/infer_batch` response is bit-identical — floors,
/// buildings, distances, margins, down to the float bits — to the
/// in-process `GraficsFleet::serve_batch` at the same seed.
#[test]
fn batch_is_bit_identical_to_in_process_serve_batch() {
    let (_, queries) = fixture();
    let reference = build_fleet().serve_batch(queries, 77, 1);

    let server = spawn(build_fleet(), ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let body = format!(
        "{{\"records\":{},\"seed\":77,\"threads\":2}}",
        records_json(queries)
    );
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let batch: BatchBody = serde_json::from_str(&response).unwrap();
    assert_eq!(batch.predictions.len(), reference.len());
    assert!(batch.served * 10 >= queries.len() * 9, "{}", batch.served);

    for (i, (wire, local)) in batch.predictions.iter().zip(&reference).enumerate() {
        match (wire, local) {
            (Some(w), Some(l)) => {
                assert_eq!(w.building, l.building.0, "record {i}");
                assert_eq!(w.floor, l.floor.0, "record {i}");
                assert_eq!(
                    w.distance.to_bits(),
                    l.distance.to_bits(),
                    "record {i}: distance must survive the JSON hop bit-exactly"
                );
                assert_eq!(
                    w.margin
                        .expect("two-floor shard has a finite margin")
                        .to_bits(),
                    l.margin.to_bits(),
                    "record {i}"
                );
            }
            (None, None) => {}
            _ => panic!("record {i}: presence differs between HTTP and in-process"),
        }
    }
    server.shutdown().unwrap();
}

/// `/v1/infer` is the one-record batch: same stream as
/// `serve_batch(&[r], seed, 1)`.
#[test]
fn single_infer_matches_one_record_batch() {
    let (_, queries) = fixture();
    let fleet = build_fleet();
    let server = spawn(build_fleet(), ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for (i, record) in queries.iter().take(8).enumerate() {
        let reference = fleet.serve_batch(std::slice::from_ref(record), 9000 + i as u64, 1);
        let body = format!(
            "{{\"record\":{},\"seed\":{}}}",
            serde_json::to_string(record).unwrap(),
            9000 + i
        );
        let (status, response) = client.post("/v1/infer", &body).unwrap();
        match &reference[0] {
            Some(l) => {
                assert_eq!(status, 200, "{response}");
                let w: PredictionBody = serde_json::from_str(&response).unwrap();
                assert_eq!(w.building, l.building.0);
                assert_eq!(w.floor, l.floor.0);
                assert_eq!(w.distance.to_bits(), l.distance.to_bits());
            }
            None => assert_eq!(status, 422, "{response}"),
        }
    }
    server.shutdown().unwrap();
}

/// Several keep-alive clients hammering the same batch concurrently all
/// get the same bit-identical answer.
#[test]
fn concurrent_clients_get_identical_answers() {
    let (_, queries) = fixture();
    let subset: Vec<SignalRecord> = queries.iter().take(12).cloned().collect();
    let server = spawn(
        build_fleet(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    let body = format!("{{\"records\":{},\"seed\":5}}", records_json(&subset));

    let answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let body = &body;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let mut last = String::new();
                    for _ in 0..3 {
                        let (status, response) = client.post("/v1/infer_batch", body).unwrap();
                        assert_eq!(status, 200);
                        last = response;
                    }
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &answers[1..] {
        assert_eq!(&answers[0], other, "clients must agree bit-for-bit");
    }
    let report = server.shutdown().unwrap();
    assert_eq!(report.requests, 12);
}

/// Unknown paths, wrong methods, malformed JSON, invalid records, and
/// oversized bodies map to 404/405/400/413.
#[test]
fn rejects_bad_requests_with_the_right_statuses() {
    let server = spawn(
        build_fleet(),
        ServeConfig {
            max_body_bytes: 2 * 1024,
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.get("/v1/nope").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = client.get("/v1/infer").unwrap();
    assert_eq!(status, 405, "{body}");
    let (status, body) = client.post("/v1/infer", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = client.post("/v1/infer", "{\"seed\":1}").unwrap();
    assert_eq!(status, 400, "{body}"); // missing record
    let (status, body) = client
        .post("/v1/infer", "{\"record\":{\"readings\":[]}}")
        .unwrap();
    assert_eq!(status, 400, "{body}"); // empty record violates invariants
    let (status, body) = client
        .post(
            "/v1/infer",
            "{\"record\":{\"readings\":[{\"mac\":1,\"rssi\":-500.0}]}}",
        )
        .unwrap();
    assert_eq!(status, 400, "{body}"); // RSSI out of range

    // Oversized body: rejected before parsing; the server closes the
    // connection after answering.
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(4 * 1024));
    let (status, body) = client.post("/v1/infer", &huge).unwrap();
    assert_eq!(status, 413, "{body}");

    // A record overlapping no building: well-formed but unservable.
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, body) = client
        .post(
            "/v1/infer",
            "{\"record\":{\"readings\":[{\"mac\":999999999,\"rssi\":-50.0}]}}",
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    server.shutdown().unwrap();
}

/// A body nested far past the JSON depth limit is a 400, not a stack
/// overflow, and the same server then answers a normal infer.
#[test]
fn deeply_nested_json_is_rejected_and_the_server_keeps_serving() {
    let (_, queries) = fixture();
    let server = spawn(build_fleet(), ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for deep in [
        "[".repeat(200_000),
        format!("{{\"record\":{}", "{\"a\":".repeat(100_000)),
    ] {
        let (status, body) = client.post("/v1/infer", &deep).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting deeper than 128"), "{body}");
    }
    let body = format!(
        "{{\"record\":{},\"seed\":1}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    let (status, body) = client.post("/v1/infer", &body).unwrap();
    assert!(status == 200 || status == 422, "{status} {body}");
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    server.shutdown().unwrap();
}

/// Staleness: once an absorb that teaches building 1 a new MAC is
/// published, the route table lists the MAC and a scan of only that MAC
/// routes there — the fleet's cached route index was rebuilt.
#[test]
fn published_new_mac_reaches_route_table_and_routing() {
    let (_, queries) = fixture();
    let fleet = build_fleet();
    let home = queries
        .iter()
        .find(|q| fleet.route(q) == Some(BuildingId(1)))
        .unwrap();
    let fresh = MacAddr::from_u64(0x00ab_cdef_0123);
    let mut readings = home.readings().to_vec();
    readings.push(Reading {
        mac: fresh,
        rssi: Rssi::new(-45.0).unwrap(),
    });
    let carrier = SignalRecord::new(readings).unwrap();
    let only_fresh = SignalRecord::new(vec![Reading {
        mac: fresh,
        rssi: Rssi::new(-45.0).unwrap(),
    }])
    .unwrap();
    let infer_fresh = format!(
        "{{\"record\":{},\"seed\":3}}",
        serde_json::to_string(&only_fresh).unwrap()
    );
    let lists_fresh = |client: &mut HttpClient| {
        let (status, body) = client.get("/v1/route_table").unwrap();
        assert_eq!(status, 200, "{body}");
        let table: RouteTableBody = serde_json::from_str(&body).unwrap();
        table.shards[1].macs.contains(&fresh.as_u64())
    };

    let server = spawn(fleet, ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    assert!(!lists_fresh(&mut client));
    let (status, body) = client.post("/v1/infer", &infer_fresh).unwrap();
    assert_eq!(status, 422, "{body}");

    let body = format!(
        "{{\"record\":{},\"building\":1}}",
        serde_json::to_string(&carrier).unwrap()
    );
    let (status, body) = client.post("/v1/absorb", &body).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client.post("/v1/publish", "").unwrap();
    assert_eq!(status, 200, "{body}");

    assert!(lists_fresh(&mut client));
    let (status, body) = client.post("/v1/infer", &infer_fresh).unwrap();
    assert_eq!(status, 200, "{body}");
    let pred: PredictionBody = serde_json::from_str(&body).unwrap();
    assert_eq!(pred.building, 1);
    server.shutdown().unwrap();
}

/// Absorb routes into the write side (readers unaffected), manual
/// publish exposes it, and `/v1/stat` reports the shared `FleetStats`.
#[test]
fn absorb_publish_stat_round_trip() {
    let (_, queries) = fixture();
    let server = spawn(build_fleet(), ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.get("/v1/stat").unwrap();
    assert_eq!(status, 200);
    let stats: grafics_core::FleetStats = serde_json::from_str(&body).unwrap();
    assert_eq!(stats.shards.len(), 2);
    let before = stats.shards[0].published_records;

    let mut absorbed = 0u32;
    for record in queries.iter().take(6) {
        let body = format!("{{\"record\":{}}}", serde_json::to_string(record).unwrap());
        let (status, response) = client.post("/v1/absorb", &body).unwrap();
        if status == 200 {
            let a: AbsorbBody = serde_json::from_str(&response).unwrap();
            assert!(a.pending > 0);
            absorbed += 1;
        }
    }
    assert!(absorbed >= 4, "most held-out records absorb: {absorbed}");

    // Readers still see the pre-absorb snapshot; pending is visible.
    let (_, body) = client.get("/v1/stat").unwrap();
    let stats: grafics_core::FleetStats = serde_json::from_str(&body).unwrap();
    assert_eq!(stats.shards[0].published_records, before);
    assert_eq!(stats.total_pending() as u32, absorbed);

    let (status, body) = client.post("/v1/publish", "").unwrap();
    assert_eq!(status, 200);
    let published: PublishBody = serde_json::from_str(&body).unwrap();
    assert_eq!(published.epochs.len(), 2);
    assert!(published.epochs.iter().all(|e| e.epoch == 1));

    let (_, body) = client.get("/v1/stat").unwrap();
    let stats: grafics_core::FleetStats = serde_json::from_str(&body).unwrap();
    assert_eq!(stats.total_pending(), 0);
    server.shutdown().unwrap();
}

/// `GET /metrics` answers the Prometheus-style plaintext counters,
/// consistent with the same run's request/absorb/publish activity and
/// broken down per endpoint.
#[test]
fn metrics_exposes_counters_in_plaintext() {
    let (_, queries) = fixture();
    let server = spawn(build_fleet(), ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Drive some traffic: 3 infers (one per seed), 1 absorb, 1 publish.
    for seed in 0..3 {
        let body = format!(
            "{{\"record\":{},\"seed\":{seed}}}",
            serde_json::to_string(&queries[0]).unwrap()
        );
        let (status, _) = client.post("/v1/infer", &body).unwrap();
        assert_eq!(status, 200);
    }
    let body = format!(
        "{{\"record\":{}}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    let (status, _) = client.post("/v1/absorb", &body).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.post("/v1/publish", "").unwrap();
    assert_eq!(status, 200);

    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    // Plaintext exposition, not JSON.
    assert!(!text.trim_start().starts_with('{'), "{text}");
    let gauge = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    // 3 infers + 1 absorb + 1 publish handled before this scrape.
    assert!(gauge("grafics_requests_total") >= 5.0);
    assert_eq!(gauge("grafics_absorbs_total"), 1.0);
    assert_eq!(gauge("grafics_publish_epochs_total"), 2.0); // 2 shards × epoch 1
    assert_eq!(gauge("grafics_shards"), 2.0);
    assert_eq!(gauge("grafics_requests{endpoint=\"infer\"}"), 3.0);
    assert_eq!(gauge("grafics_requests{endpoint=\"absorb\"}"), 1.0);
    assert_eq!(gauge("grafics_requests{endpoint=\"publish\"}"), 1.0);
    // Wrong method on /metrics is a 405, like every known route.
    let (status, _) = client.post("/metrics", "{}").unwrap();
    assert_eq!(status, 405);
    server.shutdown().unwrap();
}

/// `/metrics` exposes the serving refinement counters
/// (`grafics_serve_refine_samples_total`, `grafics_serve_early_stops_total`,
/// `grafics_match_f32_fallbacks_total`); under an adaptive budget +
/// f32-matching [`ServingPolicy`] they advance as queries flow, and the
/// HTTP answers stay bit-identical to the in-process fleet under the
/// same policy.
#[test]
fn metrics_exposes_serving_refinement_counters() {
    use grafics_core::{MatchPrecision, OnlineBudget, ServingPolicy};
    let policy = ServingPolicy {
        budget: Some(OnlineBudget::Adaptive {
            max_spe: 120,
            min_spe: 10,
            margin_ratio: 0.25,
        }),
        precision: Some(MatchPrecision::F32Refined),
    };
    let (_, queries) = fixture();
    let mut reference_fleet = build_fleet();
    reference_fleet.set_serving(policy);
    let reference = reference_fleet.serve_batch(queries, 55, 1);

    let mut fleet = build_fleet();
    fleet.set_serving(policy);
    let server = spawn(fleet, ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let body = format!(
        "{{\"records\":{},\"seed\":55,\"threads\":2}}",
        records_json(queries)
    );
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let batch: BatchBody = serde_json::from_str(&response).unwrap();
    for (i, (wire, local)) in batch.predictions.iter().zip(&reference).enumerate() {
        match (wire, local) {
            (Some(w), Some(l)) => {
                assert_eq!(w.floor, l.floor.0, "record {i}");
                assert_eq!(
                    w.distance.to_bits(),
                    l.distance.to_bits(),
                    "record {i}: adaptive+f32 serving must survive the HTTP hop bit-exactly"
                );
            }
            (None, None) => {}
            _ => panic!("record {i}: presence differs between HTTP and in-process"),
        }
    }

    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .parse()
            .unwrap()
    };
    let refined = counter("grafics_serve_refine_samples_total");
    let stops = counter("grafics_serve_early_stops_total");
    // Presence is the contract for the fallback counter; office corpora
    // rarely trip it.
    let _ = counter("grafics_match_f32_fallbacks_total");
    assert!(refined > 0, "served queries must account their SGD samples");
    assert!(
        stops > 0,
        "well-separated office floors must early-stop some queries at ratio 0.25"
    );
    server.shutdown().unwrap();
}

/// One `/metrics` scrape pins the full gauge/counter surface the drift
/// tooling consumes: the floor-margin quantile gauges
/// (`grafics_margin_p10`/`grafics_margin_p50`, fed by every served
/// query, windowed by the manifest's `RefreshTrigger`) alongside the
/// existing serving refinement counters — one contract, one scrape.
#[test]
fn metrics_exposes_margin_gauges_alongside_serve_counters() {
    use grafics_types::RefreshTrigger;
    let (_, queries) = fixture();
    let mut fleet = build_fleet();
    fleet.set_maintenance(MaintenancePolicy {
        refresh_trigger: Some(RefreshTrigger::MarginDrop {
            window: 64,
            ratio: 0.8,
        }),
        ..MaintenancePolicy::default()
    });
    let server = spawn(fleet, ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let gauge = |text: &str, name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .parse()
            .unwrap()
    };

    // Before any serving the gauges exist and read zero — dashboards can
    // pin the names unconditionally.
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    assert_eq!(gauge(&text, "grafics_margin_p10"), 0.0);
    assert_eq!(gauge(&text, "grafics_margin_p50"), 0.0);

    let body = format!(
        "{{\"records\":{},\"seed\":7,\"fallback\":true}}",
        records_json(queries)
    );
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");

    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    let p10 = gauge(&text, "grafics_margin_p10");
    let p50 = gauge(&text, "grafics_margin_p50");
    assert!(p50 > 0.0, "served queries must populate the margin window");
    assert!(p10 <= p50, "p10 {p10} must not exceed p50 {p50}");
    // The serving counters ride in the same scrape.
    for name in [
        "grafics_serve_refine_samples_total",
        "grafics_serve_early_stops_total",
        "grafics_match_f32_fallbacks_total",
    ] {
        let _ = gauge(&text, name);
    }
    server.shutdown().unwrap();
}

/// Acceptance: absorbs past the configured N trigger a publish without
/// any client calling `/v1/publish` — the maintenance daemon acts on the
/// manifest's cadence.
#[test]
fn auto_publish_after_n_absorbs() {
    let (_, queries) = fixture();
    let mut fleet = build_fleet();
    fleet.set_maintenance(MaintenancePolicy {
        publish_after_absorbs: Some(3),
        publish_after_secs: None,
        refresh_every_publishes: None,
        refresh_trigger: None,
    });
    let server = spawn(
        fleet,
        ServeConfig {
            maintenance_tick: Duration::from_millis(25),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Absorb into building 0 explicitly until 3 are pending.
    let own: Vec<&SignalRecord> = queries.iter().collect();
    let mut accepted = 0;
    for record in own {
        let body = format!(
            "{{\"record\":{},\"building\":0}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, _) = client.post("/v1/absorb", &body).unwrap();
        accepted += u32::from(status == 200);
        if accepted == 3 {
            break;
        }
    }
    assert_eq!(accepted, 3);

    // The daemon must publish shard 0 on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    let published = loop {
        let (_, body) = client.get("/v1/stat").unwrap();
        let stats: grafics_core::FleetStats = serde_json::from_str(&body).unwrap();
        let b0 = stats.shard(BuildingId(0)).unwrap();
        if b0.epoch >= 1 && b0.pending == 0 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(published, "daemon never published the pending absorbs");
    let report = server.shutdown().unwrap();
    assert!(report.maintenance_publishes >= 1);
    assert_eq!(report.absorbs, 3);
}

/// A single-floor shard's infinite margin travels as `null` and the
/// typed body still deserializes (`margin: None`).
#[test]
fn single_floor_margin_is_null_not_a_parse_error() {
    let mut rng = ChaCha8Rng::seed_from_u64(500);
    let ds = BuildingModel::office("solo", 1)
        .with_records_per_floor(30)
        .simulate(&mut rng);
    let split = ds.split(0.7, &mut rng).unwrap();
    let train = split.train.with_label_budget(2, &mut rng);
    let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
    let mut fleet = GraficsFleet::new();
    fleet.add_shard(BuildingId(0), model).unwrap();

    let server = spawn(fleet, ServeConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let body = format!(
        "{{\"record\":{},\"seed\":3}}",
        serde_json::to_string(&split.test.samples()[0].record).unwrap()
    );
    let (status, response) = client.post("/v1/infer", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"margin\":null"), "{response}");
    let parsed: PredictionBody = serde_json::from_str(&response).unwrap();
    assert_eq!(parsed.margin, None);
    assert_eq!(parsed.floor, 0);
    server.shutdown().unwrap();
}

/// A fleet saved with a non-default manifest serves over HTTP with that
/// configuration after a bare `load_dir` — no runtime flags.
#[test]
fn saved_manifest_drives_the_server() {
    let dir = std::env::temp_dir().join("grafics-serve-manifest-test");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut fleet = build_fleet();
        fleet.set_retention(RetentionPolicy::FifoBudget(5));
        fleet.set_router(RouterKind::WeightedOverlap);
        fleet.set_maintenance(MaintenancePolicy {
            publish_after_absorbs: Some(2),
            publish_after_secs: None,
            refresh_every_publishes: None,
            refresh_trigger: None,
        });
        fleet.save_dir(&dir).unwrap();
    }
    let fleet = GraficsFleet::load_dir(&dir).unwrap();
    assert_eq!(
        fleet.manifest(),
        FleetManifest {
            version: grafics_core::FLEET_MANIFEST_VERSION,
            router: RouterKind::WeightedOverlap,
            retention: RetentionPolicy::FifoBudget(5),
            maintenance: MaintenancePolicy {
                publish_after_absorbs: Some(2),
                publish_after_secs: None,
                refresh_every_publishes: None,
                refresh_trigger: None,
            },
            durability: DurabilityPolicy::Off,
            serving: None,
        }
    );

    let (_, queries) = fixture();
    let server = spawn(
        fleet,
        ServeConfig {
            maintenance_tick: Duration::from_millis(25),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut accepted = 0;
    for record in queries {
        let body = format!(
            "{{\"record\":{},\"building\":1}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, _) = client.post("/v1/absorb", &body).unwrap();
        accepted += u32::from(status == 200);
        if accepted == 2 {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = client.get("/v1/stat").unwrap();
        let stats: grafics_core::FleetStats = serde_json::from_str(&body).unwrap();
        if stats.shard(BuildingId(1)).unwrap().epoch >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "manifest cadence never triggered a publish"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: absorbs acknowledged over HTTP against a durable fleet
/// are journalled, survive a restart (graceful shutdown drains the WAL
/// tail), and a recovery of the directory replays exactly the
/// acknowledged records — still pending, none lost, none torn.
#[test]
fn durable_absorbs_survive_server_restart() {
    let dir = std::env::temp_dir().join("grafics-serve-durable-test");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut fleet = build_fleet();
        fleet.set_durability(DurabilityPolicy::FsyncEveryN(2));
        fleet.save_dir(&dir).unwrap();
    }
    let (fleet, report) = GraficsFleet::recover(&dir).unwrap();
    assert_eq!(report.total_replayed(), 0);

    let (_, queries) = fixture();
    let server = spawn(
        fleet,
        ServeConfig {
            seed: 99,
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut accepted = 0u64;
    for record in queries.iter() {
        let body = format!(
            "{{\"record\":{},\"building\":0}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, _) = client.post("/v1/absorb", &body).unwrap();
        accepted += u64::from(status == 200);
        if accepted == 4 {
            break;
        }
    }
    assert_eq!(accepted, 4);
    server.shutdown().unwrap(); // drains and fsyncs the WAL tail

    let (recovered, report) = GraficsFleet::recover(&dir).unwrap();
    assert!(!report.any_torn());
    let shard0 = report
        .shards
        .iter()
        .find(|s| s.building == BuildingId(0))
        .unwrap();
    assert_eq!(
        shard0.watermark + shard0.replayed,
        accepted,
        "every acknowledged absorb is durable: {report:?}"
    );
    // The replayed records are back on the write side, still unpublished.
    let stats = recovered.stats();
    assert_eq!(stats.shard(BuildingId(0)).unwrap().pending as u64, accepted);
    assert_eq!(stats.shard(BuildingId(0)).unwrap().epoch, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `/healthz` flips to 503 `degraded` while recovery is flagged in
/// progress and back to 200 `ok` once it clears.
#[test]
fn healthz_reports_degraded_during_recovery() {
    let server = HttpServer::bind(build_fleet(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let state = std::sync::Arc::clone(server.state());
    let running = server.spawn().unwrap();
    let mut client = HttpClient::connect(running.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let health: HealthBody = serde_json::from_str(&body).unwrap();
    assert!(health.ok);
    assert_eq!(health.status, "ok");

    state.set_recovering(true);
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 503, "{body}");
    let health: HealthBody = serde_json::from_str(&body).unwrap();
    assert!(!health.ok);
    assert_eq!(health.status, "degraded");

    state.set_recovering(false);
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    running.shutdown().unwrap();
}

/// `/metrics` exposes the WAL counters (appends, fsyncs, tail bytes) and
/// the recovery counter alongside the request counters.
#[test]
fn metrics_exposes_wal_and_recovery_counters() {
    let dir = std::env::temp_dir().join("grafics-serve-wal-metrics-test");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut fleet = build_fleet();
        fleet.set_durability(DurabilityPolicy::FsyncEveryN(1));
        fleet.save_dir(&dir).unwrap();
    }
    let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
    let server = HttpServer::bind(fleet, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let state = std::sync::Arc::clone(server.state());
    state.count_recovery();
    let running = server.spawn().unwrap();
    let mut client = HttpClient::connect(running.addr()).unwrap();

    let (_, queries) = fixture();
    let mut accepted = 0u64;
    for record in queries.iter().take(4) {
        let body = format!(
            "{{\"record\":{},\"building\":0}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, _) = client.post("/v1/absorb", &body).unwrap();
        accepted += u64::from(status == 200);
    }
    assert!(accepted >= 2, "{accepted}");
    // Group commit is asynchronous: barrier on the flusher before the
    // scrape so the counters are settled.
    state.fleet().drain_wal().unwrap();

    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    let gauge = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(gauge("grafics_wal_appends_total"), accepted as f64);
    assert!(gauge("grafics_wal_fsyncs_total") >= 1.0);
    assert!(gauge("grafics_wal_tail_bytes") > 0.0);
    assert_eq!(gauge("grafics_recoveries_total"), 1.0);
    running.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Idempotent requests ride out an idle-timeout disconnect via
/// reconnect-and-retry; `/v1/absorb` on the same dead connection fails
/// fast without a single retry.
#[test]
fn idempotent_requests_retry_but_absorb_fails_fast() {
    let server = spawn(
        build_fleet(),
        ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.set_retry_policy(2, Duration::from_millis(1));
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(client.retries_performed(), 0);

    // Let the server's idle timeout close the keep-alive connection,
    // then a GET transparently reconnects and retries.
    std::thread::sleep(Duration::from_millis(300));
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        client.retries_performed(),
        1,
        "the idle close costs exactly one retry"
    );

    // Same dead-connection scenario, but absorb must NOT be resent: the
    // request fails with the transport error and the retry counter does
    // not move.
    std::thread::sleep(Duration::from_millis(300));
    let (_, queries) = fixture();
    let body = format!(
        "{{\"record\":{}}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    let err = client.post("/v1/absorb", &body).unwrap_err();
    assert_ne!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(client.retries_performed(), 1, "absorb never retries");
    server.shutdown().unwrap();
}

/// With `access_log` configured, every handled request appends one JSON
/// line carrying endpoint, status, latency, and the answering shard.
#[test]
fn access_log_records_one_line_per_request() {
    let path = std::env::temp_dir().join("grafics-serve-access-log-test.jsonl");
    std::fs::remove_file(&path).ok();
    let server = spawn(
        build_fleet(),
        ServeConfig {
            access_log: Some(path.clone()),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let (_, queries) = fixture();
    let body = format!(
        "{{\"record\":{},\"seed\":7}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    let (status, _) = client.post("/v1/infer", &body).unwrap();
    assert_eq!(status, 200);
    server.shutdown().unwrap(); // flushes the log

    let log = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 2, "{log}");
    assert!(lines[0].contains("\"endpoint\":\"/healthz\""), "{log}");
    assert!(lines[0].contains("\"status\":200"), "{log}");
    assert!(lines[0].contains("\"latency_us\":"), "{log}");
    assert!(lines[0].contains("\"shard\":null"), "{log}");
    assert!(lines[1].contains("\"endpoint\":\"/v1/infer\""), "{log}");
    assert!(lines[1].contains("\"method\":\"POST\""), "{log}");
    // The infer line names the shard that answered.
    assert!(
        lines[1].contains("\"shard\":0") || lines[1].contains("\"shard\":1"),
        "{log}"
    );
    std::fs::remove_file(&path).ok();
}
