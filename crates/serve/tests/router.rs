//! End-to-end contracts of the fault-tolerant router tier: a proxied
//! multi-process fleet answers bit-for-bit what a single process
//! holding every shard would answer; backend faults (delays, resets,
//! black holes, truncated responses, 5xx bursts, kills) degrade
//! service gracefully and recover; and absorbs are never
//! double-applied, proven by a WAL sequence audit.

use grafics_core::{
    BackendSpec, DurabilityPolicy, Grafics, GraficsConfig, GraficsFleet, RouterManifest,
};
use grafics_data::BuildingModel;
use grafics_serve::{
    AbsorbBody, BatchBody, ChaosProxy, EpochBody, Fault, HttpClient, HttpServer, PredictionBody,
    RouteTableBody, RouterConfig, RouterRunning, RouterServer, RunningServer, ServeConfig,
};
use grafics_types::{
    BackendState, BreakerPolicy, BuildingId, HealthPolicy, MacAddr, RateLimitPolicy, Reading, Rssi,
    SignalRecord,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

type Fixture = (Vec<(BuildingId, Grafics)>, Vec<SignalRecord>);

/// Two trained buildings plus an interleaved held-out query stream,
/// trained once and cloned per test (same fixture as `tests/http.rs`).
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

/// A fleet holding exactly one of the fixture's buildings.
fn shard_fleet(building: usize) -> GraficsFleet {
    let (models, _) = fixture();
    let (id, model) = &models[building];
    let mut fleet = GraficsFleet::new();
    fleet.add_shard(*id, model.clone()).unwrap();
    fleet
}

/// The single-process reference: both shards in one fleet.
fn full_fleet() -> GraficsFleet {
    let (models, _) = fixture();
    let mut fleet = GraficsFleet::new();
    for (id, model) in models {
        fleet.add_shard(*id, model.clone()).unwrap();
    }
    fleet
}

/// Fixture queries answered by building 0 — safe to absorb into shard 0
/// (a record sharing no MAC with the shard's graph is rejected 422).
fn building0_queries() -> &'static Vec<SignalRecord> {
    static QUERIES: OnceLock<Vec<SignalRecord>> = OnceLock::new();
    QUERIES.get_or_init(|| {
        let (_, queries) = fixture();
        let reference = full_fleet().serve_batch(queries, 7, 1);
        queries
            .iter()
            .zip(&reference)
            .filter(|(_, p)| p.as_ref().is_some_and(|p| p.building.0 == 0))
            .map(|(r, _)| r.clone())
            .collect()
    })
}

fn spawn_backend(fleet: GraficsFleet, config: ServeConfig) -> RunningServer {
    HttpServer::bind(fleet, "127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap()
}

/// A router over `addrs` with test-friendly fast probing; `tweak`
/// adjusts the config (policies, timeouts) before bind.
fn router_over(addrs: &[SocketAddr], tweak: impl FnOnce(&mut RouterConfig)) -> RouterRunning {
    let mut manifest = RouterManifest::default();
    for (i, addr) in addrs.iter().enumerate() {
        manifest.backends.push(BackendSpec {
            name: format!("b{i}"),
            addr: addr.to_string(),
        });
    }
    manifest.health = HealthPolicy {
        probe_interval_ms: 25,
        probe_timeout_ms: 250,
        fail_threshold: 3,
        recover_threshold: 1,
    };
    let mut config = RouterConfig {
        manifest,
        backend_timeout: Duration::from_millis(800),
        retries: 2,
        backoff_base: Duration::from_millis(5),
        ..RouterConfig::default()
    };
    tweak(&mut config);
    RouterServer::bind(config, "127.0.0.1:0")
        .unwrap()
        .spawn()
        .unwrap()
}

fn records_json(records: &[SignalRecord]) -> String {
    serde_json::to_string(&records.to_vec()).unwrap()
}

/// One raw HTTP request over a fresh connection, returning the status
/// and the *full* response text (head + body) so tests can assert on
/// headers the pooled [`HttpClient`] does not expose.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text}"));
    (status, text)
}

/// Asserts two wire predictions carry the same float bits.
fn assert_bits_equal(wire: &PredictionBody, local: &grafics_core::FleetPrediction, ctx: &str) {
    assert_eq!(wire.building, local.building.0, "{ctx}");
    assert_eq!(wire.floor, local.floor.0, "{ctx}");
    assert_eq!(
        wire.distance.to_bits(),
        local.distance.to_bits(),
        "{ctx}: distance must survive the proxy hop bit-exactly"
    );
    if local.margin.is_finite() {
        assert_eq!(
            wire.margin
                .expect("finite margin crosses the wire")
                .to_bits(),
            local.margin.to_bits(),
            "{ctx}"
        );
    } else {
        assert!(wire.margin.is_none(), "{ctx}");
    }
}

/// The router's `/v1/stat` rows the typed crate API does not export.
#[derive(Deserialize)]
struct RouterStat {
    backends: Vec<BackendRow>,
    degraded: bool,
}

#[derive(Deserialize)]
struct BackendRow {
    name: String,
    state: String,
    breaker_open: bool,
}

#[derive(Deserialize)]
struct RouterPublish {
    epochs: Vec<EpochBody>,
    degraded: bool,
}

#[derive(Deserialize)]
struct WalSeq {
    seq: u64,
}

/// A record whose MACs exist in no building — the NoRoute case.
fn alien_record() -> SignalRecord {
    SignalRecord::new(
        (0..3)
            .map(|i| Reading {
                mac: MacAddr::from_u64(0x00DE_AD00_0000 + i),
                rssi: Rssi::new(-55.0 - i as f64).unwrap(),
            })
            .collect(),
    )
    .unwrap()
}

/// Acceptance (tentpole): a fault-free proxied fleet — two backend
/// processes, one shard each, behind a router that owns no models — is
/// bit-identical to the single process on `/v1/infer_batch` and
/// `/v1/infer`, merges `/v1/stat` and `/v1/route_table`, and reports
/// itself healthy.
#[test]
fn proxied_fleet_is_bit_identical_to_single_process() {
    let (_, queries) = fixture();
    let reference = full_fleet().serve_batch(queries, 77, 1);

    let backend_a = spawn_backend(shard_fleet(0), ServeConfig::default());
    let backend_b = spawn_backend(shard_fleet(1), ServeConfig::default());
    let router = router_over(&[backend_a.addr(), backend_b.addr()], |_| {});
    assert!(
        router.wait_for_buildings(2, Duration::from_secs(10)),
        "router never mirrored both route tables"
    );
    let mut client = HttpClient::connect(router.addr()).unwrap();

    // Batch: every slot, every float bit.
    let body = format!(
        "{{\"records\":{},\"seed\":77,\"threads\":2}}",
        records_json(queries)
    );
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let batch: BatchBody = serde_json::from_str(&response).unwrap();
    assert!(!batch.degraded, "fault-free fleet must not degrade");
    assert_eq!(batch.predictions.len(), reference.len());
    for (i, (wire, local)) in batch.predictions.iter().zip(&reference).enumerate() {
        match (wire, local) {
            (Some(w), Some(l)) => {
                assert_bits_equal(w, l, &format!("record {i}"));
            }
            (None, None) => {}
            _ => panic!("record {i}: presence differs between router and in-process"),
        }
    }

    // Singles: the one-record batch stream, proxied.
    for (k, record) in queries.iter().take(6).enumerate() {
        let single_ref = full_fleet().serve_batch(std::slice::from_ref(record), 42, 1);
        let body = format!(
            "{{\"record\":{},\"seed\":42}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, response) = client.post("/v1/infer", &body).unwrap();
        match &single_ref[0] {
            Some(l) => {
                assert_eq!(status, 200, "record {k}: {response}");
                let w: PredictionBody = serde_json::from_str(&response).unwrap();
                assert_bits_equal(&w, l, &format!("single {k}"));
            }
            None => assert_eq!(status, 422, "record {k}: {response}"),
        }
    }

    // NoRoute + fallback: scatter-gather over live backends; nobody can
    // embed an alien record, so the miss is unanimous — 422, not 503.
    let body = format!(
        "{{\"record\":{},\"fallback\":true}}",
        serde_json::to_string(&alien_record()).unwrap()
    );
    let (status, response) = client.post("/v1/infer", &body).unwrap();
    assert_eq!(status, 422, "{response}");
    assert!(response.contains("overlaps no building"), "{response}");

    // Stat: both shards merged, both backends visible and up.
    let (status, response) = client.get("/v1/stat").unwrap();
    assert_eq!(status, 200, "{response}");
    let stats: grafics_core::FleetStats = serde_json::from_str(&response).unwrap();
    assert_eq!(
        stats
            .shards
            .iter()
            .map(|s| s.building.0)
            .collect::<Vec<_>>(),
        vec![0, 1]
    );
    let rstat: RouterStat = serde_json::from_str(&response).unwrap();
    assert!(!rstat.degraded);
    assert_eq!(rstat.backends.len(), 2);
    for row in &rstat.backends {
        assert_eq!(row.state, "up", "{}", row.name);
        assert!(!row.breaker_open, "{}", row.name);
    }

    // Route table: merged inventory covers both buildings.
    let (status, response) = client.get("/v1/route_table").unwrap();
    assert_eq!(status, 200, "{response}");
    let table: RouteTableBody = serde_json::from_str(&response).unwrap();
    assert_eq!(
        table.shards.iter().map(|e| e.building).collect::<Vec<_>>(),
        vec![0, 1]
    );

    // The router's own health and metrics surfaces.
    let (status, response) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    assert!(response.contains("\"backends_up\":2"), "{response}");
    let (status, response) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        response.contains("grafics_router_requests_total"),
        "{response}"
    );
    assert!(
        response.contains("grafics_router_backend_up{backend=\"b0\"} 1"),
        "{response}"
    );

    router.shutdown().unwrap();
    backend_a.shutdown().unwrap();
    backend_b.shutdown().unwrap();
}

/// Transient faults — a reset during the table fetch, a delayed link, a
/// 5xx burst — are absorbed by the retry budget: the caller still sees
/// 200 and the same bits as the fault-free answer.
#[test]
fn transient_faults_are_absorbed_by_retries() {
    let (_, queries) = fixture();
    // Short backend idle timeout so pooled router connections die
    // between phases and each faulted request opens a *fresh* proxy
    // connection (ChaosProxy faults are assigned per connection).
    let backend = spawn_backend(
        full_fleet(),
        ServeConfig {
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let proxy = ChaosProxy::spawn(backend.addr()).unwrap();
    // Connection order at spawn is deterministic: probe, then table
    // fetch. The probe passes; the table fetch is reset mid-flight and
    // must survive via the client's clean-EOF retry.
    proxy.push_schedule(&[Fault::None, Fault::Reset]);
    let router = router_over(&[proxy.local_addr()], |c| {
        // Probes far apart so they cannot race the scripted faults.
        c.manifest.health.probe_interval_ms = 10_000;
    });
    assert!(
        router.wait_for_buildings(2, Duration::from_secs(10)),
        "table fetch did not survive the injected reset"
    );
    assert!(
        router.state().backend_retry_count() >= 1,
        "the reset table fetch must have cost at least one retry"
    );

    // Pick a routable query and pin its fault-free answer.
    let mut client = HttpClient::connect(router.addr()).unwrap();
    let (record, base) = queries
        .iter()
        .find_map(|r| {
            let body = format!(
                "{{\"record\":{},\"seed\":7}}",
                serde_json::to_string(r).unwrap()
            );
            let (status, response) = client.post("/v1/infer", &body).unwrap();
            (status == 200).then_some((r.clone(), response))
        })
        .expect("some query must route");
    let infer_body = format!(
        "{{\"record\":{},\"seed\":7}}",
        serde_json::to_string(&record).unwrap()
    );

    // Delay: the fresh connection is held 50 ms, well inside the 800 ms
    // per-attempt deadline — same answer, just slower.
    std::thread::sleep(Duration::from_millis(400)); // idle out the pool
    proxy.set_default_fault(Fault::Delay(Duration::from_millis(50)));
    let (status, response) = client.post("/v1/infer", &infer_body).unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(response, base, "delayed answer must be bit-identical");

    // 5xx burst: one well-framed 503 from the intermediary; the router
    // retries within its budget and the caller never sees it.
    proxy.set_default_fault(Fault::None);
    std::thread::sleep(Duration::from_millis(400)); // idle out the pool
    proxy.push_schedule(&[Fault::Burst5xx]);
    let (status, response) = client.post("/v1/infer", &infer_body).unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(response, base, "post-burst answer must be bit-identical");

    assert!(proxy.faults_injected() >= 2, "{}", proxy.faults_injected());
    assert!(
        router.state().backend_retry_count() >= 2,
        "{}",
        router.state().backend_retry_count()
    );
    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}

/// A killed backend trips the circuit breaker (fail-fast 503s with the
/// backend's state in the error), scatter-gather fails the traffic over
/// to a redundant backend bit-identically with the degraded marker set,
/// and a restarted backend re-closes the breaker and resumes.
#[test]
fn killed_backend_trips_breaker_then_recovers() {
    let (_, queries) = fixture();
    let reference = full_fleet().serve_batch(queries, 7, 1);

    // b0 owns building 0 (behind the chaos proxy, so it can "move"),
    // b1 owns building 1, b2 holds both shards — the redundancy that
    // lets scatter-gather answer building-0 traffic while b0 is dead.
    let backend_a = spawn_backend(shard_fleet(0), ServeConfig::default());
    let backend_b = spawn_backend(shard_fleet(1), ServeConfig::default());
    let backend_c = spawn_backend(full_fleet(), ServeConfig::default());
    let proxy = ChaosProxy::spawn(backend_a.addr()).unwrap();
    let router = router_over(
        &[proxy.local_addr(), backend_b.addr(), backend_c.addr()],
        |c| {
            // Keep the prober from marking Down: this test isolates the
            // hot-path breaker. Trip after 2 failures, 300 ms cooldown.
            c.manifest.health.probe_interval_ms = 100;
            c.manifest.health.fail_threshold = 1000;
            c.manifest.breaker = BreakerPolicy {
                trip_threshold: 2,
                cooldown_ms: 300,
            };
        },
    );
    assert!(router.wait_for_buildings(2, Duration::from_secs(10)));
    let mut client = HttpClient::connect(router.addr()).unwrap();

    // A query owned by building 0, and its fault-free wire answer.
    let q0 = queries
        .iter()
        .enumerate()
        .find(|(i, _)| reference[*i].as_ref().is_some_and(|p| p.building.0 == 0))
        .map(|(_, r)| r.clone())
        .expect("fixture has building-0 queries");
    let infer_q0 = format!(
        "{{\"record\":{},\"seed\":7}}",
        serde_json::to_string(&q0).unwrap()
    );
    let (status, base) = client.post("/v1/infer", &infer_q0).unwrap();
    assert_eq!(status, 200, "{base}");

    // Kill b0. The proxy frontage stays up, so the router sees clean
    // EOFs, not a vanished listener.
    backend_a.shutdown().unwrap();

    // Two transport failures trip the breaker…
    for _ in 0..2 {
        let (status, response) = client.post("/v1/infer", &infer_q0).unwrap();
        assert_eq!(
            status, 502,
            "dead backend surfaces as bad gateway: {response}"
        );
    }
    let b0 = router.state().backends().next().unwrap();
    assert!(b0.breaker.trips() >= 1, "breaker must have tripped");

    // …after which requests fail fast with the breaker named, no wire
    // cost. (A half-open trial may sneak in a 502; keep asking.)
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, response) = client.post("/v1/infer", &infer_q0).unwrap();
        if status == 503 && response.contains("breaker-open") {
            assert!(response.contains("shards are excluded"), "{response}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never saw a fail-fast breaker-open 503; last: {status} {response}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Fallback: scatter-gather over the live backends. b2 also holds
    // building 0 and answers it by *routing* (not broadcast), so the
    // failover answer is bit-identical to the fault-free one.
    let fallback_q0 = format!(
        "{{\"record\":{},\"seed\":7,\"fallback\":true}}",
        serde_json::to_string(&q0).unwrap()
    );
    let (status, response) = client.post("/v1/infer", &fallback_q0).unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(response, base, "failover via b2 must be bit-identical");

    // Batch with fallback: full answers, degraded marker set (the owner
    // of building 0 is excluded), and every slot still matches the
    // single-process reference bit-for-bit.
    let body = format!(
        "{{\"records\":{},\"seed\":7,\"fallback\":true}}",
        records_json(queries)
    );
    let degraded_before = router.state().degraded_count();
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let batch: BatchBody = serde_json::from_str(&response).unwrap();
    assert!(
        batch.degraded,
        "a dead owner must mark the response degraded"
    );
    assert!(router.state().degraded_count() > degraded_before);
    for (i, (wire, local)) in batch.predictions.iter().zip(&reference).enumerate() {
        if let (Some(w), Some(l)) = (wire, local) {
            assert_bits_equal(w, l, &format!("degraded-mode record {i}"));
        }
    }
    // The degraded marker also rides the response head for clients that
    // do not parse bodies.
    let (status, text) = raw_request(router.addr(), "POST", "/v1/infer_batch", &body);
    assert_eq!(status, 200);
    assert!(text.contains("X-Grafics-Degraded: true"), "{text}");
    assert!(router.state().scatter_count() >= 1);

    // Restart b0 elsewhere; the proxy repoints at it ("the process came
    // back on a new port"). The next half-open trial closes the breaker.
    let backend_a2 = spawn_backend(shard_fleet(0), ServeConfig::default());
    proxy.set_target(backend_a2.addr());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, response) = client.post("/v1/infer", &infer_q0).unwrap();
        if status == 200 {
            assert_eq!(response, base, "recovered answer must be bit-identical");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend never recovered: {status} {response}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let b0 = router.state().backends().next().unwrap();
    assert!(
        !b0.breaker.is_open(),
        "successful trial re-closes the breaker"
    );
    assert_eq!(b0.state(), BackendState::Up);

    router.shutdown().unwrap();
    backend_b.shutdown().unwrap();
    backend_c.shutdown().unwrap();
    backend_a2.shutdown().unwrap();
}

/// The prober's state ladder: a 5xx-bursting backend goes Degraded (alive
/// but not serving) and its shards fall back to scatter-gather; a killed
/// backend goes Down; both recover to Up when the fault clears, and the
/// mirrored route table is refetched.
#[test]
fn probe_ladder_degrades_downs_and_recovers() {
    let (_, queries) = fixture();
    let reference = full_fleet().serve_batch(queries, 7, 1);
    let backend_a = spawn_backend(shard_fleet(0), ServeConfig::default());
    let backend_b = spawn_backend(shard_fleet(1), ServeConfig::default());
    let proxy = ChaosProxy::spawn(backend_a.addr()).unwrap();
    let router = router_over(&[proxy.local_addr(), backend_b.addr()], |c| {
        c.manifest.health = HealthPolicy {
            probe_interval_ms: 25,
            probe_timeout_ms: 250,
            fail_threshold: 2,
            recover_threshold: 1,
        };
    });
    assert!(router.wait_for_buildings(2, Duration::from_secs(10)));
    let mut client = HttpClient::connect(router.addr()).unwrap();
    let b0_state = || router.state().backends().next().unwrap().state();
    let wait_for_state = |want: BackendState| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while b0_state() != want {
            assert!(Instant::now() < deadline, "b0 never reached {want:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // 5xx burst on every connection: probes see 503 → Degraded.
    proxy.set_default_fault(Fault::Burst5xx);
    wait_for_state(BackendState::Degraded);

    // Building-0 traffic falls back to scatter; only b1 is live and it
    // cannot embed net-a records, so slots for building 0 go null while
    // building-1 slots stay bit-identical — partial results, marked.
    let body = format!(
        "{{\"records\":{},\"seed\":7,\"fallback\":true}}",
        records_json(queries)
    );
    let (status, response) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let batch: BatchBody = serde_json::from_str(&response).unwrap();
    assert!(batch.degraded);
    for (i, (wire, local)) in batch.predictions.iter().zip(&reference).enumerate() {
        match local {
            Some(l) if l.building.0 == 1 => {
                let w = wire.as_ref().unwrap_or_else(|| panic!("record {i} lost"));
                assert_bits_equal(w, l, &format!("record {i}"));
            }
            Some(_) => assert!(wire.is_none(), "record {i}: b0's shard is excluded"),
            None => {}
        }
    }

    // Fault cleared: one healthy probe re-admits a Degraded backend.
    proxy.set_default_fault(Fault::None);
    wait_for_state(BackendState::Up);

    // Kill it outright: probes fail → Down after the threshold; its
    // refusals now carry the prober's verdict.
    backend_a.shutdown().unwrap();
    wait_for_state(BackendState::Down);
    let (pos_q0, q0) = queries
        .iter()
        .enumerate()
        .find(|(i, _)| reference[*i].as_ref().is_some_and(|p| p.building.0 == 0))
        .map(|(i, r)| (i, r.clone()))
        .unwrap();
    // `index` pins the RNG stream to the record's batch position, so the
    // recovered answer can be compared against the batch reference.
    let infer_q0 = format!(
        "{{\"record\":{},\"seed\":7,\"index\":{pos_q0}}}",
        serde_json::to_string(&q0).unwrap()
    );
    let (status, response) = client.post("/v1/infer", &infer_q0).unwrap();
    assert_eq!(status, 503, "{response}");
    assert!(response.contains("is down"), "{response}");
    // Router-level health reflects the partial fleet.
    let (status, response) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "one backend is still up: {response}");
    assert!(response.contains("\"status\":\"degraded\""), "{response}");

    // Restart + repoint: the ladder climbs back to Up, the table is
    // refetched, and building-0 answers resume bit-identically.
    let backend_a2 = spawn_backend(shard_fleet(0), ServeConfig::default());
    proxy.set_target(backend_a2.addr());
    wait_for_state(BackendState::Up);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, response) = client.post("/v1/infer", &infer_q0).unwrap();
        if status == 200 {
            let w: PredictionBody = serde_json::from_str(&response).unwrap();
            assert_bits_equal(&w, reference[pos_q0].as_ref().unwrap(), "recovered q0");
            break;
        }
        assert!(Instant::now() < deadline, "{status} {response}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let b0 = router.state().backends().next().unwrap();
    assert!(b0.transition_count() >= 3, "{}", b0.transition_count());

    router.shutdown().unwrap();
    backend_b.shutdown().unwrap();
    backend_a2.shutdown().unwrap();
}

/// Acceptance: absorbs are never double-applied. Truncated responses
/// (applied, ack lost), resets (never applied), and router-proxied
/// absorbs are audited against the WAL: sequence numbers strictly
/// increasing, applied count exactly acks + in-doubt truncations.
#[test]
fn absorbs_are_never_double_applied_wal_audit() {
    let dir = std::env::temp_dir().join("grafics-router-wal-audit-test");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut fleet = shard_fleet(0);
        fleet.set_durability(DurabilityPolicy::FsyncEveryN(1));
        fleet.save_dir(&dir).unwrap();
    }
    let (fleet, _) = GraficsFleet::recover(&dir).unwrap();
    let backend = spawn_backend(fleet, ServeConfig::default());
    let proxy = ChaosProxy::spawn(backend.addr()).unwrap();

    let absorbable = building0_queries();
    assert!(absorbable.len() >= 12, "{}", absorbable.len());
    let mut acks = 0u64;
    let mut truncated = 0u64;
    // One fresh client per absorb: each consumes exactly one scheduled
    // fault, so the script controls which absorb hits which failure.
    for (i, record) in absorbable.iter().take(10).enumerate() {
        let fault = match i {
            3 | 7 => Fault::Truncate(12), // applied, ack torn mid-status-line
            5 => Fault::Reset,            // dropped before the backend saw it
            _ => Fault::None,
        };
        proxy.push_schedule(&[fault]);
        let mut client = HttpClient::connect(proxy.local_addr()).unwrap();
        let body = format!(
            "{{\"record\":{},\"building\":0}}",
            serde_json::to_string(record).unwrap()
        );
        match client.post("/v1/absorb", &body) {
            Ok((200, response)) => {
                let ack: AbsorbBody = serde_json::from_str(&response).unwrap();
                assert_eq!(ack.building, 0);
                acks += 1;
            }
            Ok((status, response)) => panic!("absorb {i}: unexpected {status} {response}"),
            Err(_) => {
                assert_eq!(
                    client.retries_performed(),
                    0,
                    "absorb {i}: a failed absorb must NEVER be resent"
                );
                match fault {
                    Fault::Truncate(_) => truncated += 1,
                    Fault::Reset => {}
                    _ => panic!("absorb {i} failed without an injected fault"),
                }
            }
        }
    }
    assert_eq!(acks, 7, "7 clean absorbs acknowledged");
    assert_eq!(truncated, 2, "both truncations must surface as errors");

    // Router-proxied absorbs ride the same single-shot discipline.
    let router = router_over(&[proxy.local_addr()], |_| {});
    assert!(router.wait_for_buildings(1, Duration::from_secs(10)));
    let mut client = HttpClient::connect(router.addr()).unwrap();
    for record in absorbable.iter().skip(10).take(2) {
        let body = format!(
            "{{\"record\":{},\"building\":0}}",
            serde_json::to_string(record).unwrap()
        );
        let (status, response) = client.post("/v1/absorb", &body).unwrap();
        assert_eq!(status, 200, "{response}");
        acks += 1;
    }
    router.shutdown().unwrap();
    drop(proxy);
    backend.shutdown().unwrap(); // drains and fsyncs the WAL tail

    // The audit: every applied absorb is exactly one WAL entry, seqs
    // strictly increasing (no gaps re-applied, no entry twice), and the
    // applied count is acks plus the in-doubt truncations — the reset
    // absorb, which the backend never saw, is absent.
    let wal = std::fs::read_to_string(dir.join("wal-0.jsonl")).unwrap();
    let seqs: Vec<u64> = wal
        .lines()
        .skip(1) // header line
        .map(|line| serde_json::from_str::<WalSeq>(line).unwrap().seq)
        .collect();
    assert_eq!(
        seqs.len() as u64,
        acks + truncated,
        "applied = acknowledged + in-doubt truncations, nothing else"
    );
    for pair in seqs.windows(2) {
        assert!(
            pair[1] > pair[0],
            "WAL seqs must be strictly increasing (no double-apply): {seqs:?}"
        );
    }
    // And the recovered fleet agrees.
    let (recovered, report) = GraficsFleet::recover(&dir).unwrap();
    assert!(!report.any_torn());
    assert_eq!(
        recovered.stats().shard(BuildingId(0)).unwrap().pending as u64,
        acks + truncated
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Bearer-token auth guards the write endpoints end to end: the router
/// 401s unauthenticated absorbs/publishes before touching any backend,
/// the backends enforce the same gate directly, and reads stay open.
#[test]
fn write_endpoints_require_bearer_token_end_to_end() {
    let (_, queries) = fixture();
    let token = "sekrit-7";
    let backend_a = spawn_backend(
        shard_fleet(0),
        ServeConfig {
            auth_token: Some(token.to_owned()),
            ..ServeConfig::default()
        },
    );
    let backend_b = spawn_backend(
        shard_fleet(1),
        ServeConfig {
            auth_token: Some(token.to_owned()),
            ..ServeConfig::default()
        },
    );
    let router = router_over(&[backend_a.addr(), backend_b.addr()], |c| {
        c.manifest.auth_token = Some(token.to_owned());
    });
    assert!(router.wait_for_buildings(2, Duration::from_secs(10)));

    let mut client = HttpClient::connect(router.addr()).unwrap();
    let absorb_body = format!(
        "{{\"record\":{},\"building\":0}}",
        serde_json::to_string(&building0_queries()[0]).unwrap()
    );

    // No token / wrong token: 401 from the router's own gate.
    let (status, response) = client.post("/v1/absorb", &absorb_body).unwrap();
    assert_eq!(status, 401, "{response}");
    assert!(response.contains("bearer token"), "{response}");
    client.set_auth_token(Some("wrong".to_owned()));
    let (status, _) = client.post("/v1/absorb", &absorb_body).unwrap();
    assert_eq!(status, 401);
    let (status, _) = client.post("/v1/publish", "{}").unwrap();
    assert_eq!(status, 401);

    // Reads stay open without a token.
    client.set_auth_token(None);
    let (status, _) = client.get("/v1/stat").unwrap();
    assert_eq!(status, 200);
    let infer_body = format!(
        "{{\"record\":{}}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    let (status, _) = client.post("/v1/infer", &infer_body).unwrap();
    assert!(status == 200 || status == 422, "{status}");

    // With the token: absorb lands (router forwards its manifest token
    // to the backend) and a fleet-wide publish merges both epochs.
    client.set_auth_token(Some(token.to_owned()));
    let (status, response) = client.post("/v1/absorb", &absorb_body).unwrap();
    assert_eq!(status, 200, "{response}");
    let (status, response) = client.post("/v1/publish", "").unwrap();
    assert_eq!(status, 200, "{response}");
    let publish: RouterPublish = serde_json::from_str(&response).unwrap();
    assert!(!publish.degraded, "{response}");
    assert_eq!(
        publish
            .epochs
            .iter()
            .map(|e| e.building)
            .collect::<Vec<_>>(),
        vec![0, 1]
    );

    // The backends enforce the same gate when addressed directly.
    let mut direct = HttpClient::connect(backend_a.addr()).unwrap();
    let (status, _) = direct.post("/v1/absorb", &absorb_body).unwrap();
    assert_eq!(status, 401);
    direct.set_auth_token(Some(token.to_owned()));
    let (status, _) = direct.post("/v1/absorb", &absorb_body).unwrap();
    assert_eq!(status, 200);

    router.shutdown().unwrap();
    backend_a.shutdown().unwrap();
    backend_b.shutdown().unwrap();
}

/// The per-client token bucket throttles `/v1/*` with 429 +
/// `Retry-After`, counts it on `/metrics`, leaves `/healthz` and
/// `/metrics` unthrottled, and refills over time.
#[test]
fn rate_limited_clients_get_429_with_retry_after() {
    let backend = spawn_backend(full_fleet(), ServeConfig::default());
    let router = router_over(&[backend.addr()], |c| {
        c.manifest.rate_limit = RateLimitPolicy::PerClient {
            rate_per_sec: 2,
            burst: 2,
        };
    });
    assert!(router.wait_for_buildings(2, Duration::from_secs(10)));

    // Burst of 2 passes; the third hits the empty bucket.
    let mut statuses = Vec::new();
    let mut throttled_text = String::new();
    for _ in 0..3 {
        let (status, text) = raw_request(router.addr(), "GET", "/v1/stat", "");
        if status == 429 {
            throttled_text = text.clone();
        }
        statuses.push(status);
    }
    assert_eq!(statuses, vec![200, 200, 429], "{throttled_text}");
    assert!(throttled_text.contains("Retry-After:"), "{throttled_text}");
    assert!(
        throttled_text.contains("rate limit exceeded"),
        "{throttled_text}"
    );

    // Health and metrics are never throttled, and the counter shows.
    for _ in 0..5 {
        let (status, _) = raw_request(router.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    let (status, metrics) = raw_request(router.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counter = metrics
        .lines()
        .find(|l| l.starts_with("grafics_rate_limited_total"))
        .unwrap_or_else(|| panic!("counter missing:\n{metrics}"));
    let count: u64 = counter.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1, "{counter}");
    assert_eq!(router.state().rate_limited_count(), count);

    // Tokens refill: after a second the same client is admitted again.
    std::thread::sleep(Duration::from_millis(1100));
    let (status, _) = raw_request(router.addr(), "GET", "/v1/stat", "");
    assert_eq!(status, 200);

    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}

/// `HttpClient` retry invariants under injected faults: a clean EOF
/// before any status byte is retried end-to-end, backoff respects the
/// exponential lower bound, non-idempotent requests are never resent
/// (exactly one wire connection), and a black-holed read times out and
/// recovers on a fresh connection.
#[test]
fn client_retry_invariants_under_chaos() {
    let (_, queries) = fixture();
    let backend = spawn_backend(full_fleet(), ServeConfig::default());
    let proxy = ChaosProxy::spawn(backend.addr()).unwrap();

    // Clean EOF before status → one retry, then success. Each section
    // drops its client when done: an idle keep-alive connection pins a
    // backend worker (default pool: 2), and a leaked one would starve
    // the later sections into spurious timeouts.
    proxy.push_schedule(&[Fault::Reset]);
    let mut eof_client = HttpClient::connect(proxy.local_addr()).unwrap();
    let (status, _) = eof_client.get("/v1/stat").unwrap();
    assert_eq!(status, 200);
    assert_eq!(eof_client.retries_performed(), 1);
    assert_eq!(proxy.connections(), 2, "reset conn + fresh conn");
    drop(eof_client);

    // Non-idempotent: the failed absorb dies on its single connection.
    let before = proxy.connections();
    proxy.push_schedule(&[Fault::Reset]);
    let mut writer = HttpClient::connect(proxy.local_addr()).unwrap();
    let body = format!(
        "{{\"record\":{},\"building\":0}}",
        serde_json::to_string(&queries[0]).unwrap()
    );
    writer.post("/v1/absorb", &body).unwrap_err();
    assert_eq!(writer.retries_performed(), 0, "absorb must not be resent");
    assert_eq!(proxy.connections(), before + 1, "exactly one wire attempt");
    drop(writer);

    // Backoff bounds: three resets cost at least base * (1 + 2 + 4).
    proxy.push_schedule(&[Fault::Reset, Fault::Reset, Fault::Reset]);
    let mut backoff_client = HttpClient::connect(proxy.local_addr()).unwrap();
    backoff_client.set_retry_policy(3, Duration::from_millis(40));
    let start = Instant::now();
    let (status, _) = backoff_client.get("/v1/stat").unwrap();
    let elapsed = start.elapsed();
    assert_eq!(status, 200);
    assert_eq!(backoff_client.retries_performed(), 3);
    assert!(
        elapsed >= Duration::from_millis(280),
        "exponential backoff floor violated: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "backoff overshoots its cap: {elapsed:?}"
    );
    drop(backoff_client);

    // Black hole: the read times out (not a protocol error), and the
    // retry lands on a fresh, healthy connection.
    proxy.push_schedule(&[Fault::BlackHole]);
    let mut client = HttpClient::connect(proxy.local_addr()).unwrap();
    // Generous timeout: the test binary runs its suites in parallel and a
    // tight budget makes every retry attempt time out under CPU load.
    client
        .set_timeouts(Duration::from_millis(500), Duration::from_millis(500))
        .unwrap();
    client.set_retry_policy(3, Duration::from_millis(5));
    let start = Instant::now();
    let (status, _) = client.get("/v1/stat").unwrap();
    assert_eq!(status, 200);
    assert!(client.retries_performed() >= 1);
    assert!(
        start.elapsed() >= Duration::from_millis(450),
        "the black-holed attempt must burn its read timeout"
    );

    drop(proxy);
    backend.shutdown().unwrap();
}

/// Shutdown drains idle keep-alive clients at once: one client that
/// made a request and then sits idle does not hold `shutdown()` for the
/// 30 s default read timeout.
#[test]
fn shutdown_does_not_wait_out_an_idle_keep_alive_client() {
    let backend = spawn_backend(shard_fleet(0), ServeConfig::default());
    // The default 30 s read timeout: only the drain can end that read.
    let router = router_over(&[backend.addr()], |_| {});
    let mut client = HttpClient::connect(router.addr()).unwrap();
    let (status, body) = client.get("/healthz").unwrap();
    assert!(status == 200 || status == 503, "{status} {body}");

    let start = Instant::now();
    router.shutdown().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} on an idle keep-alive connection"
    );
    drop(client);
    backend.shutdown().unwrap();
}

/// The router rejects bad requests with the same statuses as the
/// backend server (`rejects_bad_requests_with_the_right_statuses` in
/// `tests/http.rs`), plus 431 on an oversized head — one shared error
/// path.
#[test]
fn router_rejects_bad_requests_with_the_right_statuses() {
    use std::io::{Read, Write};
    let backend = spawn_backend(full_fleet(), ServeConfig::default());
    let router = router_over(&[backend.addr()], |c| {
        c.max_body_bytes = 2 * 1024;
    });
    assert!(router.wait_for_buildings(2, Duration::from_secs(10)));
    let mut client = HttpClient::connect(router.addr()).unwrap();

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

    // Oversized body: rejected before parsing; the connection closes
    // after the answer.
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(4 * 1024));
    let (status, body) = client.post("/v1/infer", &huge).unwrap();
    assert_eq!(status, 413, "{body}");

    // A record overlapping no building: well-formed but unservable.
    let mut client = HttpClient::connect(router.addr()).unwrap();
    let (status, body) = client
        .post(
            "/v1/infer",
            "{\"record\":{\"readings\":[{\"mac\":999999999,\"rssi\":-50.0}]}}",
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");

    // Oversized head: 431, then close.
    let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pad = "a".repeat(RouterConfig::default().max_head_bytes + 1);
    let _ = write!(stream, "GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    assert!(text.starts_with("HTTP/1.1 431 "), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");

    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}

/// A batch of one-reading records whose answer is larger than any one
/// backend answer may be (8 MiB) is still served: the router splits
/// each backend's share into sub-batches that answer within the limit,
/// and every slot carries the bits of the in-process answer at its
/// stream index.
#[test]
fn a_batch_answering_past_the_response_limit_is_served_in_sub_batches() {
    let backend = spawn_backend(
        shard_fleet(0),
        ServeConfig {
            max_body_bytes: 8 << 20,
            ..ServeConfig::default()
        },
    );
    let router = router_over(&[backend.addr()], |c| {
        c.backend_timeout = Duration::from_secs(300);
    });
    assert!(router.wait_for_buildings(1, Duration::from_secs(10)));
    let reading = building0_queries()[0].strongest();
    let record = SignalRecord::new(vec![reading]).unwrap();
    let n = 90_000;
    let body = format!(
        "{{\"records\":{},\"seed\":7,\"threads\":4}}",
        records_json(&vec![record.clone(); n])
    );
    let mut client = HttpClient::connect(router.addr()).unwrap();
    client
        .set_timeouts(Duration::from_secs(600), Duration::from_secs(60))
        .unwrap();
    let (status, resp) = client.post("/v1/infer_batch", &body).unwrap();
    assert_eq!(status, 200);
    assert!(resp.len() > 8 << 20, "{} bytes", resp.len());
    let batch: BatchBody = serde_json::from_str(&resp).unwrap();
    assert_eq!((batch.served, batch.degraded), (n, false));
    let fleet = shard_fleet(0);
    for pos in [0, 32_767, 32_768, n - 1] {
        let local = fleet.serve_batch_indexed(std::slice::from_ref(&record), &[pos as u64], 7, 1);
        let local = local[0].as_ref().unwrap();
        assert_bits_equal(
            batch.predictions[pos].as_ref().unwrap(),
            local,
            &format!("slot {pos}"),
        );
    }
    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}
