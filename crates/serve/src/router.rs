//! The fault-tolerant router tier: a process that owns **no models** —
//! only the fleet's routing inventory — and proxies `/v1/*` to
//! per-building backend processes over the same HTTP protocol the
//! single-process server speaks.
//!
//! ```text
//!                      clients (HTTP/1.1)
//!                            │
//!                   ┌────────▼────────┐
//!                   │  RouterServer   │  auth · rate limit · metrics
//!                   │  RouteIndex     │  built from /v1/route_table
//!                   │  health prober  │  Up / Degraded / Down
//!                   │  circuit breaker│  per backend
//!                   └──┬─────┬─────┬──┘
//!                      │     │     │   keep-alive pools, deadlines,
//!                   backend₁ … backendₙ  budgeted idempotent retries
//! ```
//!
//! # Bit-identical proxying
//!
//! The router mirrors each backend's `GET /v1/route_table` (published AP
//! inventory + weight function per building) into the same
//! [`RouteIndex`] the fleet routes with, so it makes the fleet's
//! decision *exactly*. A routed record is forwarded with its original RNG
//! stream index (`index`/`indices` on the infer endpoints), so a proxied
//! fleet answers **bit-for-bit** what a single process holding every
//! shard would answer.
//!
//! # Degraded mode
//!
//! A Down backend (prober) or open breaker (hot path) excludes its
//! shards. Requests that needed them fail fast with the backend's state
//! in the error, or — with `"fallback": true` — are answered by
//! scatter-gather: every live backend answers with its own *routed*
//! answer (the shard it holds that the record overlaps most), and the
//! router keeps the smallest distance, ties to the lowest building id.
//! A backend holding no shard the record overlaps answers 422 and
//! contributes nothing. Any response missing part of the fleet carries
//! `"degraded": true` (batch body) and an `X-Grafics-Degraded: true`
//! header. Absorbs and publishes are **never retried or rerouted**: a
//! lost response does not mean an unprocessed request, so the router
//! surfaces 502/503 and lets the operator decide.

use crate::api::{
    self, AbsorbRequest, BatchBody, EpochBody, Exposition, InferBatchRequest, InferRequest,
    PredictionBody, PublishBody, PublishRequest, RouteTableBody, RouteTableEntry,
    CONTENT_TYPE_JSON, CONTENT_TYPE_TEXT,
};
use crate::client::HttpClient;
use crate::health::{probe_healthz, BackendStatus};
use crate::http::{Limits, Request};
use crate::transport::{self, Reply, Running, ServerHandle, Service, Transport};
use grafics_core::{FleetStats, RouteIndex, RouterKind, RouterManifest, ShardStats};
use grafics_types::{BackendState, BuildingId, HealthPolicy, MacAddr, SignalRecord};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Worker threads serving client connections, each one keep-alive
/// connection at a time. The router mostly waits on backends, so it
/// keeps more workers than the CPU-bound [`crate::ServeConfig`] default;
/// connections beyond this wait in the accept queue.
pub const WORKERS: usize = 32;

/// Bounded depth of the router's accepted-connection queue; when full,
/// the accept loop leaves further connections in the listener backlog.
const QUEUE_DEPTH: usize = 64;

/// Router-tier configuration: the manifest (backends + policies) plus
/// transport tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backends, health/breaker/rate-limit policies, optional token.
    pub manifest: RouterManifest,
    /// Idle read timeout on client-facing keep-alive connections.
    pub read_timeout: Duration,
    /// Per-attempt deadline (read *and* write) on backend requests.
    pub backend_timeout: Duration,
    /// Retry budget per idempotent backend request — transport retries
    /// (reconnect + resend inside [`HttpClient`]) and router-level 5xx
    /// retries each draw from a budget of this size. Absorb/publish are
    /// never retried regardless.
    pub retries: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Client-facing request head limit, as in `ServeConfig`.
    pub max_head_bytes: usize,
    /// Client-facing request body limit, as in `ServeConfig`.
    pub max_body_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            manifest: RouterManifest::default(),
            read_timeout: Duration::from_secs(30),
            backend_timeout: Duration::from_secs(2),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// One backend: health/breaker status plus a pool of keep-alive
/// connections (popped per request, pushed back on success, dropped on
/// any transport error).
struct Backend {
    status: BackendStatus,
    pool: Mutex<Vec<HttpClient>>,
}

/// The router's mirror of the fleet routing state: the fleet's own
/// [`RouteIndex`], built from the fetched `/v1/route_table` entries, plus
/// the backend owning each of its slots. Rebuilt wholesale whenever any
/// backend's table is (re)fetched.
#[derive(Default)]
struct RouteMirror {
    /// The merged table (what `GET /v1/route_table` answers) and its
    /// index; `None` until some backend's table has been learned.
    learned: Option<(RouteTableBody, RouteIndex)>,
    /// Owning backend per index slot.
    owners: Vec<usize>,
}

impl RouteMirror {
    /// The backend owning the building `record` routes to.
    fn route(&self, record: &SignalRecord) -> Option<usize> {
        let slot = self.learned.as_ref()?.1.route_slot(record)?;
        Some(self.owners[slot])
    }

    /// The backend owning `building`, if any.
    fn owner_of(&self, building: u32) -> Option<usize> {
        let slot = self.learned.as_ref()?.1.slot_of(BuildingId(building))?;
        Some(self.owners[slot])
    }
}

/// Why a guarded backend call did not produce a response.
enum CallError {
    /// The breaker/prober refused the send — the backend cost one table
    /// lookup, nothing hit the wire.
    Refused,
    /// The send happened (or was attempted) and died on transport.
    Transport(std::io::Error),
}

/// A per-client-IP token bucket: `rate` tokens/second, holding at most
/// `burst`. Applied to `/v1/*` only, so probers and dashboards hitting
/// `/healthz` and `/metrics` are never throttled.
struct RateLimiter {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
}

struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl RateLimiter {
    fn new(rate_per_sec: u32, burst: u32) -> Self {
        RateLimiter {
            rate: f64::from(rate_per_sec.max(1)),
            burst: f64::from(burst.max(1)),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// `Ok` consumes one token; `Err(secs)` is the `Retry-After` hint.
    fn check(&self, ip: IpAddr) -> Result<(), u64> {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        // Bound the table: drop buckets that have long since refilled
        // (an idle client's bucket carries no information).
        if buckets.len() > 4096 {
            let horizon = Duration::from_secs(60);
            buckets.retain(|_, b| now.duration_since(b.last) < horizon);
        }
        let bucket = buckets.entry(ip).or_insert(TokenBucket {
            tokens: self.burst,
            last: now,
        });
        let refill = now.duration_since(bucket.last).as_secs_f64() * self.rate;
        bucket.tokens = (bucket.tokens + refill).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait = ((1.0 - bucket.tokens) / self.rate).ceil();
            Err((wait as u64).max(1))
        }
    }
}

/// Shared state of a running router: backends, the mirrored route
/// index, policies, and the counters behind `/metrics`.
pub struct RouterState {
    backends: Vec<Backend>,
    tables: Mutex<Vec<Option<RouteTableBody>>>,
    index: RwLock<RouteMirror>,
    health: HealthPolicy,
    backend_timeout: Duration,
    retries: u32,
    backoff_base: Duration,
    auth_token: Option<String>,
    limiter: Option<RateLimiter>,
    shutdown: Arc<AtomicBool>,
    requests: AtomicU64,
    rate_limited: AtomicU64,
    degraded_responses: AtomicU64,
    scatter_gathers: AtomicU64,
    backend_retries: AtomicU64,
    started: Instant,
}

impl RouterState {
    /// Per-backend health/breaker status, in manifest order.
    pub fn backends(&self) -> impl Iterator<Item = &BackendStatus> {
        self.backends.iter().map(|b| &b.status)
    }

    /// Requests handled so far (including throttled ones).
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered 429 by the per-client rate limiter.
    #[must_use]
    pub fn rate_limited_count(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    /// Responses that went out flagged degraded.
    #[must_use]
    pub fn degraded_count(&self) -> u64 {
        self.degraded_responses.load(Ordering::Relaxed)
    }

    /// Scatter-gather fan-outs performed (fallback over live backends).
    #[must_use]
    pub fn scatter_count(&self) -> u64 {
        self.scatter_gathers.load(Ordering::Relaxed)
    }

    /// Retries performed against backends (transport + 5xx).
    #[must_use]
    pub fn backend_retry_count(&self) -> u64 {
        self.backend_retries.load(Ordering::Relaxed)
    }

    /// Buildings currently in the mirrored route index.
    #[must_use]
    pub fn building_count(&self) -> usize {
        self.index.read().unwrap().owners.len()
    }

    /// Rebuilds the route index from the stored tables. On a building
    /// claimed by several backends the lowest manifest index wins.
    fn rebuild_index(&self) {
        let tables = self.tables.lock().unwrap();
        let mut router: Option<RouterKind> = None;
        let mut merged: BTreeMap<u32, (usize, &RouteTableEntry)> = BTreeMap::new();
        for (backend, table) in tables.iter().enumerate() {
            let Some(table) = table else { continue };
            router.get_or_insert(table.router);
            for entry in &table.shards {
                merged.entry(entry.building).or_insert((backend, entry));
            }
        }
        let owners = merged.values().map(|(backend, _)| *backend).collect();
        let learned = router.map(|router| {
            let shards: Vec<RouteTableEntry> = merged.values().map(|(_, e)| (*e).clone()).collect();
            let index = RouteIndex::new(
                router,
                shards.iter().map(|entry| {
                    let macs = entry.macs.iter().map(|&mac| MacAddr::from_u64(mac));
                    (BuildingId(entry.building), entry.weight, macs)
                }),
            );
            (RouteTableBody { router, shards }, index)
        });
        drop(tables);
        *self.index.write().unwrap() = RouteMirror { learned, owners };
    }

    /// One raw request to backend `idx` over a pooled connection. The
    /// breaker sees the outcome; the caller is responsible for having
    /// consulted `admit()` first (this is the consuming send).
    fn call_raw(
        &self,
        idx: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let backend = &self.backends[idx];
        let pooled = backend.pool.lock().unwrap().pop();
        let mut client = match pooled {
            Some(client) => client,
            None => match HttpClient::connect(backend.status.addr()) {
                Ok(client) => client,
                Err(e) => {
                    backend.status.breaker.record_failure();
                    return Err(e);
                }
            },
        };
        let _ = client.set_timeouts(self.backend_timeout, self.backend_timeout);
        client.set_retry_policy(self.retries, self.backoff_base);
        client.set_auth_token(self.auth_token.clone());
        let retries_before = client.retries_performed();
        let result = client.request(method, path, body);
        self.backend_retries.fetch_add(
            client.retries_performed() - retries_before,
            Ordering::Relaxed,
        );
        match &result {
            Ok(_) => {
                backend.status.breaker.record_success();
                backend.pool.lock().unwrap().push(client);
            }
            Err(_) => backend.status.breaker.record_failure(),
        }
        result
    }

    /// Breaker-guarded idempotent call: admission is claimed at send
    /// time (a claimed half-open trial is always resolved by the send's
    /// outcome), transport errors were already retried by the client,
    /// and 5xx answers are retried here within the same budget — an
    /// overloaded-intermediary burst should not surface to the caller
    /// while the budget lasts.
    fn call_idempotent(
        &self,
        idx: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), CallError> {
        let mut attempt = 0u32;
        loop {
            if !self.backends[idx].status.admit() {
                return Err(CallError::Refused);
            }
            match self.call_raw(idx, method, path, body) {
                Ok((status, resp)) if status >= 500 && attempt < self.retries => {
                    attempt += 1;
                    self.backend_retries.fetch_add(1, Ordering::Relaxed);
                    drop(resp);
                    std::thread::sleep(
                        self.backoff_base
                            .max(Duration::from_millis(1))
                            .saturating_mul(1 << attempt.min(6)),
                    );
                }
                Ok(resp) => return Ok(resp),
                Err(e) => return Err(CallError::Transport(e)),
            }
        }
    }

    /// Breaker-guarded **single-shot** call for the write endpoints:
    /// exactly one send, never resent ([`HttpClient`] already refuses to
    /// retry non-idempotent paths; this adds the admission gate).
    fn call_write(
        &self,
        idx: usize,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), CallError> {
        if !self.backends[idx].status.admit() {
            return Err(CallError::Refused);
        }
        self.call_raw(idx, "POST", path, body)
            .map_err(CallError::Transport)
    }

    /// Human-readable reason a backend is refusing traffic.
    fn refusal(&self, idx: usize) -> String {
        let status = &self.backends[idx].status;
        let why = if status.state().is_routable() && status.breaker.is_open() {
            "breaker-open".to_owned()
        } else {
            status.state().as_str().to_owned()
        };
        format!("backend {} is {}", status.name(), why)
    }
}

/// One response ready to write: status, content type, body, and whether
/// it must carry the degraded marker (`X-Grafics-Degraded: true`).
struct Resp {
    status: u16,
    content_type: &'static str,
    body: String,
    degraded: bool,
}

impl Resp {
    fn json<T: Serialize>(status: u16, value: &T) -> Resp {
        Resp {
            status,
            content_type: CONTENT_TYPE_JSON,
            body: serde_json::to_string(value).unwrap_or_else(|_| "{}".to_owned()),
            degraded: false,
        }
    }

    fn error(status: u16, message: &str) -> Resp {
        Resp {
            status,
            content_type: CONTENT_TYPE_JSON,
            body: serde_json::to_string(&serde_json::json!({ "error": message }))
                .unwrap_or_else(|_| "{}".to_owned()),
            degraded: false,
        }
    }

    fn passthrough(status: u16, body: String) -> Resp {
        Resp {
            status,
            content_type: CONTENT_TYPE_JSON,
            body,
            degraded: false,
        }
    }

    fn from_api((status, body): (u16, String)) -> Resp {
        Resp::passthrough(status, body)
    }

    fn degraded(mut self, degraded: bool) -> Resp {
        self.degraded = degraded;
        self
    }
}

/// Sub-batch forwarded to one backend: the routed records with their
/// **original** stream indices, so the backend draws from the same RNG
/// streams the single process would.
#[derive(Serialize)]
struct SubBatchRequest {
    records: Vec<SignalRecord>,
    seed: u64,
    threads: usize,
    indices: Vec<u64>,
}

/// The most records one `/v1/infer_batch` call to a backend carries, so
/// that its answer fits [`crate::http::RESPONSE_LIMITS`] whatever the
/// request limits: a unit test pins the longest answer slot at 131 bytes.
const SUB_BATCH_RECORDS: usize = 32_768;

/// Serves `positions` of a batch on backend `idx`, in sub-batches of at
/// most [`SUB_BATCH_RECORDS`] that carry the original stream indices;
/// `None` if any call fails or answers the wrong number of slots.
fn serve_on(
    state: &RouterState,
    idx: usize,
    records: &[SignalRecord],
    indices: &[u64],
    positions: &[usize],
    seed: u64,
    threads: usize,
) -> Option<Vec<Option<PredictionBody>>> {
    let mut slots = Vec::with_capacity(positions.len());
    for chunk in positions.chunks(SUB_BATCH_RECORDS) {
        let sub = SubBatchRequest {
            records: chunk.iter().map(|&p| records[p].clone()).collect(),
            seed,
            threads,
            indices: chunk.iter().map(|&p| indices[p]).collect(),
        };
        let body = serde_json::to_string(&sub).ok()?;
        let Ok((200, resp)) = state.call_idempotent(idx, "POST", "/v1/infer_batch", Some(&body))
        else {
            return None;
        };
        let batch: BatchBody = serde_json::from_str(&resp).ok()?;
        if batch.predictions.len() != chunk.len() {
            return None;
        }
        slots.extend(batch.predictions);
    }
    Some(slots)
}

/// Runs `call(i)` for every `i` in `0..n`, each on its own scoped
/// thread, and returns the answers in order (`None` where one panicked).
fn fan_out<T: Send>(n: usize, call: impl Fn(usize) -> Option<T> + Sync) -> Vec<Option<T>> {
    std::thread::scope(|scope| {
        let call = &call;
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || call(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Single-record scatter probe (fallback path of `/v1/infer`).
#[derive(Serialize)]
struct SubInferRequest {
    record: SignalRecord,
    seed: u64,
    index: u64,
}

/// `GET /v1/stat` through the router: merged shard stats plus the
/// router's own view of each backend.
#[derive(Serialize)]
struct RouterStatBody {
    shards: Vec<ShardStats>,
    backends: Vec<BackendStatBody>,
    degraded: bool,
}

/// One backend's row in [`RouterStatBody`].
#[derive(Serialize)]
struct BackendStatBody {
    name: String,
    addr: String,
    state: String,
    breaker_open: bool,
    breaker_trips: u64,
    probes: u64,
    transitions: u64,
}

/// `POST /v1/publish` through the router: merged epochs + degraded flag.
#[derive(Serialize)]
struct RouterPublishBody {
    epochs: Vec<EpochBody>,
    degraded: bool,
}

/// `GET /healthz` on the router itself.
#[derive(Serialize)]
struct RouterHealthBody {
    ok: bool,
    status: String,
    backends: usize,
    backends_up: usize,
    buildings: usize,
    uptime_secs: f64,
    requests: u64,
}

fn dispatch_router(
    state: &RouterState,
    method: &str,
    path: &str,
    body: &[u8],
    authorization: &str,
) -> Resp {
    // Same write-endpoint auth gate as the backend server.
    if matches!(path, "/v1/absorb" | "/v1/publish")
        && state
            .auth_token
            .as_deref()
            .is_some_and(|token| !api::bearer_token_matches(authorization, token))
    {
        return Resp::error(401, "missing or invalid bearer token on a write endpoint");
    }
    match (method, path) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/v1/stat") => stat(state),
        ("GET", "/v1/route_table") => route_table(state),
        ("POST", "/v1/infer") => infer(state, body),
        ("POST", "/v1/infer_batch") => infer_batch(state, body),
        ("POST", "/v1/absorb") => absorb(state, body),
        ("POST", "/v1/publish") => publish(state, body),
        (
            _,
            "/healthz" | "/metrics" | "/v1/stat" | "/v1/route_table" | "/v1/infer"
            | "/v1/infer_batch" | "/v1/absorb" | "/v1/publish",
        ) => Resp::error(405, &format!("{method} not allowed here")),
        _ => Resp::error(404, &format!("no route for {path}")),
    }
}

fn healthz(state: &RouterState) -> Resp {
    let ups = state
        .backends
        .iter()
        .filter(|b| b.status.state() == BackendState::Up)
        .count();
    let total = state.backends.len();
    let status = if ups == total {
        "ok"
    } else if ups > 0 {
        "degraded"
    } else {
        "down"
    };
    Resp::json(
        if ups > 0 { 200 } else { 503 },
        &RouterHealthBody {
            ok: ups > 0,
            status: status.to_owned(),
            backends: total,
            backends_up: ups,
            buildings: state.building_count(),
            uptime_secs: state.started.elapsed().as_secs_f64(),
            requests: state.request_count(),
        },
    )
}

fn metrics(state: &RouterState) -> Resp {
    let mut out = String::new();
    let mut m = Exposition(&mut out);
    m.counter("grafics_router_requests_total", state.request_count());
    m.counter("grafics_rate_limited_total", state.rate_limited_count());
    m.counter(
        "grafics_router_degraded_responses_total",
        state.degraded_count(),
    );
    m.counter(
        "grafics_router_scatter_gathers_total",
        state.scatter_count(),
    );
    m.counter(
        "grafics_router_backend_retries_total",
        state.backend_retry_count(),
    );
    m.gauge(
        "grafics_router_uptime_seconds",
        state.started.elapsed().as_secs_f64(),
    );
    m.gauge("grafics_router_backends", state.backends.len());
    m.gauge("grafics_router_buildings", state.building_count());
    type BackendMetric<'a> = (&'a str, &'a str, &'a dyn Fn(&BackendStatus) -> u64);
    let per_backend: [BackendMetric; 5] = [
        ("grafics_router_backend_up", "gauge", &|s| {
            u64::from(s.state() == BackendState::Up)
        }),
        ("grafics_router_breaker_open", "gauge", &|s| {
            u64::from(s.breaker.is_open())
        }),
        ("grafics_router_breaker_trips_total", "counter", &|s| {
            s.breaker.trips()
        }),
        ("grafics_router_probes_total", "counter", &|s| {
            s.probe_count()
        }),
        ("grafics_router_transitions_total", "counter", &|s| {
            s.transition_count()
        }),
    ];
    for (name, kind, value) in per_backend {
        m.family(name, kind);
        for backend in &state.backends {
            let s = &backend.status;
            m.sample(name, &[("backend", &s.name())], value(s));
        }
    }
    m.family("grafics_router_backend_state", "gauge");
    for backend in &state.backends {
        let s = &backend.status;
        let labels: [(&str, &dyn std::fmt::Display); 2] =
            [("backend", &s.name()), ("state", &s.state().as_str())];
        m.sample("grafics_router_backend_state", &labels, 1);
    }
    Resp {
        status: 200,
        content_type: CONTENT_TYPE_TEXT,
        body: out,
        degraded: false,
    }
}

fn stat(state: &RouterState) -> Resp {
    let mut shards: Vec<ShardStats> = Vec::new();
    let mut degraded = state.index.read().unwrap().owners.is_empty();
    for idx in 0..state.backends.len() {
        if !state.backends[idx].status.routable() {
            degraded = true;
            continue;
        }
        match state.call_idempotent(idx, "GET", "/v1/stat", None) {
            Ok((200, body)) => match serde_json::from_str::<FleetStats>(&body) {
                Ok(stats) => shards.extend(stats.shards),
                Err(_) => degraded = true,
            },
            _ => degraded = true,
        }
    }
    shards.sort_by_key(|s| s.building.0);
    let backends = state
        .backends
        .iter()
        .map(|b| BackendStatBody {
            name: b.status.name().to_owned(),
            addr: b.status.addr().to_string(),
            state: b.status.state().as_str().to_owned(),
            breaker_open: b.status.breaker.is_open(),
            breaker_trips: b.status.breaker.trips(),
            probes: b.status.probe_count(),
            transitions: b.status.transition_count(),
        })
        .collect();
    Resp::json(
        200,
        &RouterStatBody {
            shards,
            backends,
            degraded,
        },
    )
    .degraded(degraded)
}

fn route_table(state: &RouterState) -> Resp {
    match &state.index.read().unwrap().learned {
        Some((table, _)) => Resp::json(200, table),
        None => Resp::error(503, "route table not yet learned from any backend").degraded(true),
    }
}

fn infer(state: &RouterState, body: &[u8]) -> Resp {
    let req: InferRequest = match api::parse_json(body) {
        Ok(req) => req,
        Err(e) => return Resp::from_api(e),
    };
    let record = match api::sanitize(&req.record) {
        Ok(record) => record,
        Err(e) => return Resp::from_api(e),
    };
    let fallback = req.fallback.unwrap_or(false);
    let routed_backend = state.index.read().unwrap().route(&record);
    let raw = std::str::from_utf8(body).unwrap_or("{}");
    match routed_backend {
        Some(idx) => match state.call_idempotent(idx, "POST", "/v1/infer", Some(raw)) {
            // The routed backend's answer is returned byte-for-byte.
            Ok((status, resp)) => Resp::passthrough(status, resp),
            Err(CallError::Refused) if fallback => scatter_infer(state, &record, &req),
            Err(CallError::Refused) => Resp::error(
                503,
                &format!("{}; its shards are excluded", state.refusal(idx)),
            )
            .degraded(true),
            Err(CallError::Transport(_)) if fallback => scatter_infer(state, &record, &req),
            Err(CallError::Transport(e)) => {
                Resp::error(502, &format!("{} failed: {e}", backend_name(state, idx)))
                    .degraded(true)
            }
        },
        None if fallback => scatter_infer(state, &record, &req),
        None => Resp::error(422, "record overlaps no building in the fleet; discarded"),
    }
}

fn backend_name(state: &RouterState, idx: usize) -> String {
    format!("backend {}", state.backends[idx].status.name())
}

/// Fallback for one record: ask every live backend (with the original
/// stream index) for its routed answer and return the smallest-distance
/// one verbatim, ties to the lowest building id.
fn scatter_infer(state: &RouterState, record: &SignalRecord, req: &InferRequest) -> Resp {
    state.scatter_gathers.fetch_add(1, Ordering::Relaxed);
    let sub = SubInferRequest {
        record: record.clone(),
        seed: req.seed.unwrap_or(0),
        index: req.index.unwrap_or(0),
    };
    let Ok(sub_body) = serde_json::to_string(&sub) else {
        return Resp::error(500, "could not serialize scatter request");
    };
    let mut degraded = state.index.read().unwrap().owners.is_empty();
    let answers = fan_out(state.backends.len(), |idx| {
        if !state.backends[idx].status.routable() {
            return None;
        }
        state
            .call_idempotent(idx, "POST", "/v1/infer", Some(&sub_body))
            .ok()
    });
    let mut best: Option<(f64, u32, String)> = None;
    for answer in answers {
        match answer {
            Some((200, body)) => {
                let Ok(pred) = serde_json::from_str::<PredictionBody>(&body) else {
                    degraded = true;
                    continue;
                };
                let better = best.as_ref().is_none_or(|(d, b, _)| {
                    pred.distance < *d || (pred.distance == *d && pred.building < *b)
                });
                if better {
                    best = Some((pred.distance, pred.building, body));
                }
            }
            // 422: that backend cannot answer this record at all — an
            // expected miss, not degradation.
            Some((422, _)) => {}
            // Refused, transport-dead, or an unexpected status: part of
            // the fleet did not contribute to this answer.
            _ => degraded = true,
        }
    }
    match best {
        Some((_, _, body)) => Resp::passthrough(200, body).degraded(degraded),
        None if degraded => {
            Resp::error(503, "no live backend could answer the fallback broadcast").degraded(true)
        }
        None => Resp::error(422, "record overlaps no building in the fleet; discarded"),
    }
}

fn infer_batch(state: &RouterState, body: &[u8]) -> Resp {
    let req: InferBatchRequest = match api::parse_json(body) {
        Ok(req) => req,
        Err(e) => return Resp::from_api(e),
    };
    let mut records = Vec::with_capacity(req.records.len());
    for r in &req.records {
        match api::sanitize(r) {
            Ok(record) => records.push(record),
            Err(e) => return Resp::from_api(e),
        }
    }
    let n = records.len();
    let seed = req.seed.unwrap_or(0);
    let threads = req.threads.unwrap_or(1);
    let fallback = req.fallback.unwrap_or(false);
    let indices: Vec<u64> = match req.indices {
        Some(idx) if idx.len() != n => {
            return Resp::from_api(api::error_body(
                400,
                "indices length must match records length",
            ))
        }
        Some(idx) => idx,
        None => (0..n as u64).collect(),
    };

    // Route every record against the mirrored index, grouping positions
    // by owning backend. Unroutable (or routed-to-refusing, with
    // fallback) positions go to the scatter list.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut scatter: Vec<usize> = Vec::new();
    let mut degraded = state.index.read().unwrap().owners.is_empty();
    {
        let index = state.index.read().unwrap();
        for (pos, record) in records.iter().enumerate() {
            match index.route(record) {
                Some(backend) => {
                    if state.backends[backend].status.routable() {
                        groups.entry(backend).or_default().push(pos);
                    } else {
                        degraded = true;
                        if fallback {
                            scatter.push(pos);
                        }
                    }
                }
                None => {
                    if fallback {
                        scatter.push(pos);
                    }
                }
            }
        }
    }

    let mut slots: Vec<Option<PredictionBody>> = vec![None; n];
    let (records, indices) = (&records[..], &indices[..]);

    // Fan the routed groups out in parallel, one backend per thread,
    // each sub-batch carrying the original stream indices.
    let group_list: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
    let group_results = fan_out(group_list.len(), |i| {
        let (backend, positions) = &group_list[i];
        serve_on(state, *backend, records, indices, positions, seed, threads)
    });
    for ((_, positions), result) in group_list.iter().zip(group_results) {
        match result {
            Some(predictions) => {
                for (&pos, pred) in positions.iter().zip(predictions) {
                    slots[pos] = pred;
                }
            }
            None => {
                // The group failed: its backend is unreachable or
                // answered garbage. Degrade, and broadcast the affected
                // records if the caller allowed fallback.
                degraded = true;
                if fallback {
                    scatter.extend(positions.iter().copied());
                }
            }
        }
    }

    // Scatter-gather: send the leftover records to every live backend
    // and merge the per-backend routed answers.
    if !scatter.is_empty() {
        scatter.sort_unstable();
        state.scatter_gathers.fetch_add(1, Ordering::Relaxed);
        let answers = fan_out(state.backends.len(), |idx| {
            if !state.backends[idx].status.routable() {
                return None;
            }
            serve_on(state, idx, records, indices, &scatter, seed, threads)
        });
        for answer in answers.into_iter().flatten() {
            for (&pos, pred) in scatter.iter().zip(answer) {
                let Some(pred) = pred else { continue };
                // Strict-smaller distance wins; ties keep the lowest
                // building id.
                let better = slots[pos].as_ref().is_none_or(|cur| {
                    pred.distance < cur.distance
                        || (pred.distance == cur.distance && pred.building < cur.building)
                });
                if better {
                    slots[pos] = Some(pred);
                }
            }
        }
    }

    let served = slots.iter().flatten().count();
    Resp::json(
        200,
        &BatchBody {
            predictions: slots,
            served,
            degraded,
        },
    )
    .degraded(degraded)
}

fn absorb(state: &RouterState, body: &[u8]) -> Resp {
    let req: AbsorbRequest = match api::parse_json(body) {
        Ok(req) => req,
        Err(e) => return Resp::from_api(e),
    };
    let record = match api::sanitize(&req.record) {
        Ok(record) => record,
        Err(e) => return Resp::from_api(e),
    };
    let target = {
        let index = state.index.read().unwrap();
        match req.building {
            Some(b) => match index.owner_of(b) {
                Some(backend) => Some(backend),
                None => return Resp::error(404, &format!("no shard for building b{b}")),
            },
            None => index.route(&record),
        }
    };
    let Some(idx) = target else {
        return Resp::error(422, "record overlaps no building in the fleet; discarded");
    };
    let raw = std::str::from_utf8(body).unwrap_or("{}");
    match state.call_write(idx, "/v1/absorb", Some(raw)) {
        Ok((status, resp)) => Resp::passthrough(status, resp),
        // Fail fast, state known: nothing was sent, a resend is safe.
        Err(CallError::Refused) => Resp::error(
            503,
            &format!("{}; absorb not attempted — resend is safe", state.refusal(idx)),
        )
        .degraded(true),
        // Fail fast, state UNKNOWN: the request may have been applied
        // before the connection died. Never blindly resent.
        Err(CallError::Transport(e)) => Resp::error(
            502,
            &format!(
                "{} failed mid-absorb ({e}); applied-state unknown — audit the WAL before resending",
                backend_name(state, idx)
            ),
        )
        .degraded(true),
    }
}

fn publish(state: &RouterState, body: &[u8]) -> Resp {
    let req: PublishRequest = if body.is_empty() {
        PublishRequest { building: None }
    } else {
        match api::parse_json(body) {
            Ok(req) => req,
            Err(e) => return Resp::from_api(e),
        }
    };
    if let Some(b) = req.building {
        let target = state.index.read().unwrap().owner_of(b);
        let Some(idx) = target else {
            return Resp::error(404, &format!("no shard for building b{b}"));
        };
        let raw = std::str::from_utf8(body).unwrap_or("{}");
        return match state.call_write(idx, "/v1/publish", Some(raw)) {
            Ok((status, resp)) => Resp::passthrough(status, resp),
            Err(CallError::Refused) => Resp::error(
                503,
                &format!("{}; publish not attempted", state.refusal(idx)),
            )
            .degraded(true),
            Err(CallError::Transport(e)) => Resp::error(
                502,
                &format!("{} failed mid-publish: {e}", backend_name(state, idx)),
            )
            .degraded(true),
        };
    }
    // Fleet-wide publish: one single-shot publish per live backend.
    let mut epochs: Vec<EpochBody> = Vec::new();
    let mut degraded = state.index.read().unwrap().owners.is_empty();
    for idx in 0..state.backends.len() {
        match state.call_write(idx, "/v1/publish", Some("{}")) {
            Ok((200, resp)) => match serde_json::from_str::<PublishBody>(&resp) {
                Ok(body) => epochs.extend(body.epochs),
                Err(_) => degraded = true,
            },
            _ => degraded = true,
        }
    }
    epochs.sort_by_key(|e| e.building);
    Resp::json(200, &RouterPublishBody { epochs, degraded }).degraded(degraded)
}

/// The bound-but-not-yet-running router (mirrors [`crate::HttpServer`]).
pub struct RouterServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<RouterState>,
    config: RouterConfig,
}

/// Shutdown handle for a running router.
pub type RouterHandle = ServerHandle;

/// What [`RouterServer::run`] reports after a graceful shutdown.
#[derive(Debug, Clone, Copy)]
pub struct RouterReport {
    /// Requests handled over the router's lifetime.
    pub requests: u64,
}

/// A router running on its own thread (from [`RouterServer::spawn`]).
pub type RouterRunning = Running<RouterState, RouterReport>;

impl RouterRunning {
    /// Polls until the mirrored route index holds at least `buildings`
    /// buildings; `false` on timeout. Call after spawn so the first
    /// requests do not race the initial table fetch.
    #[must_use]
    pub fn wait_for_buildings(&self, buildings: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.state().building_count() >= buildings {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state().building_count() >= buildings
    }
}

impl RouterServer {
    /// Resolves the manifest's backends and binds the listener (pass
    /// port 0 for an ephemeral port). Probing and table mirroring start
    /// with [`RouterServer::run`]/[`RouterServer::spawn`].
    ///
    /// # Errors
    ///
    /// Bind/resolve errors, or `InvalidInput` on an empty backend list.
    pub fn bind<A: ToSocketAddrs>(config: RouterConfig, addr: A) -> std::io::Result<Self> {
        if config.manifest.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let mut backends = Vec::with_capacity(config.manifest.backends.len());
        for spec in &config.manifest.backends {
            let resolved = spec.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("backend {} resolved to nothing", spec.name),
                )
            })?;
            backends.push(Backend {
                status: BackendStatus::new(spec.name.clone(), resolved, config.manifest.breaker),
                pool: Mutex::new(Vec::new()),
            });
        }
        let limiter = config
            .manifest
            .rate_limit
            .per_client()
            .map(|(rate, burst)| RateLimiter::new(rate, burst));
        let tables = Mutex::new(vec![None; backends.len()]);
        let state = Arc::new(RouterState {
            backends,
            tables,
            index: RwLock::new(RouteMirror::default()),
            health: config.manifest.health,
            backend_timeout: config.backend_timeout,
            retries: config.retries,
            backoff_base: config.backoff_base,
            auth_token: config.manifest.auth_token.clone(),
            limiter,
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
            scatter_gathers: AtomicU64::new(0),
            backend_retries: AtomicU64::new(0),
            started: Instant::now(),
        });
        let listener = transport::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(RouterServer {
            listener,
            addr,
            state,
            config,
        })
    }

    /// The bound listener address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown handle usable before/while `run` executes.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        ServerHandle::new(&self.state.shutdown)
    }

    /// The shared router state.
    #[must_use]
    pub fn state(&self) -> Arc<RouterState> {
        Arc::clone(&self.state)
    }

    /// Runs the prober and the shared transport until shutdown, then
    /// drains: idle keep-alive connections close at once, in-flight
    /// requests are answered, workers and the prober are joined.
    ///
    /// # Errors
    ///
    /// None today (per-connection errors are contained).
    pub fn run(self) -> std::io::Result<RouterReport> {
        let state = self.state;
        let prober_state = Arc::clone(&state);
        let prober = std::thread::spawn(move || prober_loop(&prober_state));
        let pool = Transport {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            limits: Limits {
                max_head_bytes: self.config.max_head_bytes,
                max_body_bytes: self.config.max_body_bytes,
            },
            read_timeout: self.config.read_timeout,
        };
        transport::run(&self.listener, &pool, &state.shutdown, &*state);
        let _ = prober.join();
        Ok(RouterReport {
            requests: state.request_count(),
        })
    }

    /// Runs on a background thread; see [`RouterRunning`].
    ///
    /// # Errors
    ///
    /// None today (the signature allows spawn-time checks to grow).
    pub fn spawn(self) -> std::io::Result<RouterRunning> {
        let (addr, handle, state) = (self.addr, self.handle(), self.state());
        Ok(Running::spawn(addr, handle, state, move || self.run()))
    }
}

/// The health thread: probes every backend's `/healthz` each interval,
/// feeds the state machines, and (re)fetches `/v1/route_table` from
/// backends whose table is flagged dirty (at birth and on every Down→Up
/// recovery — a restarted backend may own different shards).
fn prober_loop(state: &Arc<RouterState>) {
    let interval = Duration::from_millis(state.health.interval_ms());
    let timeout = Duration::from_millis(state.health.timeout_ms());
    while !state.shutdown.load(Ordering::SeqCst) {
        for backend in &state.backends {
            let outcome = probe_healthz(backend.status.addr(), timeout);
            backend.status.apply_probe(outcome, &state.health);
        }
        let mut rebuilt = false;
        for (idx, backend) in state.backends.iter().enumerate() {
            if backend.status.state() != BackendState::Up || !backend.status.take_table_dirty() {
                continue;
            }
            match state.call_idempotent(idx, "GET", "/v1/route_table", None) {
                Ok((200, body)) => match serde_json::from_str::<RouteTableBody>(&body) {
                    Ok(table) => {
                        state.tables.lock().unwrap()[idx] = Some(table);
                        rebuilt = true;
                    }
                    Err(_) => backend.status.mark_table_dirty(),
                },
                _ => backend.status.mark_table_dirty(),
            }
        }
        if rebuilt {
            state.rebuild_index();
        }
        // Sleep in short slices so shutdown stays responsive under long
        // probe intervals.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline && !state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Service for RouterState {
    fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-client rate limit (on `/v1/*` only), then the router's
    /// endpoints; a degraded answer carries `X-Grafics-Degraded: true`.
    fn dispatch(&self, req: &Request, peer: IpAddr, body: &mut String) -> Reply {
        let limiter = self
            .limiter
            .as_ref()
            .filter(|_| req.path.starts_with("/v1/"));
        if let Some(Err(retry_after)) = limiter.map(|limiter| limiter.check(peer)) {
            self.rate_limited.fetch_add(1, Ordering::Relaxed);
            *body = Resp::error(429, "rate limit exceeded; slow down").body;
            return Reply {
                status: 429,
                content_type: CONTENT_TYPE_JSON,
                header: Some(("Retry-After", retry_after.to_string())),
            };
        }
        let resp = dispatch_router(self, &req.method, &req.path, &req.body, &req.authorization);
        if resp.degraded {
            self.degraded_responses.fetch_add(1, Ordering::Relaxed);
        }
        *body = resp.body;
        Reply {
            status: resp.status,
            content_type: resp.content_type,
            header: resp
                .degraded
                .then(|| ("X-Grafics-Degraded", "true".to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limiter_throttles_then_refills() {
        let limiter = RateLimiter::new(1000, 2);
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        assert!(limiter.check(ip).is_ok());
        assert!(limiter.check(ip).is_ok());
        let retry = limiter.check(ip).expect_err("burst of 2 exhausted");
        assert!(retry >= 1);
        // Other clients are unaffected.
        assert!(limiter.check("10.0.0.2".parse().unwrap()).is_ok());
        // 1000 tokens/s refill fast enough to observe.
        std::thread::sleep(Duration::from_millis(20));
        assert!(limiter.check(ip).is_ok());
    }

    /// A backend name is an operator's free text (`router.json`,
    /// `--backends`): quotes and backslashes in it are escaped, so each
    /// per-backend series stays one well-formed line, and every other
    /// line is unchanged.
    #[test]
    fn metrics_escape_backend_names_in_labels() {
        let mut config = RouterConfig::default();
        config.manifest.backends.push(grafics_core::BackendSpec {
            name: "a\"b\\c".to_owned(),
            addr: "127.0.0.1:1".to_owned(),
        });
        let router = RouterServer::bind(config, "127.0.0.1:0").unwrap();
        let text = metrics(&router.state()).body;
        let labelled: Vec<&str> = text.lines().filter(|l| l.contains('{')).collect();
        assert_eq!(labelled.len(), 6, "{text}");
        for line in &labelled {
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(value == "0" || value == "1", "{line}");
            assert!(
                series.ends_with("{backend=\"a\\\"b\\\\c\"}") || series.ends_with(",state=\"up\"}"),
                "{line}"
            );
        }
        assert!(
            text.contains("grafics_router_backend_state{backend=\"a\\\"b\\\\c\",state=\"up\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE grafics_router_backends gauge\ngrafics_router_backends 1\n"),
            "{text}"
        );
    }

    /// The longest `/v1/infer_batch` answer slot: the widest building id,
    /// floor and floor name, and the longest `{:?}` texts an f64
    /// distance or margin can have.
    fn longest_slot() -> usize {
        [
            -2.225_073_858_507_201_4e-308,
            -1.234_567_890_123_456_7e-4,
            -1.797_693_134_862_315_7e308,
        ]
        .iter()
        .map(|&x| {
            let pred = PredictionBody {
                building: u32::MAX,
                floor: i16::MIN,
                floor_name: "B-32768".to_owned(),
                distance: x,
                margin: Some(x),
            };
            serde_json::to_string(&pred).unwrap().len()
        })
        .max()
        .unwrap()
    }

    /// The longest `/v1/infer_batch` answer to `records` records.
    fn longest_answer(records: usize) -> usize {
        let envelope = serde_json::to_string(&BatchBody {
            predictions: Vec::new(),
            served: records,
            degraded: true,
        })
        .unwrap()
        .len();
        envelope + records * (longest_slot() + 1)
    }

    #[test]
    fn a_full_sub_batch_answer_fits_the_response_limits() {
        assert_eq!(longest_slot(), 131);
        let answer = longest_answer(SUB_BATCH_RECORDS);
        assert!(
            answer <= crate::http::RESPONSE_LIMITS.max_body_bytes,
            "{answer}"
        );
    }

    #[test]
    fn a_batch_at_the_default_request_limits_answers_within_the_response_limits() {
        // The shortest record a batch can carry, and the proof that it is
        // a legal one.
        let record = r#"{"readings":[{"mac":1,"rssi":0}]}"#;
        let req: InferBatchRequest =
            api::parse_json(format!("{{\"records\":[{record}]}}").as_bytes()).unwrap();
        assert!(api::sanitize(&req.records[0]).is_ok());
        let envelope = r#"{"records":[]}"#.len();
        for limit in [
            RouterConfig::default().max_body_bytes,
            crate::ServeConfig::default().max_body_bytes,
        ] {
            let records = (limit - envelope + 1) / (record.len() + 1);
            let answer = longest_answer(records);
            assert!(
                answer <= crate::http::RESPONSE_LIMITS.max_body_bytes,
                "{records} records under a {limit}-byte limit answer in {answer} bytes"
            );
        }
    }

    #[test]
    fn empty_backend_list_is_rejected() {
        let err = RouterServer::bind(RouterConfig::default(), "127.0.0.1:0")
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
