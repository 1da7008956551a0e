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
//! shard would answer. Cross-backend fallback merges per-backend
//! broadcast winners by strict-smaller distance with the same
//! ascending-id tie-break, composing to the single-process broadcast.
//!
//! # Degraded mode
//!
//! A Down backend (prober) or open breaker (hot path) excludes its
//! shards. Requests that needed them fail fast with the backend's state
//! in the error, or — with `"fallback": true` — are answered by
//! scatter-gather over the live backends. Any response missing part of
//! the fleet carries `"degraded": true` (batch body) and an
//! `X-Grafics-Degraded: true` header. Absorbs and publishes are **never
//! retried or rerouted**: a lost response does not mean an unprocessed
//! request, so the router surfaces 502/503 and lets the operator decide.

use crate::api::{
    self, AbsorbRequest, BatchBody, EpochBody, InferBatchRequest, InferRequest, PredictionBody,
    PublishBody, PublishRequest, RouteTableBody, RouteTableEntry, CONTENT_TYPE_JSON,
    CONTENT_TYPE_TEXT,
};
use crate::client::HttpClient;
use crate::health::{probe_healthz, BackendStatus};
use crate::http::{self, Limits, Request};
use grafics_core::{FleetStats, RouteIndex, RouterKind, RouterManifest, ShardStats};
use grafics_types::{BackendState, BuildingId, HealthPolicy, MacAddr, SignalRecord};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

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
    shutdown: AtomicBool,
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

    fn degraded(mut self) -> Resp {
        self.degraded = true;
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
    fallback: bool,
    indices: Vec<u64>,
}

/// Single-record scatter probe (fallback path of `/v1/infer`).
#[derive(Serialize)]
struct SubInferRequest {
    record: SignalRecord,
    seed: u64,
    fallback: bool,
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
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = |out: &mut String, name: &str, kind: &str, value: &dyn std::fmt::Display| {
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
    };
    w(
        &mut out,
        "grafics_router_requests_total",
        "counter",
        &state.request_count(),
    );
    w(
        &mut out,
        "grafics_rate_limited_total",
        "counter",
        &state.rate_limited_count(),
    );
    w(
        &mut out,
        "grafics_router_degraded_responses_total",
        "counter",
        &state.degraded_count(),
    );
    w(
        &mut out,
        "grafics_router_scatter_gathers_total",
        "counter",
        &state.scatter_count(),
    );
    w(
        &mut out,
        "grafics_router_backend_retries_total",
        "counter",
        &state.backend_retry_count(),
    );
    w(
        &mut out,
        "grafics_router_uptime_seconds",
        "gauge",
        &state.started.elapsed().as_secs_f64(),
    );
    w(
        &mut out,
        "grafics_router_backends",
        "gauge",
        &state.backends.len(),
    );
    w(
        &mut out,
        "grafics_router_buildings",
        "gauge",
        &state.building_count(),
    );
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
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for backend in &state.backends {
            let _ = writeln!(
                out,
                "{name}{{backend=\"{}\"}} {}",
                backend.status.name(),
                value(&backend.status)
            );
        }
    }
    let _ = writeln!(out, "# TYPE grafics_router_backend_state gauge");
    for backend in &state.backends {
        let _ = writeln!(
            out,
            "grafics_router_backend_state{{backend=\"{}\",state=\"{}\"}} 1",
            backend.status.name(),
            backend.status.state().as_str()
        );
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
    let resp = Resp::json(
        200,
        &RouterStatBody {
            shards,
            backends,
            degraded,
        },
    );
    if degraded {
        resp.degraded()
    } else {
        resp
    }
}

fn route_table(state: &RouterState) -> Resp {
    match &state.index.read().unwrap().learned {
        Some((table, _)) => Resp::json(200, table),
        None => Resp::error(503, "route table not yet learned from any backend").degraded(),
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
            .degraded(),
            Err(CallError::Transport(_)) if fallback => scatter_infer(state, &record, &req),
            Err(CallError::Transport(e)) => {
                Resp::error(502, &format!("{} failed: {e}", backend_name(state, idx))).degraded()
            }
        },
        None if fallback => scatter_infer(state, &record, &req),
        None => Resp::error(422, "record overlaps no building in the fleet; discarded"),
    }
}

fn backend_name(state: &RouterState, idx: usize) -> String {
    format!("backend {}", state.backends[idx].status.name())
}

/// Fallback for one record: ask every live backend (with
/// `fallback: true` and the original stream index) and return the
/// smallest-distance answer verbatim, ties to the lowest building id —
/// the exact cross-backend composition of the single-process broadcast.
fn scatter_infer(state: &RouterState, record: &SignalRecord, req: &InferRequest) -> Resp {
    state.scatter_gathers.fetch_add(1, Ordering::Relaxed);
    let sub = SubInferRequest {
        record: record.clone(),
        seed: req.seed.unwrap_or(0),
        fallback: true,
        index: req.index.unwrap_or(0),
    };
    let Ok(sub_body) = serde_json::to_string(&sub) else {
        return Resp::error(500, "could not serialize scatter request");
    };
    let mut degraded = state.index.read().unwrap().owners.is_empty();
    let answers: Vec<Option<(u16, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..state.backends.len())
            .map(|idx| {
                let sub_body = sub_body.as_str();
                scope.spawn(move || {
                    if !state.backends[idx].status.routable() {
                        return None;
                    }
                    state
                        .call_idempotent(idx, "POST", "/v1/infer", Some(sub_body))
                        .ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
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
        Some((_, _, body)) => {
            let resp = Resp::passthrough(200, body);
            if degraded {
                resp.degraded()
            } else {
                resp
            }
        }
        None if degraded => {
            Resp::error(503, "no live backend could answer the fallback broadcast").degraded()
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

    // Fan the routed groups out in parallel, one sub-batch per backend,
    // each carrying the original stream indices.
    let group_list: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
    let group_results: Vec<Option<BatchBody>> = std::thread::scope(|scope| {
        let handles: Vec<_> = group_list
            .iter()
            .map(|(backend, positions)| {
                let records = &records;
                let indices = &indices;
                scope.spawn(move || {
                    let sub = SubBatchRequest {
                        records: positions.iter().map(|&p| records[p].clone()).collect(),
                        seed,
                        threads,
                        fallback: false,
                        indices: positions.iter().map(|&p| indices[p]).collect(),
                    };
                    let sub_body = serde_json::to_string(&sub).ok()?;
                    match state.call_idempotent(
                        *backend,
                        "POST",
                        "/v1/infer_batch",
                        Some(&sub_body),
                    ) {
                        Ok((200, resp)) => serde_json::from_str::<BatchBody>(&resp).ok(),
                        _ => None,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    for ((_, positions), result) in group_list.iter().zip(group_results) {
        match result {
            Some(batch) if batch.predictions.len() == positions.len() => {
                for (&pos, pred) in positions.iter().zip(batch.predictions) {
                    slots[pos] = pred;
                }
            }
            _ => {
                // The whole sub-batch failed: its backend is unreachable
                // or answered garbage. Degrade, and broadcast the
                // affected records if the caller allowed fallback.
                degraded = true;
                if fallback {
                    scatter.extend(positions.iter().copied());
                }
            }
        }
    }

    // Scatter-gather: broadcast the leftover records to every live
    // backend with fallback=true and merge the per-backend winners.
    if !scatter.is_empty() {
        scatter.sort_unstable();
        state.scatter_gathers.fetch_add(1, Ordering::Relaxed);
        let sub = SubBatchRequest {
            records: scatter.iter().map(|&p| records[p].clone()).collect(),
            seed,
            threads,
            fallback: true,
            indices: scatter.iter().map(|&p| indices[p]).collect(),
        };
        if let Ok(sub_body) = serde_json::to_string(&sub) {
            let answers: Vec<Option<BatchBody>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..state.backends.len())
                    .map(|idx| {
                        let sub_body = sub_body.as_str();
                        scope.spawn(move || {
                            if !state.backends[idx].status.routable() {
                                return None;
                            }
                            match state.call_idempotent(
                                idx,
                                "POST",
                                "/v1/infer_batch",
                                Some(sub_body),
                            ) {
                                Ok((200, resp)) => serde_json::from_str::<BatchBody>(&resp).ok(),
                                _ => None,
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            for answer in answers.into_iter().flatten() {
                if answer.predictions.len() != scatter.len() {
                    degraded = true;
                    continue;
                }
                for (&pos, pred) in scatter.iter().zip(answer.predictions) {
                    let Some(pred) = pred else { continue };
                    // Strict-smaller distance wins; ties keep the lowest
                    // building id — composing per-backend broadcasts to
                    // the single-process broadcast bit-for-bit.
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
    }

    let served = slots.iter().flatten().count();
    let resp = Resp::json(
        200,
        &BatchBody {
            predictions: slots,
            served,
            degraded,
        },
    );
    if degraded {
        resp.degraded()
    } else {
        resp
    }
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
        .degraded(),
        // Fail fast, state UNKNOWN: the request may have been applied
        // before the connection died. Never blindly resent.
        Err(CallError::Transport(e)) => Resp::error(
            502,
            &format!(
                "{} failed mid-absorb ({e}); applied-state unknown — audit the WAL before resending",
                backend_name(state, idx)
            ),
        )
        .degraded(),
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
            .degraded(),
            Err(CallError::Transport(e)) => Resp::error(
                502,
                &format!("{} failed mid-publish: {e}", backend_name(state, idx)),
            )
            .degraded(),
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
    let resp = Resp::json(200, &RouterPublishBody { epochs, degraded });
    if degraded {
        resp.degraded()
    } else {
        resp
    }
}

/// The bound-but-not-yet-running router (mirrors [`crate::HttpServer`]).
pub struct RouterServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<RouterState>,
    config: RouterConfig,
}

/// Shutdown handle for a running router.
#[derive(Clone)]
pub struct RouterHandle {
    state: Arc<RouterState>,
}

impl RouterHandle {
    /// Asks the router to stop accepting and drain.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What [`RouterServer::run`] reports after a graceful shutdown.
#[derive(Debug, Clone, Copy)]
pub struct RouterReport {
    /// Requests handled over the router's lifetime.
    pub requests: u64,
}

/// A router running on its own thread (from [`RouterServer::spawn`]).
pub struct RouterRunning {
    addr: SocketAddr,
    handle: RouterHandle,
    state: Arc<RouterState>,
    thread: std::thread::JoinHandle<std::io::Result<RouterReport>>,
}

impl RouterRunning {
    /// The bound listener address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown handle.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        self.handle.clone()
    }

    /// The shared router state (health/breaker/counters, for tests and
    /// embedding).
    #[must_use]
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Polls until the mirrored route index holds at least `buildings`
    /// buildings; `false` on timeout. Call after spawn so the first
    /// requests do not race the initial table fetch.
    #[must_use]
    pub fn wait_for_buildings(&self, buildings: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.state.building_count() >= buildings {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state.building_count() >= buildings
    }

    /// Graceful shutdown: stop accepting, drain, join.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's IO error.
    pub fn shutdown(self) -> std::io::Result<RouterReport> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("router thread panicked"))?
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
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
            scatter_gathers: AtomicU64::new(0),
            backend_retries: AtomicU64::new(0),
            started: Instant::now(),
        });
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
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
        RouterHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// The shared router state.
    #[must_use]
    pub fn state(&self) -> Arc<RouterState> {
        Arc::clone(&self.state)
    }

    /// Runs the prober and the accept loop until shutdown.
    ///
    /// # Errors
    ///
    /// Fatal listener errors (per-connection errors are contained).
    pub fn run(self) -> std::io::Result<RouterReport> {
        let state = self.state;
        let prober_state = Arc::clone(&state);
        let prober = std::thread::spawn(move || prober_loop(&prober_state));
        let limits = Limits {
            max_head_bytes: self.config.max_head_bytes,
            max_body_bytes: self.config.max_body_bytes,
        };
        let read_timeout = self.config.read_timeout;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn_state = Arc::clone(&state);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(stream, &conn_state, limits, read_timeout);
                    }));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    state.shutdown.store(true, Ordering::SeqCst);
                    let _ = prober.join();
                    return Err(e);
                }
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
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
        let addr = self.addr;
        let handle = self.handle();
        let state = self.state();
        let thread = std::thread::spawn(move || self.run());
        Ok(RouterRunning {
            addr,
            handle,
            state,
            thread,
        })
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

fn handle_connection(
    stream: TcpStream,
    state: &Arc<RouterState>,
    limits: Limits,
    read_timeout: Duration,
) {
    let peer = stream
        .peer_addr()
        .map_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED), |a| a.ip());
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut req = Request::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request_into(&mut reader, &mut writer, &limits, &mut req) {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => {
                if let Some((status, message)) = e.response() {
                    let body = serde_json::to_string(&serde_json::json!({ "error": message }))
                        .unwrap_or_else(|_| "{}".to_owned());
                    let _ = http::write_response(&mut writer, status, &body, false);
                }
                return;
            }
        }
        state.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        if req.path.starts_with("/v1/") {
            if let Some(limiter) = &state.limiter {
                if let Err(retry_after) = limiter.check(peer) {
                    state.rate_limited.fetch_add(1, Ordering::Relaxed);
                    let body = serde_json::to_string(
                        &serde_json::json!({ "error": "rate limit exceeded; slow down" }),
                    )
                    .unwrap_or_else(|_| "{}".to_owned());
                    let retry = retry_after.to_string();
                    if http::write_response_extra(
                        &mut writer,
                        429,
                        CONTENT_TYPE_JSON,
                        &[("Retry-After", retry.as_str())],
                        &body,
                        keep_alive,
                    )
                    .is_err()
                        || !keep_alive
                    {
                        return;
                    }
                    continue;
                }
            }
        }
        let resp = dispatch_router(state, &req.method, &req.path, &req.body, &req.authorization);
        if resp.degraded {
            state.degraded_responses.fetch_add(1, Ordering::Relaxed);
        }
        let extra: &[(&str, &str)] = if resp.degraded {
            &[("X-Grafics-Degraded", "true")]
        } else {
            &[]
        };
        if http::write_response_extra(
            &mut writer,
            resp.status,
            resp.content_type,
            extra,
            &resp.body,
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
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

    #[test]
    fn empty_backend_list_is_rejected() {
        let err = RouterServer::bind(RouterConfig::default(), "127.0.0.1:0")
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
