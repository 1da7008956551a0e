//! The JSON API over a [`FleetState`]: request/response bodies and the
//! endpoint dispatcher. Wire shapes reuse the workspace's `serde` models
//! (a record is the same `{"readings":[{"mac":…,"rssi":…}]}` JSON that
//! JSONL corpora carry), and the serving endpoints are *bit-identical*
//! to the in-process paths: `/v1/infer_batch` with seed `s` returns
//! exactly [`GraficsFleet::serve_batch`]`(records, s, threads)`, and
//! `/v1/infer` is the one-record batch (`record_rng(seed, 0)` stream).
//!
//! [`GraficsFleet::serve_batch`]: grafics_core::GraficsFleet::serve_batch

use crate::state::FleetState;
use grafics_core::{FleetError, FleetPrediction, RouterKind, WeightFunction};
use grafics_types::{BuildingId, SignalRecord};
use serde::{Deserialize, Serialize};

/// One served prediction on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionBody {
    /// The shard that answered.
    pub building: u32,
    /// Predicted floor number (ground floor 0, basements negative).
    pub floor: i16,
    /// Human-readable floor name (`"GF"`, `"2F"`, `"B1"`).
    pub floor_name: String,
    /// ℓ2 distance to the winning centroid.
    pub distance: f64,
    /// Distance gap to the nearest different-floor cluster — `None` on
    /// single-floor shards, where the in-process margin is `+∞` (JSON
    /// has no infinities; `null` keeps the typed body deserializable).
    pub margin: Option<f64>,
}

impl From<&FleetPrediction> for PredictionBody {
    fn from(p: &FleetPrediction) -> Self {
        PredictionBody {
            building: p.building.0,
            floor: p.floor.0,
            floor_name: p.floor.to_string(),
            distance: p.distance,
            margin: p.margin.is_finite().then_some(p.margin),
        }
    }
}

/// `POST /v1/infer_batch` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchBody {
    /// One slot per input record, in order; `null` where the record
    /// could not be routed or embedded.
    pub predictions: Vec<Option<PredictionBody>>,
    /// Count of non-null predictions.
    pub served: usize,
    /// `true` when part of the fleet was unreachable while answering —
    /// a router with Down backends excluded their shards, so `null`
    /// slots may be transient. A single process always has the full
    /// fleet in view and answers `false`.
    pub degraded: bool,
}

/// One shard's routing inventory in a `GET /v1/route_table` response:
/// enough for a router tier to reproduce this fleet's routing decision
/// bit-for-bit without holding any model state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTableEntry {
    /// The building this inventory belongs to.
    pub building: u32,
    /// The shard's publish epoch when the table was taken (a router can
    /// poll `/v1/stat` epochs to notice staleness).
    pub epoch: u64,
    /// The published AP inventory: every MAC the fleet router would
    /// count as an overlap, as raw 48-bit values, ascending.
    pub macs: Vec<u64>,
    /// The weight function of the shard's graph — what
    /// `WeightedOverlap` routing scores with.
    pub weight: WeightFunction,
}

/// `GET /v1/route_table` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTableBody {
    /// Which routing rule this fleet applies.
    pub router: RouterKind,
    /// Per-shard inventories, ascending by building id.
    pub shards: Vec<RouteTableEntry>,
}

/// `POST /v1/absorb` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbsorbBody {
    /// The shard that absorbed the record.
    pub building: u32,
    /// The record's id inside that shard (feeds retention bookkeeping).
    pub record_id: u32,
    /// Zero-based process-wide absorb sequence number (the RNG stream
    /// index of this absorb).
    pub seq: u64,
    /// Absorbs pending publish on that shard, after this one.
    pub pending: usize,
}

/// One `(building, epoch)` pair in a `POST /v1/publish` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochBody {
    /// The published shard.
    pub building: u32,
    /// Its publish epoch after the call.
    pub epoch: u64,
}

/// `POST /v1/publish` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishBody {
    /// The shards published by this call, ascending by building id.
    pub epochs: Vec<EpochBody>,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// `true` when the server is fully up; `false` (with a 503) while
    /// crash-recovery replay is still in progress.
    pub ok: bool,
    /// `"ok"`, or `"degraded"` during recovery replay.
    pub status: String,
    /// Shards in the served fleet.
    pub shards: usize,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Requests handled so far.
    pub requests: u64,
    /// Records absorbed so far.
    pub absorbs: u64,
}

/// `POST /v1/infer` request.
#[derive(Deserialize)]
pub struct InferRequest {
    /// The scan to serve.
    pub record: SignalRecord,
    /// RNG stream base seed (default 0).
    pub seed: Option<u64>,
    /// Router tier only: scatter the record across the live backends
    /// when the router finds no owner for it or the owner fails. A
    /// backend ignores it.
    pub fallback: Option<bool>,
    /// RNG stream index for the record (default 0). A router forwarding
    /// record `i` of a batch sets `i` so the answer is bit-identical to
    /// the single-process batch.
    pub index: Option<u64>,
}

/// `POST /v1/infer_batch` request.
#[derive(Deserialize)]
pub struct InferBatchRequest {
    /// The scans to serve, answered in order.
    pub records: Vec<SignalRecord>,
    /// RNG stream base seed (default 0).
    pub seed: Option<u64>,
    /// Worker threads for this batch (clamped to 1..=16).
    pub threads: Option<usize>,
    /// Router tier only, as in [`InferRequest::fallback`].
    pub fallback: Option<bool>,
    /// Per-record RNG stream indices (default `0..records.len()`). Set
    /// by a router splitting one logical batch across backends.
    pub indices: Option<Vec<u64>>,
}

/// `POST /v1/absorb` request.
#[derive(Deserialize)]
pub struct AbsorbRequest {
    /// The scan to absorb.
    pub record: SignalRecord,
    /// Absorb into this building, bypassing the router.
    pub building: Option<u32>,
}

/// `POST /v1/publish` request.
#[derive(Deserialize)]
pub struct PublishRequest {
    /// Publish only this building (default: every shard).
    pub building: Option<u32>,
}

/// An HTTP `(status, JSON body)` pair.
pub type ApiResult = (u16, String);

/// JSON responses (every endpoint except `/metrics`).
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The `/metrics` plaintext exposition format.
pub const CONTENT_TYPE_TEXT: &str = "text/plain; version=0.0.4";

fn json_body<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "{}".to_owned())
}

/// Serializes into the reused response buffer; returns the status.
fn json_into<T: Serialize>(status: u16, value: &T, out: &mut String) -> u16 {
    if serde_json::to_string_into(value, out).is_err() {
        out.clear();
        out.push_str("{}");
    }
    status
}

pub(crate) fn error_body(status: u16, message: &str) -> ApiResult {
    (status, json_body(&serde_json::json!({ "error": message })))
}

/// Copies a cold-path error result into the reused buffer.
fn fill((status, body): ApiResult, out: &mut String) -> u16 {
    out.clear();
    out.push_str(&body);
    status
}

pub(crate) fn parse_json<T: serde::Deserialize>(body: &[u8]) -> Result<T, ApiResult> {
    let text =
        std::str::from_utf8(body).map_err(|_| error_body(400, "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| error_body(400, &format!("invalid JSON: {e}")))
}

/// Re-validates a record that arrived over the wire (derived `serde`
/// bypasses [`SignalRecord::new`]'s sort/dedup/non-empty invariants).
pub(crate) fn sanitize(record: &SignalRecord) -> Result<SignalRecord, ApiResult> {
    SignalRecord::new(record.readings().to_vec())
        .map_err(|e| error_body(400, &format!("invalid record: {e}")))
}

/// What a handled request touched, for the structured access log: the
/// shard that answered (when one did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// The shard that answered/absorbed, if the endpoint resolved one.
    pub shard: Option<u32>,
}

/// Constant-time bearer-token check: `authorization` must be exactly
/// `Bearer <token>`. The comparison XOR-folds over every byte of both
/// strings (padded to the longer length) so a mismatch at byte 0 and a
/// mismatch at byte N take the same time — no prefix oracle.
#[must_use]
pub fn bearer_token_matches(authorization: &str, token: &str) -> bool {
    let presented = authorization.strip_prefix("Bearer ").unwrap_or("");
    let a = presented.as_bytes();
    let b = token.as_bytes();
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Routes one request to its handler, writing the response into a
/// caller-owned buffer (cleared first): a worker reuses one buffer across
/// every request of a keep-alive connection, so the hot serving endpoints
/// allocate no response string per request. Returns `(status, content
/// type)`. Unknown paths get 404; known paths with the wrong method get
/// 405. Also feeds the per-endpoint counters behind `/metrics`.
#[must_use]
pub fn dispatch_into(
    state: &FleetState,
    method: &str,
    path: &str,
    body: &[u8],
    out: &mut String,
) -> (u16, &'static str) {
    let mut meta = RequestMeta::default();
    dispatch_meta(state, method, path, body, "", out, &mut meta)
}

/// [`dispatch_into`] that also reports [`RequestMeta`] — what the access
/// log wants to know beyond the status — and enforces bearer-token auth
/// on the write endpoints when the state carries a token
/// (`authorization` is the request's `Authorization` header verbatim,
/// `""` when absent).
#[must_use]
pub fn dispatch_meta(
    state: &FleetState,
    method: &str,
    path: &str,
    body: &[u8],
    authorization: &str,
    out: &mut String,
    meta: &mut RequestMeta,
) -> (u16, &'static str) {
    out.clear();
    *meta = RequestMeta::default();
    state.endpoints().count(path);
    // Writes mutate fleet state; when a token is configured they must
    // present it. Reads stay open — probers and dashboards keep working.
    if matches!(path, "/v1/absorb" | "/v1/publish")
        && state
            .auth_token()
            .is_some_and(|token| !bearer_token_matches(authorization, token))
    {
        let status = fill(
            error_body(401, "missing or invalid bearer token on a write endpoint"),
            out,
        );
        return (status, CONTENT_TYPE_JSON);
    }
    let status = match (method, path) {
        ("GET", "/healthz") => healthz(state, out),
        ("GET", "/metrics") => return (metrics(state, out), CONTENT_TYPE_TEXT),
        ("GET", "/v1/stat") => json_into(200, &state.fleet().stats(), out),
        ("GET", "/v1/route_table") => route_table(state, out),
        ("POST", "/v1/infer") => infer(state, body, out, meta).unwrap_or_else(|e| fill(e, out)),
        ("POST", "/v1/infer_batch") => {
            infer_batch(state, body, out).unwrap_or_else(|e| fill(e, out))
        }
        ("POST", "/v1/absorb") => absorb(state, body, out, meta).unwrap_or_else(|e| fill(e, out)),
        ("POST", "/v1/publish") => publish(state, body, out).unwrap_or_else(|e| fill(e, out)),
        (
            _,
            "/healthz" | "/metrics" | "/v1/stat" | "/v1/route_table" | "/v1/infer"
            | "/v1/infer_batch" | "/v1/absorb" | "/v1/publish",
        ) => fill(error_body(405, &format!("{method} not allowed here")), out),
        _ => fill(error_body(404, &format!("no route for {path}")), out),
    };
    (status, CONTENT_TYPE_JSON)
}

/// `GET /v1/route_table`: the fleet's routing rule plus each shard's
/// published AP inventory — what a router tier mirrors to route without
/// models.
fn route_table(state: &FleetState, out: &mut String) -> u16 {
    let fleet = state.fleet();
    let router = fleet.manifest().router;
    let mut shards = Vec::with_capacity(fleet.len());
    for (id, snap) in fleet.snapshots() {
        let graph = snap.graph();
        let mut macs: Vec<u64> = graph.macs().map(grafics_types::MacAddr::as_u64).collect();
        macs.sort_unstable();
        shards.push(RouteTableEntry {
            building: id.0,
            epoch: fleet.shard(id).map_or(0, |s| s.epoch()),
            macs,
            weight: graph.weight_function(),
        });
    }
    json_into(200, &RouteTableBody { router, shards }, out)
}

fn healthz(state: &FleetState, out: &mut String) -> u16 {
    // Degraded while recovery replay is still running: load balancers
    // should hold traffic until the durable state is fully restored.
    let recovering = state.is_recovering();
    json_into(
        if recovering { 503 } else { 200 },
        &HealthBody {
            ok: !recovering,
            status: if recovering { "degraded" } else { "ok" }.to_owned(),
            shards: state.fleet().len(),
            uptime_secs: state.uptime_secs(),
            requests: state.request_count(),
            absorbs: state.absorb_count(),
        },
        out,
    )
}

/// `GET /metrics`: the Prometheus-style plaintext exposition of the
/// serving counters, sharing [`FleetStats`](grafics_core::FleetStats)
/// with `/v1/stat` and `grafics fleet stat` — requests served, absorbs,
/// publish epochs, per-endpoint request counters, and per-shard gauges.
fn metrics(state: &FleetState, out: &mut String) -> u16 {
    use std::fmt::Write as _;
    let stats = state.fleet().stats();
    let w = |out: &mut String, name: &str, kind: &str, value: &dyn std::fmt::Display| {
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
    };
    w(
        out,
        "grafics_requests_total",
        "counter",
        &state.request_count(),
    );
    w(
        out,
        "grafics_absorbs_total",
        "counter",
        &state.absorb_count(),
    );
    w(
        out,
        "grafics_publish_epochs_total",
        "counter",
        &stats.total_epochs(),
    );
    w(out, "grafics_uptime_seconds", "gauge", &state.uptime_secs());
    w(out, "grafics_shards", "gauge", &stats.shards.len());
    w(
        out,
        "grafics_resident_records",
        "gauge",
        &stats.total_resident_records(),
    );
    w(
        out,
        "grafics_pending_absorbs",
        "gauge",
        &stats.total_pending(),
    );
    let wal = state.fleet().wal_stats();
    w(out, "grafics_wal_appends_total", "counter", &wal.appends);
    w(out, "grafics_wal_fsyncs_total", "counter", &wal.fsyncs);
    w(out, "grafics_wal_tail_bytes", "gauge", &wal.tail_bytes);
    // Serving-path refinement counters (adaptive budget + f32 matching).
    let serve = state.fleet().serve_counters();
    w(
        out,
        "grafics_serve_refine_samples_total",
        "counter",
        &serve.refine_samples,
    );
    w(
        out,
        "grafics_serve_early_stops_total",
        "counter",
        &serve.early_stops,
    );
    w(
        out,
        "grafics_match_f32_fallbacks_total",
        "counter",
        &serve.f32_fallbacks,
    );
    // Floor-margin drift gauges: low quantiles of the recently served
    // margin distribution, the signal behind `RefreshTrigger::MarginDrop`.
    // Window follows the configured trigger (default 256). Exported as 0
    // until anything has been served so the names are always present.
    let window = state
        .fleet()
        .maintenance()
        .effective_trigger()
        .map_or(grafics_core::DEFAULT_MARGIN_WINDOW, |t| t.window());
    let (margin_p10, margin_p50) = state.fleet().margin_quantiles(window).unwrap_or((0.0, 0.0));
    w(out, "grafics_margin_p10", "gauge", &margin_p10);
    w(out, "grafics_margin_p50", "gauge", &margin_p50);
    w(
        out,
        "grafics_recoveries_total",
        "counter",
        &state.recovery_count(),
    );
    let _ = writeln!(out, "# TYPE grafics_requests counter");
    for (endpoint, count) in state.endpoints().snapshot() {
        let _ = writeln!(out, "grafics_requests{{endpoint=\"{endpoint}\"}} {count}");
    }
    let _ = writeln!(out, "# TYPE grafics_shard_records gauge");
    for shard in &stats.shards {
        let _ = writeln!(
            out,
            "grafics_shard_records{{building=\"{}\"}} {}",
            shard.building, shard.resident_records
        );
    }
    200
}

fn infer(
    state: &FleetState,
    body: &[u8],
    out: &mut String,
    meta: &mut RequestMeta,
) -> Result<u16, ApiResult> {
    let req: InferRequest = parse_json(body)?;
    let record = sanitize(&req.record)?;
    let seed = req.seed.unwrap_or(0);
    let records = [record];
    let indices = [req.index.unwrap_or(0)];
    let preds = state
        .fleet()
        .serve_batch_indexed(&records, &indices, seed, 1);
    match &preds[0] {
        Some(p) => {
            meta.shard = Some(p.building.0);
            Ok(json_into(200, &PredictionBody::from(p), out))
        }
        None => Err(error_body(
            422,
            "record overlaps no building in the fleet; discarded",
        )),
    }
}

fn infer_batch(state: &FleetState, body: &[u8], out: &mut String) -> Result<u16, ApiResult> {
    let req: InferBatchRequest = parse_json(body)?;
    let mut records = Vec::with_capacity(req.records.len());
    for r in &req.records {
        records.push(sanitize(r)?);
    }
    let seed = req.seed.unwrap_or(0);
    // The worker thread answering this request fans the batch out on the
    // shared rayon pool; the cap keeps one request from claiming an
    // unbounded number of workers.
    let threads = req.threads.unwrap_or(1).clamp(1, 16);
    if req
        .indices
        .as_ref()
        .is_some_and(|idx| idx.len() != records.len())
    {
        return Err(error_body(400, "indices length must match records length"));
    }
    let fleet = state.fleet();
    let preds = match &req.indices {
        Some(idx) => fleet.serve_batch_indexed(&records, idx, seed, threads),
        None => fleet.serve_batch(&records, seed, threads),
    };
    let predictions: Vec<Option<PredictionBody>> = preds
        .iter()
        .map(|p| p.as_ref().map(PredictionBody::from))
        .collect();
    let served = predictions.iter().flatten().count();
    Ok(json_into(
        200,
        &BatchBody {
            predictions,
            served,
            degraded: false,
        },
        out,
    ))
}

fn absorb(
    state: &FleetState,
    body: &[u8],
    out: &mut String,
    meta: &mut RequestMeta,
) -> Result<u16, ApiResult> {
    let req: AbsorbRequest = parse_json(body)?;
    let record = sanitize(&req.record)?;
    let seq = state.next_absorb_seq();
    // The durable path: journals the absorb before acknowledging when
    // the fleet has a WAL attached, and *is* the plain deterministic
    // absorb (same `record_rng(seed, seq)` stream) when it does not.
    let outcome = match req.building {
        Some(b) => state
            .fleet()
            .absorb_to_durable(BuildingId(b), &record, state.seed(), seq)
            .map(|rid| (BuildingId(b), rid)),
        None => state.fleet().absorb_durable(&record, state.seed(), seq),
    };
    let (building, rid) = outcome.map_err(|e| match e {
        FleetError::UnknownBuilding(_) => error_body(404, &e.to_string()),
        // A poisoned WAL must not acknowledge absorbs it cannot journal.
        FleetError::Durability(_) => error_body(503, &e.to_string()),
        _ => error_body(422, &e.to_string()),
    })?;
    meta.shard = Some(building.0);
    state.count_absorb_accepted();
    let pending = state
        .fleet()
        .shard(building)
        .map_or(0, |s| s.stats().pending);
    // Wake the maintenance daemon as soon as a publish threshold is
    // crossed, instead of waiting out its poll tick.
    if state
        .fleet()
        .maintenance()
        .publish_after_absorbs
        .is_some_and(|n| n > 0 && pending >= n)
    {
        state.cadence().notify();
    }
    Ok(json_into(
        200,
        &AbsorbBody {
            building: building.0,
            record_id: rid.0,
            seq,
            pending,
        },
        out,
    ))
}

fn publish(state: &FleetState, body: &[u8], out: &mut String) -> Result<u16, ApiResult> {
    let req: PublishRequest = if body.is_empty() {
        PublishRequest { building: None }
    } else {
        parse_json(body)?
    };
    let mut epochs = Vec::new();
    match req.building {
        Some(b) => {
            let shard = state
                .fleet()
                .shard(BuildingId(b))
                .ok_or_else(|| error_body(404, &format!("no shard for building b{b}")))?;
            epochs.push(EpochBody {
                building: b,
                epoch: shard.publish(),
            });
        }
        None => {
            for shard in state.fleet().shards() {
                epochs.push(EpochBody {
                    building: shard.id().0,
                    epoch: shard.publish(),
                });
            }
        }
    }
    Ok(json_into(200, &PublishBody { epochs }, out))
}
