//! `grafics-serve` — the network front end over a
//! [`GraficsFleet`](grafics_core::GraficsFleet): a std-only threaded
//! HTTP/1.1 server (no async runtime — every dependency in this build is
//! vendored) plus a background [`MaintenanceDaemon`] that owns the
//! publish/refresh cadence. This is what turns the repository from a
//! library into a deployable service: `grafics fleet serve --http ADDR`.
//!
//! # Endpoints
//!
//! | method | path | body | answer |
//! |---|---|---|---|
//! | `POST` | `/v1/infer` | `{"record": {...}, "seed"?, "index"?}` | building, floor, distance, margin |
//! | `POST` | `/v1/infer_batch` | `{"records": [...], "seed"?, "threads"?, "indices"?}` | one slot per record |
//! | `POST` | `/v1/absorb` | `{"record": {...}, "building"?}` | routed building, record id, pending |
//! | `POST` | `/v1/publish` | `{"building"?}` or empty | new epochs |
//! | `GET` | `/v1/stat` | — | [`FleetStats`](grafics_core::FleetStats) |
//! | `GET` | `/healthz` | — | liveness + counters (503 `degraded` during recovery) |
//! | `GET` | `/metrics` | — | Prometheus-style counters, incl. `wal_*` and `recoveries_total` |
//!
//! When the fleet manifest carries a non-`Off`
//! [`DurabilityPolicy`](grafics_core::DurabilityPolicy), `/v1/absorb`
//! journals every accepted record to the per-shard write-ahead log
//! before acknowledging it, and a poisoned WAL turns absorbs into 503s
//! rather than acknowledging records it cannot make durable. Graceful
//! shutdown drains and fsyncs the WAL tail before `run` returns. With
//! `ServeConfig::access_log` set, every request appends one JSON line
//! (endpoint, method, status, latency µs, shard).
//!
//! A record that overlaps no shard's AP inventory is answered 422 (a
//! `null` slot in a batch): no shard could embed it. The `"fallback"`
//! request flag is read only by the [`router`] tier, which scatters
//! across backends when it finds no owner or the owner fails; a backend
//! ignores it.
//!
//! Serving is **bit-identical to the in-process engine**: an
//! `/v1/infer_batch` call with seed `s` returns exactly
//! `GraficsFleet::serve_batch(records, s, threads)` (the floats survive
//! the JSON hop unchanged — the writer prints shortest-roundtrip
//! representations), and `/v1/infer` is the one-record batch. Absorbs
//! draw from the deterministic per-sequence streams `record_rng(seed,
//! i)`, so a replayed absorb log reproduces the same write-side state.
//!
//! # Architecture
//!
//! ```text
//!            accept loop (nonblocking, shutdown-aware)
//!                 │ bounded ConnQueue (backpressure)
//!        ┌────────┼──────────┐
//!    worker₁  worker₂ …  workerₙ     each: keep-alive request loop
//!        │        │          │        → api::dispatch_meta → GraficsFleet
//!        └────────┴──────────┘
//!    MaintenanceDaemon: publish after N absorbs / T secs,
//!                       refresh write side every K publishes
//! ```
//!
//! The accept loop, queue, worker pool, request loop, and drain are one
//! transport core shared with the [`RouterServer`]; each server supplies
//! only what to answer for a parsed request.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`], or SIGINT/SIGTERM when
//! [`ServeConfig::handle_signals`] is set) stops accepting, answers
//! everything queued and in flight with `Connection: close`, then joins
//! workers and daemon.
//!
//! # Example
//!
//! ```
//! use grafics_core::{Grafics, GraficsConfig, GraficsFleet};
//! use grafics_data::BuildingModel;
//! use grafics_serve::{HttpClient, HttpServer, ServeConfig};
//! use grafics_types::BuildingId;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let ds = BuildingModel::office("hq", 2).with_records_per_floor(30).simulate(&mut rng);
//! let train = ds.with_label_budget(4, &mut rng);
//! let model = Grafics::train(&train, &GraficsConfig::fast(), &mut rng).unwrap();
//! let mut fleet = GraficsFleet::new();
//! fleet.add_shard(BuildingId(0), model).unwrap();
//!
//! let server = HttpServer::bind(fleet, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let running = server.spawn().unwrap();
//! let mut client = HttpClient::connect(running.addr()).unwrap();
//! let (status, body) = client.get("/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\":true"));
//! running.shutdown().unwrap();
//! ```

#![deny(unsafe_code)] // one documented exception: the SIGINT hook in `transport::sig`
#![warn(missing_docs)]

pub mod api;
pub mod chaos;
mod client;
mod daemon;
pub mod health;
pub mod http;
pub mod router;
mod server;
mod state;
mod transport;

pub use api::{
    AbsorbBody, BatchBody, EpochBody, HealthBody, PredictionBody, PublishBody, RequestMeta,
    RouteTableBody, RouteTableEntry,
};
pub use chaos::{ChaosProxy, Fault};
pub use client::HttpClient;
pub use daemon::{MaintenanceDaemon, MaintenanceReport};
pub use health::{BackendStatus, Breaker, ProbeOutcome};
pub use router::{
    RouterConfig, RouterHandle, RouterReport, RouterRunning, RouterServer, RouterState,
};
pub use server::{HttpServer, RunningServer, ServeConfig, ServeReport};
pub use state::{CadenceSignal, FleetState};
pub use transport::{Running, ServerHandle};
