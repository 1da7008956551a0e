//! The threaded HTTP server over a [`GraficsFleet`]: the shared
//! [`transport`](crate::transport) core (accept loop, bounded queue,
//! worker pool, graceful drain) answering through [`api::dispatch_meta`],
//! with a [`MaintenanceDaemon`] alongside. On SIGINT/SIGTERM (when
//! enabled) or [`ServerHandle::shutdown`], queued and in-flight requests
//! are answered (`Connection: close`), the WAL tail is made durable, and
//! `run` returns a [`ServeReport`].

use crate::api;
use crate::daemon::MaintenanceDaemon;
use crate::http::{Limits, Request};
use crate::state::FleetState;
use crate::transport::{self, sig, Reply, Running, ServerHandle, Service, Transport};
use grafics_core::GraficsFleet;
use std::io::{BufWriter, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults suit a small deployment (and the
/// tests/benches); the CLI maps flags onto them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections. Each worker owns one
    /// connection at a time (keep-alive), so this is also the concurrent
    /// connection limit being *served*; further connections wait in the
    /// accept queue.
    pub workers: usize,
    /// Bounded depth of the accepted-connection queue. When full, the
    /// accept loop stops pulling from the listener backlog — TCP
    /// backpressure, not unbounded memory.
    pub queue_depth: usize,
    /// Maximum request-head bytes (431 beyond).
    pub max_head_bytes: usize,
    /// Maximum request-body bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// closed after this long, freeing its worker.
    pub read_timeout: Duration,
    /// Base seed of the `/v1/absorb` RNG streams (absorb `i` draws from
    /// `record_rng(seed, i)`) and of the daemon's refresh RNG.
    pub seed: u64,
    /// Poll tick of the maintenance daemon's timed knobs.
    pub maintenance_tick: Duration,
    /// Install a SIGINT/SIGTERM handler that drains and exits (the CLI
    /// sets this; tests shut down via [`ServerHandle`] instead).
    pub handle_signals: bool,
    /// Structured access log: one JSON line per request (endpoint,
    /// method, status, latency µs, answering shard)
    /// appended to this file. `None` disables logging entirely.
    pub access_log: Option<PathBuf>,
    /// Bearer token required on `/v1/absorb` and `/v1/publish` (401
    /// without it, constant-time compare). `None` leaves writes open.
    pub auth_token: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 4 << 20,
            read_timeout: Duration::from_secs(30),
            seed: 0,
            maintenance_tick: Duration::from_millis(100),
            handle_signals: false,
            access_log: None,
            auth_token: None,
        }
    }
}

/// What the server did over its lifetime, returned by
/// [`HttpServer::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Records absorbed through `/v1/absorb`.
    pub absorbs: u64,
    /// Publishes performed by the maintenance daemon.
    pub maintenance_publishes: u64,
    /// Write-side refreshes performed by the maintenance daemon.
    pub maintenance_refreshes: u64,
}

/// A server running on a background thread (tests, benches, smoke
/// tools).
pub type RunningServer = Running<FleetState, ServeReport>;

/// A bound-but-not-yet-running HTTP server over a [`GraficsFleet`].
pub struct HttpServer {
    listener: TcpListener,
    state: Arc<FleetState>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:8080"`, port `0` for ephemeral)
    /// and wraps `fleet` for serving. Nothing runs until
    /// [`HttpServer::run`] / [`HttpServer::spawn`].
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind<A: ToSocketAddrs>(
        fleet: GraficsFleet,
        addr: A,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = transport::bind(addr)?;
        let mut state = FleetState::new(fleet, config.seed);
        state.set_auth_token(config.auth_token.clone());
        Ok(HttpServer {
            listener,
            state: Arc::new(state),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle, usable from any thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(&self.shutdown)
    }

    /// The shared serving state (fleet access, counters).
    #[must_use]
    pub fn state(&self) -> &Arc<FleetState> {
        &self.state
    }

    /// Runs the accept loop on the calling thread until shutdown, then
    /// drains: queued connections get their current request answered
    /// with `Connection: close`, workers and the daemon are joined, and
    /// the WAL tail is made durable.
    ///
    /// # Errors
    ///
    /// Opening the access log, or the final WAL drain.
    pub fn run(self) -> std::io::Result<ServeReport> {
        if self.config.handle_signals {
            sig::install();
        }
        // Before the daemon spawns: an error here can still early-return
        // without leaking it.
        let access_log = match &self.config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        let daemon = MaintenanceDaemon::spawn(
            Arc::clone(&self.state),
            self.state.fleet().maintenance(),
            self.config.maintenance_tick,
            self.config.seed,
        );
        let config = &self.config;
        let pool = Transport {
            workers: config.workers,
            queue_depth: config.queue_depth,
            limits: Limits {
                max_head_bytes: config.max_head_bytes,
                max_body_bytes: config.max_body_bytes,
            },
            read_timeout: config.read_timeout,
        };
        let service = FleetService {
            state: &self.state,
            access_log: access_log.as_ref(),
        };
        transport::run(&self.listener, &pool, &self.shutdown, &service);
        let maintenance = daemon.stop();
        if let Some(log) = &access_log {
            log.flush();
        }
        // The durability contract's last step: every acknowledged absorb
        // is on disk before the process exits. A failure here is loud —
        // exiting quietly would silently demote acknowledged durability.
        self.state
            .fleet()
            .drain_wal()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(ServeReport {
            requests: self.state.request_count(),
            absorbs: self.state.absorb_count(),
            maintenance_publishes: maintenance.publishes,
            maintenance_refreshes: maintenance.refreshes,
        })
    }

    /// [`HttpServer::run`] on a background thread; returns once the
    /// socket is accepting.
    ///
    /// # Errors
    ///
    /// Propagates the `local_addr` error.
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let (handle, state) = (self.handle(), Arc::clone(&self.state));
        Ok(Running::spawn(addr, handle, state, move || self.run()))
    }
}

/// The fleet API behind the transport, plus the optional access log.
struct FleetService<'a> {
    state: &'a FleetState,
    access_log: Option<&'a AccessLog>,
}

impl Service for FleetService<'_> {
    fn count_request(&self) {
        self.state.count_request();
    }

    fn dispatch(&self, req: &Request, _peer: IpAddr, body: &mut String) -> Reply {
        let started = Instant::now();
        let mut meta = api::RequestMeta::default();
        let (status, content_type) = api::dispatch_meta(
            self.state,
            &req.method,
            &req.path,
            &req.body,
            &req.authorization,
            body,
            &mut meta,
        );
        if let Some(log) = self.access_log {
            log.record(&req.method, &req.path, status, started.elapsed(), meta);
        }
        Reply {
            status,
            content_type,
            header: None,
        }
    }
}

/// The structured access log: one JSON line per handled request,
/// appended through a shared buffered writer. Logging is off the
/// durability path — a failed write drops the line rather than failing
/// the request.
struct AccessLog {
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl AccessLog {
    fn open(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AccessLog {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    fn record(
        &self,
        method: &str,
        path: &str,
        status: u16,
        latency: Duration,
        meta: api::RequestMeta,
    ) {
        let line = serde_json::json!({
            "method": method,
            "endpoint": path,
            "status": status,
            "latency_us": u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
            "shard": meta.shard,
        });
        let Ok(text) = serde_json::to_string(&line) else {
            return;
        };
        let mut w = self.writer.lock().expect("access log");
        let _ = writeln!(w, "{text}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("access log").flush();
    }
}
