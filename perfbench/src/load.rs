//! The load generator: one closed-loop keep-alive HTTP client at a time,
//! on the calling thread. It sends its next request only after the
//! previous answer arrived, so the offered load adapts to the server.
//! Client retries are off: a transport error is a failed operation.

use crate::report::{median, quantile};
use crate::trace;
use grafics_core::FleetPrediction;
use grafics_serve::{AbsorbBody, HttpClient, PredictionBody};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1 << 32);

/// A fresh request id for spans of load-generator requests.
fn request_id() -> u64 {
    REQUEST_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Opens a keep-alive connection with retries off.
pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.set_retry_policy(0, Duration::from_millis(1));
    Ok(client)
}

/// Polls `GET /healthz` on fresh connections until it answers 200, then
/// closes the connection so it does not pin a server worker.
pub fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut client) = connect(addr) {
            if let Ok((200, _)) = client.get("/healthz") {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `POST /v1/infer` body for scan `index` of the reference batch.
pub fn infer_body(record: &grafics_types::SignalRecord, seed: u64, index: usize) -> String {
    format!(
        "{{\"record\":{},\"seed\":{seed},\"index\":{index}}}",
        serde_json::to_string(record).expect("records serialize")
    )
}

/// The `POST /v1/absorb` body for a scan of a known building.
pub fn absorb_body(record: &grafics_types::SignalRecord, building: u32) -> String {
    format!(
        "{{\"record\":{},\"building\":{building}}}",
        serde_json::to_string(record).expect("records serialize")
    )
}

/// What a served answer must match.
#[derive(Clone, Copy)]
pub enum Expect<'a> {
    /// Bit-identical to the in-process `serve_batch` slot of the same
    /// `(seed, index)`: building, floor and `distance.to_bits()`.
    Slot(&'a [Option<FleetPrediction>]),
    /// Served by the scan's own building (the model may change under
    /// concurrent absorbs and publishes, so only the routing is fixed).
    Building(&'a [u32]),
}

impl Expect<'_> {
    /// Checks one answer to the request for scan `index`.
    pub fn check(&self, index: usize, status: u16, body: &str) -> Result<(), String> {
        match self {
            Expect::Slot(reference) => match (&reference[index], status) {
                (None, 422) => Ok(()),
                (Some(want), 200) => {
                    let got: PredictionBody = serde_json::from_str(body)
                        .map_err(|e| format!("scan {index}: bad body {e}"))?;
                    if got.building == want.building.0
                        && got.floor == want.floor.0
                        && got.distance.to_bits() == want.distance.to_bits()
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "scan {index}: answered b{} f{} d={} but serve_batch gives b{} f{} d={}",
                            got.building, got.floor, got.distance, want.building.0, want.floor.0, want.distance
                        ))
                    }
                }
                (want, status) => Err(format!(
                    "scan {index}: status {status} ({body}) where serve_batch gives {want:?}"
                )),
            },
            Expect::Building(buildings) => {
                if status != 200 {
                    return Err(format!("scan {index}: status {status} ({body})"));
                }
                let got: PredictionBody = serde_json::from_str(body)
                    .map_err(|e| format!("scan {index}: bad body {e}"))?;
                if got.building == buildings[index] {
                    Ok(())
                } else {
                    Err(format!(
                        "scan {index}: served by b{} instead of b{}",
                        got.building, buildings[index]
                    ))
                }
            }
        }
    }
}

/// What one phase observed inside its measured window.
#[derive(Debug, Default)]
pub struct Phase {
    /// Round trips in µs of every operation sent inside the window that
    /// succeeded.
    latencies: Vec<f64>,
    /// Per scan (its index in the workload's scans), the fastest measured
    /// round trip in µs; infinite for a scan not measured yet.
    best: Vec<f64>,
    /// Operations sent inside the window, plus every failed one.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Successful operations, warm-up included.
    pub acked: u64,
    /// Steps run, warm-up included: where the next phase over the same
    /// inputs continues.
    pub steps: usize,
}

impl Phase {
    fn succeed(&mut self, measured: bool, index: usize, micros: f64) {
        self.acked += 1;
        if measured {
            self.attempted += 1;
            self.latencies.push(micros);
            if self.best.len() <= index {
                self.best.resize(index + 1, f64::INFINITY);
            }
            self.best[index] = self.best[index].min(micros);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds a round measured after this one.
    pub fn merge(&mut self, other: Phase) {
        if self.best.len() < other.best.len() {
            self.best.resize(other.best.len(), f64::INFINITY);
        }
        for (mine, theirs) in self.best.iter_mut().zip(other.best) {
            *mine = mine.min(theirs);
        }
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked += other.acked;
        self.steps += other.steps;
        for why in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Round trips in µs of the measured operations.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// The median over scans of each scan's fastest round trip: what the
    /// operation costs when the host lets it run, whatever the
    /// neighbours' load did to the rest of the run.
    pub fn best_p50(&self) -> f64 {
        let measured: Vec<f64> = self
            .best
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .collect();
        median(&measured)
    }

    pub fn p99(&self) -> f64 {
        quantile(&self.latencies, 0.99)
    }
}

/// Timing of one closed-loop phase: operations in the warm-up are sent
/// and checked but not measured.
#[derive(Clone, Copy)]
pub struct Window {
    pub warmup: Duration,
    pub measure: Duration,
}

/// One closed-loop client on the calling thread until the window ends:
/// it opens its connection with `open` and performs steps `first, first +
/// 1, …` with `op`, step `k` on scan `order[k % order.len()]`, each inside
/// a span named `span`; after a failed step it reopens the connection,
/// which may have died. One client at a time keeps at most two threads
/// (client and server worker) runnable, one per core of the two-core
/// machine the benchmark is sized for.
pub fn closed_loop<C>(
    order: &[usize],
    first: usize,
    window: Window,
    span: &'static str,
    open: impl Fn() -> Result<C, String>,
    op: impl Fn(&mut C, usize, usize) -> Result<(), String>,
) -> Phase {
    let measure_from = Instant::now() + window.warmup;
    let stop = measure_from + window.measure;
    let mut phase = Phase::default();
    let mut conn = match open() {
        Ok(conn) => conn,
        Err(why) => {
            phase.fail(why);
            return phase;
        }
    };
    let mut step = first;
    loop {
        let sent = Instant::now();
        if sent >= stop {
            break;
        }
        let index = order[step % order.len()];
        let result = trace::span(span, request_id(), || op(&mut conn, step, index));
        let micros = sent.elapsed().as_secs_f64() * 1e6;
        step += 1;
        phase.steps += 1;
        match result {
            Ok(()) => phase.succeed(sent >= measure_from, index, micros),
            Err(why) => {
                phase.fail(why);
                match open() {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    trace::flush_thread();
    phase
}

/// Runs `op` on steps `first..first + count`, one after another on this
/// thread, step `k` on scan `order[k % order.len()]`, each inside a span
/// named `span`. The work, not the time, is fixed.
pub fn counted(
    order: &[usize],
    count: usize,
    first: usize,
    span: &'static str,
    mut op: impl FnMut(usize, usize) -> Result<(), String>,
) -> Phase {
    let mut phase = Phase::default();
    for step in first..first + count {
        let index = order[step % order.len()];
        let sent = Instant::now();
        let result = trace::span(span, request_id(), || op(step, index));
        let micros = sent.elapsed().as_secs_f64() * 1e6;
        phase.steps += 1;
        match result {
            Ok(()) => phase.succeed(true, index, micros),
            Err(why) => phase.fail(why),
        }
    }
    phase
}

/// One connection POSTs `/v1/infer` in a closed loop, walking `order`
/// from position `first`.
pub fn infer_loop(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    expect: Expect<'_>,
    first: usize,
    window: Window,
) -> Phase {
    closed_loop(
        order,
        first,
        window,
        "client.infer",
        || connect(addr),
        |client, _, index| {
            let (status, body) = client
                .post("/v1/infer", &bodies[index])
                .map_err(|e| format!("scan {index}: transport {e}"))?;
            expect.check(index, status, &body)
        },
    )
}

/// One connection POSTs `/v1/absorb` in a closed loop, walking `order`
/// from position `first`; every acknowledgement must name the scan's own
/// building.
pub fn absorb_loop(
    addr: SocketAddr,
    bodies: &[String],
    buildings: &[u32],
    order: &[usize],
    first: usize,
    window: Window,
) -> Phase {
    closed_loop(
        order,
        first,
        window,
        "client.absorb",
        || connect(addr),
        |client, _, index| {
            let (status, body) = client
                .post("/v1/absorb", &bodies[index])
                .map_err(|e| format!("absorb of scan {index}: transport {e}"))?;
            if status != 200 {
                return Err(format!("absorb of scan {index}: status {status} ({body})"));
            }
            let ack: AbsorbBody = serde_json::from_str(&body)
                .map_err(|e| format!("absorb of scan {index}: bad body {e}"))?;
            if ack.building == buildings[index] {
                Ok(())
            } else {
                Err(format!(
                    "absorb of scan {index} landed on b{} instead of b{}",
                    ack.building, buildings[index]
                ))
            }
        },
    )
}
