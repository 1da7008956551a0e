//! Backend health tracking for the router tier: the active `/healthz`
//! prober's per-backend state machine and the per-backend circuit
//! breaker.
//!
//! Two independent mechanisms guard the hot path:
//!
//! - the **prober** (driven by the router's health thread) actively
//!   probes each backend's `/healthz` on a fixed cadence and flips the
//!   backend between [`BackendState::Up`] / [`BackendState::Degraded`] /
//!   [`BackendState::Down`] after configurable consecutive-result
//!   thresholds ([`HealthPolicy`]);
//! - the **breaker** reacts to request failures *on the hot path*, so a
//!   backend that dies between probe rounds stops costing per-request
//!   connect timeouts after a few consecutive failures — an open breaker
//!   makes a dead backend cost one table lookup. After a cooldown the
//!   breaker goes half-open: exactly one trial request is admitted, and
//!   its outcome closes or re-trips the breaker.
//!
//! A probe transition to Up resets the breaker: active evidence of
//! liveness outranks stale hot-path failures.
//!
//! A probe ([`probe_healthz`]) reads the backend's whole answer with the
//! crate's one HTTP reader under [`http::RESPONSE_LIMITS`], like every
//! other backend answer the router reads, and classifies it by status.

use crate::http;
use grafics_types::{BackendState, BreakerPolicy, HealthPolicy};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one `/healthz` probe observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// 200: the backend is serving.
    Healthy,
    /// The backend answered but is not ready (503 — e.g. WAL replay in
    /// progress). Alive, so it does not count towards Down.
    DegradedAlive,
    /// Connect/read failure or a non-health status: counts towards Down.
    Failed,
}

#[derive(Debug)]
struct HealthMachine {
    state: BackendState,
    consecutive_ok: u32,
    consecutive_failed: u32,
}

#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    half_open_inflight: bool,
}

/// The hot-path circuit breaker for one backend.
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl Breaker {
    /// A closed breaker under `policy`.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            policy,
            inner: Mutex::new(BreakerInner::default()),
            trips: AtomicU64::new(0),
        }
    }

    /// May a request be sent now? Closed ⇒ yes. Open ⇒ no, until the
    /// cooldown elapses — then exactly one caller is admitted as the
    /// half-open trial (concurrent callers keep getting `false` until
    /// that trial reports back).
    #[must_use]
    pub fn admit(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.opened_at {
            None => true,
            Some(at) => {
                if inner.half_open_inflight
                    || at.elapsed() < Duration::from_millis(self.policy.cooldown_ms)
                {
                    false
                } else {
                    inner.half_open_inflight = true;
                    true
                }
            }
        }
    }

    /// Reports a successful request: closes the breaker and zeroes the
    /// failure run.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.half_open_inflight = false;
    }

    /// Reports a failed request: extends the failure run and trips the
    /// breaker at the policy threshold (a failed half-open trial
    /// re-trips immediately, restarting the cooldown).
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let was_open = inner.opened_at.is_some();
        if inner.half_open_inflight || inner.consecutive_failures >= self.policy.failures_to_trip()
        {
            inner.opened_at = Some(Instant::now());
            inner.half_open_inflight = false;
            if !was_open {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `true` while the breaker refuses (non-trial) traffic.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.inner.lock().unwrap().opened_at.is_some()
    }

    /// Non-consuming peek: would [`Breaker::admit`] say yes right now?
    /// Routing decisions use this so that *planning* a request does not
    /// claim the half-open trial slot — only an actual send (which will
    /// report back success or failure) consumes it via `admit`.
    #[must_use]
    pub fn would_admit(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        match inner.opened_at {
            None => true,
            Some(at) => {
                !inner.half_open_inflight
                    && at.elapsed() >= Duration::from_millis(self.policy.cooldown_ms)
            }
        }
    }

    /// Force-closes the breaker (a probe saw the backend healthy).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = BreakerInner::default();
    }

    /// Times the breaker has tripped open.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// Everything the router tracks about one backend: identity, the
/// prober's state machine, the breaker, and counters for `/metrics`.
#[derive(Debug)]
pub struct BackendStatus {
    name: String,
    addr: SocketAddr,
    machine: Mutex<HealthMachine>,
    /// The breaker guarding this backend's hot path.
    pub breaker: Breaker,
    probes: AtomicU64,
    transitions: AtomicU64,
    /// Set on an Up transition (and at birth): the router should
    /// (re)fetch this backend's `/v1/route_table`.
    table_dirty: AtomicBool,
}

impl BackendStatus {
    /// A new backend, optimistically Up (the breaker shields the hot
    /// path if it is actually dead; the prober demotes it within
    /// `fail_threshold` rounds).
    #[must_use]
    pub fn new(name: String, addr: SocketAddr, breaker: BreakerPolicy) -> Self {
        BackendStatus {
            name,
            addr,
            machine: Mutex::new(HealthMachine {
                state: BackendState::Up,
                consecutive_ok: 0,
                consecutive_failed: 0,
            }),
            breaker: Breaker::new(breaker),
            probes: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            table_dirty: AtomicBool::new(true),
        }
    }

    /// The backend's stable name (metrics label, `/v1/stat`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend's listener address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current prober state.
    #[must_use]
    pub fn state(&self) -> BackendState {
        self.machine.lock().unwrap().state
    }

    /// `true` when the router may send this backend traffic right now:
    /// the prober says Up *and* the breaker admits (an admitted call on
    /// an open breaker is the half-open trial). **Consuming**: call only
    /// when a request will actually be sent, so a claimed trial slot is
    /// always resolved by `record_success`/`record_failure`.
    #[must_use]
    pub fn admit(&self) -> bool {
        self.state().is_routable() && self.breaker.admit()
    }

    /// Non-consuming admission peek for routing *decisions* (which
    /// backends to include in a plan) — see [`Breaker::would_admit`].
    #[must_use]
    pub fn routable(&self) -> bool {
        self.state().is_routable() && self.breaker.would_admit()
    }

    /// Probes sent to this backend.
    #[must_use]
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// State transitions observed.
    #[must_use]
    pub fn transition_count(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Takes (and clears) the "route table needs refetching" flag.
    pub fn take_table_dirty(&self) -> bool {
        self.table_dirty.swap(false, Ordering::SeqCst)
    }

    /// Re-flags the route table as dirty (a fetch failed; retry later).
    pub fn mark_table_dirty(&self) {
        self.table_dirty.store(true, Ordering::SeqCst);
    }

    /// Feeds one probe outcome through the state machine; returns the
    /// new state when this probe caused a transition. An Up transition
    /// resets the breaker and marks the route table dirty.
    pub fn apply_probe(
        &self,
        outcome: ProbeOutcome,
        policy: &HealthPolicy,
    ) -> Option<BackendState> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let mut m = self.machine.lock().unwrap();
        let next = match outcome {
            ProbeOutcome::Healthy => {
                m.consecutive_ok = m.consecutive_ok.saturating_add(1);
                m.consecutive_failed = 0;
                (m.state != BackendState::Up
                    // Degraded means "alive but not ready": the moment it
                    // reports healthy it is safe again — no full ladder.
                    && (m.consecutive_ok >= policy.successes_to_up()
                        || m.state == BackendState::Degraded))
                    .then_some(BackendState::Up)
            }
            ProbeOutcome::DegradedAlive => {
                m.consecutive_ok = 0;
                m.consecutive_failed = 0;
                (m.state != BackendState::Degraded).then_some(BackendState::Degraded)
            }
            ProbeOutcome::Failed => {
                m.consecutive_ok = 0;
                m.consecutive_failed = m.consecutive_failed.saturating_add(1);
                (m.state != BackendState::Down && m.consecutive_failed >= policy.failures_to_down())
                    .then_some(BackendState::Down)
            }
        };
        if let Some(state) = next {
            m.state = state;
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if state == BackendState::Up {
                self.breaker.reset();
                self.table_dirty.store(true, Ordering::SeqCst);
            }
        }
        next
    }
}

/// One active `/healthz` probe over a fresh connection: connect with a
/// timeout, send the request, and read the whole answer with
/// [`http::read_response`]. A `200` is healthy and a `503` alive but not
/// ready; anything else — no answer, a torn, malformed or over-limit
/// one, another status — fails the probe. This runs every probe interval
/// for every backend.
#[must_use]
pub fn probe_healthz(addr: SocketAddr, timeout: Duration) -> ProbeOutcome {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return ProbeOutcome::Failed;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
        || stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: grafics\r\nConnection: close\r\n\r\n")
            .is_err()
    {
        return ProbeOutcome::Failed;
    }
    let answer = http::read_response(&mut BufReader::new(&stream), &http::RESPONSE_LIMITS);
    match answer.map(|resp| resp.map(|r| r.status)) {
        Ok(Some(200)) => ProbeOutcome::Healthy,
        Ok(Some(503)) => ProbeOutcome::DegradedAlive,
        _ => ProbeOutcome::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status() -> BackendStatus {
        BackendStatus::new(
            "b".to_owned(),
            "127.0.0.1:1".parse().unwrap(),
            BreakerPolicy {
                trip_threshold: 2,
                cooldown_ms: 10,
            },
        )
    }

    #[test]
    fn probe_ladder_down_and_up() {
        let s = status();
        let policy = HealthPolicy {
            probe_interval_ms: 10,
            probe_timeout_ms: 10,
            fail_threshold: 2,
            recover_threshold: 2,
        };
        assert_eq!(s.state(), BackendState::Up);
        assert_eq!(s.apply_probe(ProbeOutcome::Failed, &policy), None);
        assert_eq!(
            s.apply_probe(ProbeOutcome::Failed, &policy),
            Some(BackendState::Down)
        );
        // One healthy probe is not enough to come back…
        assert_eq!(s.apply_probe(ProbeOutcome::Healthy, &policy), None);
        assert_eq!(s.state(), BackendState::Down);
        // …two are.
        assert_eq!(
            s.apply_probe(ProbeOutcome::Healthy, &policy),
            Some(BackendState::Up)
        );
        assert_eq!(s.probe_count(), 4);
        assert_eq!(s.transition_count(), 2);
    }

    #[test]
    fn degraded_is_sticky_until_healthy() {
        let s = status();
        let policy = HealthPolicy::default();
        assert_eq!(
            s.apply_probe(ProbeOutcome::DegradedAlive, &policy),
            Some(BackendState::Degraded)
        );
        // Degraded does not decay to Down on more 503s…
        assert_eq!(s.apply_probe(ProbeOutcome::DegradedAlive, &policy), None);
        assert_eq!(s.state(), BackendState::Degraded);
        // …and one healthy probe re-admits (alive the whole time).
        assert_eq!(
            s.apply_probe(ProbeOutcome::Healthy, &policy),
            Some(BackendState::Up)
        );
    }

    #[test]
    fn breaker_trips_half_opens_and_closes() {
        let b = Breaker::new(BreakerPolicy {
            trip_threshold: 2,
            cooldown_ms: 20,
        });
        assert!(b.admit());
        b.record_failure();
        assert!(!b.is_open());
        b.record_failure();
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        // Open: nothing admitted before the cooldown.
        assert!(!b.admit());
        std::thread::sleep(Duration::from_millis(25));
        // Half-open: exactly one trial.
        assert!(b.admit());
        assert!(!b.admit());
        b.record_success();
        assert!(!b.is_open());
        assert!(b.admit());
    }

    #[test]
    fn failed_trial_retrips_without_counting_twice() {
        let b = Breaker::new(BreakerPolicy {
            trip_threshold: 1,
            cooldown_ms: 10,
        });
        b.record_failure();
        assert!(b.is_open());
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.admit());
        b.record_failure();
        assert!(b.is_open());
        assert_eq!(b.trips(), 1, "re-trip extends the same outage");
        assert!(!b.admit());
    }

    #[test]
    fn up_transition_resets_breaker_and_dirties_table() {
        let s = status();
        let policy = HealthPolicy {
            fail_threshold: 1,
            recover_threshold: 1,
            ..HealthPolicy::default()
        };
        assert!(s.take_table_dirty(), "dirty at birth");
        s.breaker.record_failure();
        s.breaker.record_failure();
        assert!(s.breaker.is_open());
        s.apply_probe(ProbeOutcome::Failed, &policy);
        assert_eq!(s.state(), BackendState::Down);
        assert!(!s.admit());
        s.apply_probe(ProbeOutcome::Healthy, &policy);
        assert_eq!(s.state(), BackendState::Up);
        assert!(!s.breaker.is_open(), "probe recovery closes the breaker");
        assert!(s.take_table_dirty(), "recovery re-fetches the table");
        assert!(s.admit());
    }
}
