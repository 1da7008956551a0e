//! A fault-injecting TCP forwarder for robustness tests and benchmarks.
//!
//! [`ChaosProxy`] sits between an HTTP client (the router tier, an
//! [`crate::HttpClient`]) and a real backend, forwarding bytes verbatim
//! until told to misbehave. Faults are injected *per connection* from a
//! deterministic schedule: each accepted connection pops the next
//! [`Fault`] from the schedule (falling back to a settable default), so
//! a test script controls exactly which request hits which failure —
//! no timing races, no randomness.
//!
//! The proxy address is stable across backend restarts:
//! [`ChaosProxy::set_target`] repoints the forwarder at a new ephemeral
//! port, which is how the e2e tests model "the backend process was
//! killed and came back somewhere else" without rebinding races.
//!
//! Std-only, like the rest of the crate: threads + blocking sockets.

use crate::http::{self, Limits, Request};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One per-connection fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward both directions verbatim (no fault).
    None,
    /// Forward verbatim after holding the connection for this long —
    /// models a slow or congested link (drives deadline/timeout paths).
    Delay(Duration),
    /// Accept, read, and never answer: the client sees its read timeout.
    BlackHole,
    /// Accept and close abruptly — the client sees EOF/ECONNRESET
    /// before any response byte (the retryable clean-EOF path).
    Reset,
    /// Forward the request, then relay only the first `n` bytes of the
    /// real response and close — a torn response mid-body.
    Truncate(usize),
    /// Answer a well-framed 503 without contacting the backend — an
    /// overloaded-intermediary burst.
    Burst5xx,
}

struct Shared {
    target: Mutex<SocketAddr>,
    schedule: Mutex<VecDeque<Fault>>,
    default_fault: Mutex<Fault>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    faults_injected: AtomicU64,
}

/// The running proxy. Dropping it stops the accept loop (in-flight
/// pumps die with their sockets as the test's backends shut down).
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts forwarding to `target`.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn spawn(target: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            target: Mutex::new(target),
            schedule: Mutex::new(VecDeque::new()),
            default_fault: Mutex::new(Fault::None),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ChaosProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The stable frontage address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Repoints the forwarder (e.g. at a restarted backend's new
    /// ephemeral port). Existing connections keep their old target.
    pub fn set_target(&self, target: SocketAddr) {
        *self.shared.target.lock().unwrap() = target;
    }

    /// Sets the fault applied to connections with an empty schedule.
    pub fn set_default_fault(&self, fault: Fault) {
        *self.shared.default_fault.lock().unwrap() = fault;
    }

    /// Appends faults to the per-connection schedule: connection `k`
    /// after this call consumes the `k`-th queued entry, then later
    /// connections fall back to the default fault.
    pub fn push_schedule(&self, faults: &[Fault]) {
        self.shared.schedule.lock().unwrap().extend(faults);
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Connections that were given a non-[`Fault::None`] treatment.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults_injected.load(Ordering::Relaxed)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let fault = shared
                    .schedule
                    .lock()
                    .unwrap()
                    .pop_front()
                    .unwrap_or_else(|| *shared.default_fault.lock().unwrap());
                if fault != Fault::None {
                    shared.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                let conn_shared = Arc::clone(shared);
                std::thread::spawn(move || handle(stream, fault, &conn_shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn handle(client: TcpStream, fault: Fault, shared: &Arc<Shared>) {
    let target = *shared.target.lock().unwrap();
    match fault {
        Fault::None => pump_both(client, target),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            pump_both(client, target);
        }
        Fault::BlackHole => black_hole(client, shared),
        // Dropping the only handle closes the socket with the request
        // unread — the kernel answers the client with a reset, or at
        // best an EOF before any response byte.
        Fault::Reset => drop(client),
        Fault::Truncate(n) => truncate(client, target, n),
        Fault::Burst5xx => burst_5xx(client),
    }
}

/// Verbatim bidirectional byte pump: one thread per direction, both die
/// on the first EOF/error. Keep-alive, pipelining, and framing all pass
/// through untouched — under `Fault::None` the proxy is wire-invisible.
fn pump_both(client: TcpStream, target: SocketAddr) {
    let Ok(backend) = TcpStream::connect(target) else {
        return; // client sees EOF: connect-refused surfaced verbatim
    };
    let _ = client.set_nodelay(true);
    let _ = backend.set_nodelay(true);
    let (Ok(client_r), Ok(backend_r)) = (client.try_clone(), backend.try_clone()) else {
        return;
    };
    let up = std::thread::spawn(move || pump(client_r, backend));
    pump(backend_r, client);
    let _ = up.join();
}

fn pump(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
}

/// Reads and discards until the proxy shuts down or the client gives up
/// — the request is consumed so the client blocks on the *response*,
/// exercising its read-timeout path rather than a write error.
fn black_hole(mut client: TcpStream, shared: &Arc<Shared>) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    while !shared.shutdown.load(Ordering::SeqCst) {
        match client.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

/// Forwards the request, then relays only the first `n` response bytes.
fn truncate(client: TcpStream, target: SocketAddr, n: usize) {
    let Ok(mut backend) = TcpStream::connect(target) else {
        return;
    };
    let _ = backend.set_nodelay(true);
    let (Ok(mut client_r), Ok(backend_r)) = (client.try_clone(), backend.try_clone()) else {
        return;
    };
    // Upstream pump so the backend sees (and processes!) the request —
    // a truncated *response* must still mean an applied absorb, which
    // is exactly the double-apply hazard the WAL audit test checks.
    let up = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            match client_r.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(k) => {
                    if backend.write_all(&buf[..k]).is_err() {
                        break;
                    }
                }
            }
        }
    });
    let mut backend_r = backend_r;
    let mut client_w = client;
    let mut remaining = n;
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        let want = remaining.min(buf.len());
        match backend_r.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                if client_w.write_all(&buf[..k]).is_err() {
                    break;
                }
                remaining -= k;
            }
        }
    }
    let _ = client_w.shutdown(std::net::Shutdown::Both);
    let _ = backend_r.shutdown(std::net::Shutdown::Both);
    let _ = up.join();
}

/// Consumes one request through the crate's HTTP reader, answers a
/// well-framed 503, and closes. The backend is never contacted.
fn burst_5xx(client: TcpStream) {
    let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
    let limits = Limits {
        max_head_bytes: 64 * 1024,
        max_body_bytes: 8 << 20,
    };
    let mut writer = BufWriter::new(&client);
    let read = http::read_request_into(
        &mut BufReader::new(&client),
        &mut writer,
        &limits,
        &mut Request::new(),
    );
    if let Ok(true) = read {
        let body = "{\"error\":\"chaos: injected 503 burst\"}";
        let _ = http::write_response(&mut writer, 503, body, false);
    }
    let _ = client.shutdown(std::net::Shutdown::Both);
}
