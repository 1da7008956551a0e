//! The transport core both front ends share: a non-blocking accept loop
//! feeding a bounded connection queue, a fixed worker pool (one
//! keep-alive connection per worker at a time), one per-connection
//! request loop, and graceful drain. [`crate::HttpServer`] and
//! [`crate::RouterServer`] each supply only a [`Service`].

use crate::http::{self, Limits, Request};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pool size, queue depth, request limits, and idle read timeout.
pub(crate) struct Transport {
    pub workers: usize,
    pub queue_depth: usize,
    pub limits: Limits,
    pub read_timeout: Duration,
}

/// A [`Service`]'s answer: status, content type, and one optional extra
/// header (e.g. `Retry-After`); the body goes into the reused buffer.
pub(crate) struct Reply {
    pub status: u16,
    pub content_type: &'static str,
    pub header: Option<(&'static str, String)>,
}

/// What a server puts behind the shared transport.
pub(crate) trait Service: Sync {
    /// Counts one request about to be answered, including the ones the
    /// transport rejects before dispatch (400/413/431/501).
    fn count_request(&self);

    /// Answers one parsed request from `peer`, writing the body into
    /// `body` (cleared by the callee).
    fn dispatch(&self, req: &Request, peer: IpAddr, body: &mut String) -> Reply;
}

/// A clonable remote control for a running server or router.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    pub(crate) fn new(shutdown: &Arc<AtomicBool>) -> Self {
        ServerHandle {
            shutdown: Arc::clone(shutdown),
        }
    }

    /// Asks the server to drain in-flight requests and exit; returns
    /// immediately.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A server running on a background thread (tests, benches, smoke
/// tools): its address, shutdown handle, shared state `S`, and the
/// report `R` its run returns.
pub struct Running<S, R> {
    addr: SocketAddr,
    handle: ServerHandle,
    state: Arc<S>,
    thread: JoinHandle<std::io::Result<R>>,
}

impl<S, R: Send + 'static> Running<S, R> {
    pub(crate) fn spawn(
        addr: SocketAddr,
        handle: ServerHandle,
        state: Arc<S>,
        run: impl FnOnce() -> std::io::Result<R> + Send + 'static,
    ) -> Self {
        Running {
            addr,
            handle,
            state,
            thread: std::thread::spawn(run),
        }
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The shared serving state (counters, health, fleet access).
    #[must_use]
    pub fn state(&self) -> &Arc<S> {
        &self.state
    }

    /// Triggers shutdown and joins the server thread.
    ///
    /// # Errors
    ///
    /// Propagates the server's exit error.
    pub fn shutdown(self) -> std::io::Result<R> {
        self.handle.shutdown();
        self.thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

/// Binds a listener in the non-blocking mode [`run`] polls it in.
pub(crate) fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Serves `listener` (from [`bind`]) until `shutdown` is set or a
/// signal trips, then drains: stops accepting, answers what was already
/// received, and joins every worker. Sets `shutdown` on the way out so
/// the caller's other threads see the same stop.
pub(crate) fn run<S: Service>(
    listener: &TcpListener,
    transport: &Transport,
    shutdown: &AtomicBool,
    service: &S,
) {
    let queue = ConnQueue::new(transport.queue_depth);
    let registry = ConnRegistry::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..transport.workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    while let Some((conn, peer)) = queue.pop() {
                        let id = registry.register(&conn);
                        serve_connection(conn, peer, &transport.limits, shutdown, service);
                        if let Some(id) = id {
                            registry.deregister(id);
                        }
                    }
                })
            })
            .collect();
        accept_loop(listener, transport.read_timeout, &queue, shutdown);
        // Drain: stop handing out new work once the queue empties, and
        // half-close the read side of every live connection — a worker
        // blocked waiting for the *next* keep-alive request wakes to a
        // clean EOF immediately, while a response being written still
        // goes out (with `Connection: close`). Requests already received
        // are answered; nothing new is read.
        shutdown.store(true, Ordering::SeqCst);
        queue.close();
        registry.drain();
        // Joined by hand so a worker's panic is not re-raised here: the
        // caller's own drain (the server's WAL flush) must still run.
        for worker in workers {
            let _ = worker.join();
        }
    });
}

/// Non-blocking accept + short sleep: the loop notices shutdown (flag or
/// signal) within ~5 ms without platform-specific polling APIs.
fn accept_loop(
    listener: &TcpListener,
    read_timeout: Duration,
    queue: &ConnQueue,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::SeqCst) && !sig::tripped() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue; // the socket is already dead; drop it
                }
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_nodelay(true);
                if !queue.push((stream, peer.ip()), shutdown) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // ECONNABORTED, EMFILE, and friends are transient under
                // load; one of them must not take the whole service down.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves one connection until it closes, errors, goes idle past the
/// read timeout, or the server drains. The request, its body, and the
/// response buffer are reused across every keep-alive request.
fn serve_connection<S: Service>(
    stream: TcpStream,
    peer: IpAddr,
    limits: &Limits,
    shutdown: &AtomicBool,
    service: &S,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut req = Request::new();
    let mut body = String::new();
    loop {
        match http::read_request_into(&mut reader, &mut writer, limits, &mut req) {
            Ok(false) => break,
            Ok(true) => {
                service.count_request();
                let reply = service.dispatch(&req, peer, &mut body);
                let keep = req.keep_alive && !shutdown.load(Ordering::SeqCst);
                let header = reply
                    .header
                    .as_ref()
                    .map(|(name, value)| (*name, value.as_str()));
                if http::write_response_extra(
                    &mut writer,
                    reply.status,
                    reply.content_type,
                    header.as_slice(),
                    &body,
                    keep,
                )
                .is_err()
                    || !keep
                {
                    break;
                }
            }
            Err(e) => {
                if let Some((status, message)) = e.response() {
                    service.count_request();
                    reject(&mut reader, &mut writer, status, &message);
                }
                break;
            }
        }
    }
    let _ = writer.flush();
}

/// Answers an unparseable request and closes. What the client already
/// sent (e.g. the oversized body behind a 413) is drained first: on
/// Linux, close() with unread received data sends RST, which can discard
/// the error response still in flight. Bounded in both bytes and time.
fn reject(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    status: u16,
    message: &str,
) {
    let body = serde_json::to_string(&serde_json::json!({ "error": message })).unwrap_or_default();
    if http::write_response(writer, status, &body, false).is_err() {
        return;
    }
    let _ = writer
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained < (8 << 20) {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Tracks live connections so a drain can half-close their read sides,
/// unblocking workers parked on idle keep-alive reads without waiting
/// out the read timeout.
#[derive(Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    conns: HashMap<u64, TcpStream>,
    next_id: u64,
    draining: bool,
}

impl ConnRegistry {
    /// Registers a connection (a `try_clone` of its stream); if the
    /// server is already draining, the read side is closed on the spot.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut inner = self.inner.lock().expect("conn registry");
        if inner.draining {
            let _ = clone.shutdown(Shutdown::Read);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.conns.insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.inner.lock().expect("conn registry").conns.remove(&id);
    }

    fn drain(&self) {
        let mut inner = self.inner.lock().expect("conn registry");
        inner.draining = true;
        for conn in inner.conns.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
}

/// An accepted connection and its peer's address.
type Conn = (TcpStream, IpAddr);

/// A bounded MPMC queue of accepted connections (std mutex + condvars —
/// no external dependency for a queue this small). When full, the
/// accept loop stops pulling from the listener backlog: TCP
/// backpressure, not unbounded memory or threads.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    capacity: usize,
    /// Signalled when the queue gains an item or closes.
    takers: Condvar,
    /// Signalled when the queue loses an item or closes.
    givers: Condvar,
}

struct QueueInner {
    items: VecDeque<Conn>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            takers: Condvar::new(),
            givers: Condvar::new(),
        }
    }

    /// Blocks while full; returns `false` if the queue closed (or
    /// shutdown/a signal tripped) instead of accepting the connection.
    fn push(&self, conn: Conn, shutdown: &AtomicBool) -> bool {
        let mut inner = self.inner.lock().expect("conn queue");
        while inner.items.len() >= self.capacity && !inner.closed {
            // Also poll the signal flag: Ctrl-C must not hang behind a
            // full queue whose workers are all parked on keep-alive
            // connections.
            if shutdown.load(Ordering::SeqCst) || sig::tripped() {
                return false;
            }
            let (next, _) = self
                .givers
                .wait_timeout(inner, Duration::from_millis(20))
                .expect("conn queue");
            inner = next;
        }
        if inner.closed {
            return false;
        }
        inner.items.push_back(conn);
        drop(inner);
        self.takers.notify_one();
        true
    }

    /// Blocks until an item arrives; `None` once closed *and* drained.
    fn pop(&self) -> Option<Conn> {
        let mut inner = self.inner.lock().expect("conn queue");
        loop {
            if let Some(conn) = inner.items.pop_front() {
                drop(inner);
                self.givers.notify_one();
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.takers.wait(inner).expect("conn queue");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("conn queue").closed = true;
        self.takers.notify_all();
        self.givers.notify_all();
    }
}

/// SIGINT/SIGTERM → graceful drain, without a signal-handling crate: the
/// handler only flips an atomic the accept loop polls.
#[cfg(unix)]
#[allow(unsafe_code)]
pub(crate) mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIPPED: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        /// `signal(2)` from the C library std already links. The return
        /// value (the previous handler) is deliberately ignored.
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // A relaxed atomic store is async-signal-safe; everything else
        // (draining, joining) happens on normal threads that observe it.
        TRIPPED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the libc function with this exact
        // signature; `on_signal` only stores to a static atomic, which
        // is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn tripped() -> bool {
        TRIPPED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
pub(crate) mod sig {
    pub fn install() {}

    pub fn tripped() -> bool {
        false
    }
}
