//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the program's public functions. Each span carries a name, start
//! and end (nanoseconds since the first span of the process), the span
//! that caused it and a request id shared by every span of one request.
//! Threads buffer spans locally and hand them to a global sink with
//! [`flush_thread`]; nothing is written until [`write_jsonl`] at exit.
//! With tracing off, [`span`] only calls its closure: untraced runs
//! record nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The enclosing span on the same thread, `0` for a root.
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Drops every span recorded so far.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().clear());
    SINK.lock().expect("span sink poisoned").clear();
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` for request `request`. The span's
/// parent is the innermost span open on this thread.
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    LOCAL.with(|l| {
        l.borrow_mut().push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Hands this thread's buffered spans to the global sink. Every thread
/// that records spans calls this before it ends.
pub fn flush_thread() {
    let local = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !local.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(local);
    }
}

/// Every span flushed so far, ordered by start time.
pub fn collected() -> Vec<Span> {
    flush_thread();
    let mut spans = SINK.lock().expect("span sink poisoned").clone();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Durations in µs of the spans named `name`.
pub fn micros(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Self times in µs of the spans named `name`: each span's duration
/// minus the part of its interval that its child spans cover.
pub fn self_micros(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e3
        })
        .collect()
}

/// Per-request durations in µs of the spans named `name`.
pub fn by_request(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.request, s.micros()))
        .collect()
}

/// Writes the spans as JSON lines, after a header line.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
