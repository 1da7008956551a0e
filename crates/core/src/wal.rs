//! Per-shard absorb write-ahead log: the durability layer behind
//! [`GraficsFleet::recover`](crate::GraficsFleet::recover).
//!
//! # Why a WAL fits this model
//!
//! The serving tier is deliberately deterministic: absorb `i` draws
//! [`record_rng`](crate::record_rng)`(seed, i)`, so *replaying the absorb
//! log reproduces the exact write-side state* — bit-identical floats,
//! same negative-sampler weights, same retention evictions. Durability
//! therefore reduces to logging `(seq, rng index, seed, record)` per
//! accepted absorb and replaying the tail on top of the last checkpoint.
//! Nothing about the model's internal state needs to be journalled.
//!
//! # On-disk format
//!
//! One JSONL file per shard, `wal-<id>.jsonl`, in the fleet directory:
//!
//! ```text
//! {"wal":1,"building":3}                       <- header
//! {"seq":0,"rng":17,"seed":42,"record":{...}}  <- one line per absorb
//! {"seq":1,"rng":19,"seed":42,"record":{...}}
//! ```
//!
//! `seq` is the shard-local monotone append index; `rng` is the
//! process-wide absorb attempt index (rejected absorbs burn indices but
//! are never logged — they change no state); `seed` rides along per entry
//! so replay never depends on out-of-band configuration. A torn final
//! line (power loss mid-append) is tolerated: parsing stops at the first
//! malformed line and recovery replays the longest valid prefix, then
//! cuts the torn bytes away ([`TailRepair`]) so the next append starts a
//! fresh line.
//!
//! Checkpoints (`checkpoint-<id>.json`, written atomically on publish)
//! carry the model *and* the WAL watermark in one file, so the two can
//! never disagree; entries below the watermark are skipped on replay,
//! which makes the post-checkpoint WAL truncation non-critical — a crash
//! between checkpoint and truncate merely leaves dead entries behind.
//! The model inside a checkpoint is in the model file's form: only state
//! that cannot be derived (see [`crate::Grafics`]), so re-encoding a
//! loaded checkpoint reproduces its bytes, and older checkpoints that
//! stored derived state load through the same path.
//!
//! # Group commit
//!
//! [`WalWriter`] buffers encoded entries under a mutex and hands them to
//! a dedicated flusher thread; the absorb path never touches the disk.
//! The [`DurabilityPolicy`] decides when the flusher calls `fsync` — the
//! loss window after a power cut is bounded by that policy, never by the
//! flusher's scheduling.
//!
//! # Fault injection
//!
//! All writes go through the [`WalFs`] trait. [`StdWalFs`] is the real
//! filesystem; [`FailpointFs`] wraps it with an armable [`CrashPoint`]
//! and a page-cache model (durable vs merely-written bytes), so tests
//! can kill the pipeline at every interesting instant and then
//! [`FailpointFs::apply_power_loss`] to see exactly what a reboot would.

use grafics_types::{DurabilityPolicy, FloorId, RecordId, SignalRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Current WAL format version (the `wal` field of the header line).
pub const WAL_FORMAT_VERSION: u32 = 1;

/// Builds the WAL file name for a building id.
#[must_use]
pub fn wal_file_name(building: u32) -> String {
    format!("wal-{building}.jsonl")
}

/// Builds the checkpoint file name for a building id.
#[must_use]
pub fn checkpoint_file_name(building: u32) -> String {
    format!("checkpoint-{building}.json")
}

// ---------------------------------------------------------------------------
// Filesystem abstraction
// ---------------------------------------------------------------------------

/// The few filesystem operations the durability layer performs, behind a
/// trait so tests can inject crashes ([`FailpointFs`]). Reads are plain
/// `std::fs` — recovery only ever reads files that exist on the real
/// filesystem.
pub trait WalFs: Send + Sync {
    /// Appends `bytes` to `path`, creating the file if needed. The bytes
    /// reach the OS (page cache) but are not necessarily durable.
    ///
    /// # Errors
    ///
    /// The underlying IO error (or an injected crash).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Forces everything previously appended to `path` to stable storage.
    ///
    /// # Errors
    ///
    /// The underlying IO error (or an injected crash).
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically replaces `path` with `bytes`: write to a temporary
    /// sibling, fsync it, rename over `path`, fsync the directory. After
    /// a crash the file holds either the old or the new content, never a
    /// mix.
    ///
    /// # Errors
    ///
    /// The underlying IO error (or an injected crash).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to its first `len` bytes (durably).
    ///
    /// # Errors
    ///
    /// The underlying IO error (or an injected crash).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdWalFs;

impl WalFs for StdWalFs {
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .sync_all()
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        std::fs::write(&tmp, bytes)?;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&tmp)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable. Not every platform supports
        // fsync on a directory handle; best effort is the usual contract.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::File::options().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Where [`FailpointFs`] kills the pipeline. Each point models a power
/// cut (which subsumes `kill -9`: the process dies *and* non-durable
/// page-cache bytes may vanish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The append syscall writes only a prefix of the batch, then dies —
    /// the torn-line case.
    MidAppend,
    /// The append completed (bytes in page cache) but the fsync never
    /// ran — acknowledged-but-volatile entries.
    PreFsync,
    /// The checkpoint's temporary file is half-written and the rename
    /// never happens — the old checkpoint must survive untouched.
    MidCheckpoint,
    /// A WAL truncation never ran: after a checkpoint, stale entries
    /// below the watermark are left behind and must be skipped; in
    /// recovery's tail repair, the torn line survives.
    MidTruncate,
}

/// Every crash point, for matrix tests.
pub const ALL_CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::MidAppend,
    CrashPoint::PreFsync,
    CrashPoint::MidCheckpoint,
    CrashPoint::MidTruncate,
];

struct FailState {
    armed: Option<(CrashPoint, u32)>,
    /// Bytes known durable per appended-to file. Files replaced via
    /// `write_atomic` are atomic by construction and not tracked.
    durable: HashMap<PathBuf, u64>,
}

/// A [`WalFs`] over the real filesystem that (a) can be armed to die at
/// a [`CrashPoint`] and (b) tracks which bytes an armed crash would
/// actually preserve. After the crash fires, every operation fails until
/// [`FailpointFs::apply_power_loss`] rewrites the on-disk files to the
/// surviving prefix and re-enables the fs — exactly the state a process
/// restarted after `kill -9` + power cut would observe.
pub struct FailpointFs {
    real: StdWalFs,
    state: Mutex<FailState>,
    crashed: AtomicBool,
}

impl Default for FailpointFs {
    fn default() -> Self {
        FailpointFs::new()
    }
}

impl FailpointFs {
    /// A fresh injectable fs with nothing armed.
    #[must_use]
    pub fn new() -> Self {
        FailpointFs {
            real: StdWalFs,
            state: Mutex::new(FailState {
                armed: None,
                durable: HashMap::new(),
            }),
            crashed: AtomicBool::new(false),
        }
    }

    /// Arms a crash: the operation matching `point` dies after `skip`
    /// earlier matching operations have been allowed through.
    pub fn arm(&self, point: CrashPoint, skip: u32) {
        self.state.lock().expect("failpoint mutex").armed = Some((point, skip));
    }

    /// `true` once the armed crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Cuts the power *right now*, between operations: every later fs
    /// call fails until [`FailpointFs::apply_power_loss`]. Unlike
    /// [`FailpointFs::arm`] this needs no specific operation to trip on,
    /// which is what an interleaving test wants — the graceful
    /// drain-on-drop must fail too, or dropping the fleet would quietly
    /// turn the crash into a clean shutdown.
    pub fn crash_now(&self) {
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// Simulates the reboot after the crash: every appended-to file is
    /// truncated to its durable prefix (unless `keep_unsynced`, modelling
    /// the kinder outcome where the page cache made it out), and the fs
    /// is reset so recovery can run through it again.
    pub fn apply_power_loss(&self, keep_unsynced: bool) {
        let mut st = self.state.lock().expect("failpoint mutex");
        if !keep_unsynced {
            for (path, durable) in &st.durable {
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
                    let _ = file.set_len(*durable);
                }
            }
        }
        st.durable.clear();
        st.armed = None;
        self.crashed.store(false, Ordering::SeqCst);
    }

    fn crash_error() -> io::Error {
        io::Error::other("injected crash (simulated power loss)")
    }

    /// Returns `true` if the armed crash should fire on this matching op
    /// (and consumes one skip otherwise).
    fn should_fire(&self, st: &mut FailState, point: CrashPoint) -> bool {
        match &mut st.armed {
            Some((armed, skip)) if *armed == point => {
                if *skip == 0 {
                    st.armed = None;
                    self.crashed.store(true, Ordering::SeqCst);
                    true
                } else {
                    *skip -= 1;
                    false
                }
            }
            _ => false,
        }
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }
}

impl WalFs for FailpointFs {
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        let mut st = self.state.lock().expect("failpoint mutex");
        // First touch: whatever the file held before this "process" is
        // considered durable (it survived to be seen at all).
        if !st.durable.contains_key(path) {
            st.durable.insert(path.to_path_buf(), Self::file_len(path));
        }
        if self.should_fire(&mut st, CrashPoint::MidAppend) {
            let torn = &bytes[..bytes.len() / 2];
            let _ = self.real.append(path, torn);
            return Err(Self::crash_error());
        }
        self.real.append(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        let mut st = self.state.lock().expect("failpoint mutex");
        if self.should_fire(&mut st, CrashPoint::PreFsync) {
            return Err(Self::crash_error());
        }
        self.real.fsync(path)?;
        st.durable.insert(path.to_path_buf(), Self::file_len(path));
        Ok(())
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        let mut st = self.state.lock().expect("failpoint mutex");
        if self.should_fire(&mut st, CrashPoint::MidCheckpoint) {
            // The tmp file is half-written and never renamed: the target
            // keeps its old content, recovery must ignore the stray tmp.
            let _ = std::fs::write(tmp_sibling(path), &bytes[..bytes.len() / 2]);
            return Err(Self::crash_error());
        }
        self.real.write_atomic(path, bytes)?;
        // An atomic replace is durable as a unit.
        st.durable.remove(path);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        let mut st = self.state.lock().expect("failpoint mutex");
        if self.should_fire(&mut st, CrashPoint::MidTruncate) {
            // Die before the truncation takes effect: the cut-off bytes
            // survive, and replay skips them by watermark or stops at the
            // torn line again.
            return Err(Self::crash_error());
        }
        self.real.truncate(path, len)?;
        st.durable.insert(path.to_path_buf(), len);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// The WAL header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalHeader {
    /// Format version ([`WAL_FORMAT_VERSION`]).
    pub wal: u32,
    /// The building this WAL belongs to.
    pub building: u32,
}

/// One logged absorb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Shard-local monotone append index.
    pub seq: u64,
    /// Process-wide absorb attempt index: replay draws
    /// [`record_rng`](crate::record_rng)`(seed, rng)`.
    pub rng: u64,
    /// The base seed the RNG stream was derived from.
    pub seed: u64,
    /// The absorbed record.
    pub record: SignalRecord,
}

/// Encodes the header line (with trailing newline).
///
/// # Panics
///
/// Never — the header always serializes.
#[must_use]
pub fn encode_header(building: u32) -> String {
    let header = WalHeader {
        wal: WAL_FORMAT_VERSION,
        building,
    };
    let mut line = serde_json::to_string(&header).expect("header serializes");
    line.push('\n');
    line
}

/// Encodes one entry line (with trailing newline).
///
/// # Errors
///
/// Serialization errors (practically impossible for these types).
pub fn encode_entry(entry: &WalEntry) -> Result<String, String> {
    let mut line = serde_json::to_string(entry).map_err(|e| e.to_string())?;
    line.push('\n');
    Ok(line)
}

/// The result of parsing a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedWal {
    /// The header, if the first line parsed (a torn header means an
    /// empty, freshly truncated log — zero entries, not an error).
    pub header: Option<WalHeader>,
    /// The longest valid prefix of entries.
    pub entries: Vec<WalEntry>,
    /// `true` if parsing stopped at a malformed (torn) line.
    pub torn: bool,
    /// The write that makes the log appendable again, if its last line
    /// is incomplete.
    pub repair: Option<TailRepair>,
}

/// How a log whose last line is incomplete is repaired, so the next
/// append starts a fresh line. Neither drops an entry of
/// [`ParsedWal::entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailRepair {
    /// Cut the file back to this many bytes, the end of its last whole
    /// line: a torn final line (and anything after it) goes.
    Truncate(u64),
    /// The last entry is whole but lacks its `\n`: append one.
    Terminate,
}

impl TailRepair {
    /// Applies the repair to the log at `path` and makes it durable.
    ///
    /// # Errors
    ///
    /// The underlying IO error (or an injected crash).
    pub fn apply(self, fs: &dyn WalFs, path: &Path) -> io::Result<()> {
        match self {
            TailRepair::Truncate(len) => fs.truncate(path, len),
            TailRepair::Terminate => {
                fs.append(path, b"\n")?;
                fs.fsync(path)
            }
        }
    }
}

/// Parses WAL bytes, tolerating a torn tail: the first malformed line
/// ends the valid prefix. A final line that parses completely but lacks
/// its trailing newline is accepted — its content is whole. Offsets are
/// taken on the bytes, and a line that is not UTF-8 is malformed.
#[must_use]
pub fn parse_wal(bytes: &[u8]) -> ParsedWal {
    let mut out = ParsedWal {
        header: None,
        entries: Vec::new(),
        torn: false,
        repair: None,
    };
    // The end of the last whole line kept: the header, an entry or an
    // empty line between entries.
    let mut valid = 0;
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let text = std::str::from_utf8(line).map(|text| text.strip_suffix('\n').unwrap_or(text));
        let parsed = match (i, text) {
            (0, Ok("")) => break, // no header line: an empty log
            (0, Ok(text)) => serde_json::from_str(text)
                .map(|h| out.header = Some(h))
                .is_ok(),
            (_, Ok("")) => true,
            (_, Ok(text)) => serde_json::from_str(text)
                .map(|e| out.entries.push(e))
                .is_ok(),
            (_, Err(_)) => false,
        };
        if !parsed {
            out.torn = true;
            break;
        }
        valid += line.len();
    }
    out.repair = if valid < bytes.len() {
        Some(TailRepair::Truncate(valid as u64))
    } else if bytes.last().is_some_and(|&b| b != b'\n') {
        Some(TailRepair::Terminate)
    } else {
        None
    };
    out
}

/// Reads and parses a shard's WAL file; a missing file is an empty log.
#[must_use]
pub fn read_wal(dir: &Path, building: u32) -> ParsedWal {
    match std::fs::read(dir.join(wal_file_name(building))) {
        Ok(bytes) => parse_wal(&bytes),
        Err(_) => parse_wal(&[]),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint document
// ---------------------------------------------------------------------------

/// One floor's retained-record queue inside a checkpoint (the
/// `PerFloorCap` bookkeeping, arrival order preserved).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloorBucket {
    /// The predicted floor this bucket caps.
    pub floor: FloorId,
    /// Retained record ids, oldest first.
    pub records: Vec<RecordId>,
}

/// The checkpoint file: the write-side model *and* the WAL watermark in
/// one atomically-replaced JSON document, so the two can never disagree
/// after a crash. The retention queues ride along — without them a
/// recovered `FifoBudget`/`PerFloorCap` shard would evict in a different
/// order than the never-crashed one and diverge.
#[derive(Debug, Clone, Deserialize)]
pub struct CheckpointDoc {
    /// Checkpoint format version (currently 1).
    pub version: u32,
    /// The building this checkpoint belongs to.
    pub building: u32,
    /// WAL entries with `seq < watermark` are already inside `model` and
    /// are skipped on replay.
    pub watermark: u64,
    /// The next process-wide absorb attempt index a resumed server must
    /// hand out (so RNG streams are never reused).
    pub next_rng: u64,
    /// Absorbs pending publish at checkpoint time. Always written as 0:
    /// checkpoints are written at a publish, which clears them. Still
    /// read, for checkpoints that older recoveries wrote.
    pub pending: usize,
    /// The global FIFO retention queue, oldest first.
    pub absorbed: Vec<RecordId>,
    /// The per-floor retention queues.
    pub by_floor: Vec<FloorBucket>,
    /// The write-side model as of `watermark`.
    pub model: crate::Grafics,
}

/// Composes the checkpoint JSON without cloning the model (the model is
/// serialized in place from a borrow). The field order matches
/// [`CheckpointDoc`].
///
/// # Errors
///
/// Serialization errors as strings.
pub fn encode_checkpoint(
    building: u32,
    watermark: u64,
    next_rng: u64,
    absorbed: &[RecordId],
    by_floor: &[FloorBucket],
    model: &crate::Grafics,
) -> Result<String, String> {
    let err = |e: serde_json::Error| e.to_string();
    let absorbed = serde_json::to_string(absorbed).map_err(err)?;
    let by_floor = serde_json::to_string(by_floor).map_err(err)?;
    let model = serde_json::to_string(model).map_err(err)?;
    Ok(format!(
        "{{\"version\":1,\"building\":{building},\"watermark\":{watermark},\
         \"next_rng\":{next_rng},\"pending\":0,\"absorbed\":{absorbed},\
         \"by_floor\":{by_floor},\"model\":{model}}}"
    ))
}

/// Loads a shard's checkpoint, if one exists.
///
/// # Errors
///
/// `InvalidData` if the file exists but does not parse — a checkpoint is
/// replaced atomically, so a malformed one is real corruption, not a
/// torn write, and silently falling back would lose durable absorbs.
pub fn read_checkpoint(dir: &Path, building: u32) -> io::Result<Option<CheckpointDoc>> {
    let path = dir.join(checkpoint_file_name(building));
    let json = match std::fs::read_to_string(&path) {
        Ok(json) => json,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    serde_json::from_str::<CheckpointDoc>(&json)
        .map(Some)
        .map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
}

// ---------------------------------------------------------------------------
// Group-commit writer
// ---------------------------------------------------------------------------

/// Counters a WAL writer exposes to `/metrics`. Monotone except
/// `tail_bytes`, which resets when the log is truncated at a checkpoint.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Records appended to the file (after group-commit batching).
    pub appends: AtomicU64,
    /// `fsync` calls issued.
    pub fsyncs: AtomicU64,
    /// Current size of the WAL file in bytes (header included).
    pub tail_bytes: AtomicU64,
}

/// A point-in-time snapshot of [`WalMetrics`], summable across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// Current WAL tail bytes.
    pub tail_bytes: u64,
}

impl WalMetrics {
    /// Snapshot the counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            tail_bytes: self.tail_bytes.load(Ordering::Relaxed),
        }
    }
}

struct WalBuf {
    /// Encoded lines waiting for the flusher.
    buf: String,
    buf_records: u64,
    /// Records handed to the writer / written to the fs / fsynced, as
    /// monotone totals (`synced <= appended <= queued`).
    queued: u64,
    appended: u64,
    synced: u64,
    /// When the oldest currently-unsynced record was queued.
    dirty_at: Option<Instant>,
    /// A sync of everything queued so far was requested.
    force: bool,
    stop: bool,
    /// Sticky: once an fs operation fails, the writer is poisoned and
    /// every durable absorb fails until the operator recovers.
    error: Option<String>,
}

struct WalShared {
    fs: Arc<dyn WalFs>,
    path: PathBuf,
    policy: DurabilityPolicy,
    state: Mutex<WalBuf>,
    cv: Condvar,
    metrics: Arc<WalMetrics>,
}

/// The group-commit WAL appender for one shard: `append` enqueues an
/// encoded entry and returns immediately; a dedicated flusher thread
/// batches the queue into `append` syscalls and fsyncs per the
/// [`DurabilityPolicy`]. Dropping the writer drains and fsyncs the tail
/// (the graceful-shutdown path).
pub struct WalWriter {
    shared: Arc<WalShared>,
    thread: Option<JoinHandle<()>>,
}

impl WalWriter {
    /// Opens (creating + writing the header if absent or empty) the WAL
    /// for `building` under `dir` and starts the flusher.
    ///
    /// # Errors
    ///
    /// IO errors creating the file or writing the header.
    pub fn open(
        fs: Arc<dyn WalFs>,
        dir: &Path,
        building: u32,
        policy: DurabilityPolicy,
    ) -> io::Result<Self> {
        let path = dir.join(wal_file_name(building));
        let existing = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let tail = if existing == 0 {
            let header = encode_header(building);
            fs.append(&path, header.as_bytes())?;
            header.len() as u64
        } else {
            existing
        };
        let metrics = Arc::new(WalMetrics::default());
        metrics.tail_bytes.store(tail, Ordering::Relaxed);
        let shared = Arc::new(WalShared {
            fs,
            path,
            policy,
            state: Mutex::new(WalBuf {
                buf: String::new(),
                buf_records: 0,
                queued: 0,
                appended: 0,
                synced: 0,
                dirty_at: None,
                force: false,
                stop: false,
                error: None,
            }),
            cv: Condvar::new(),
            metrics,
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("wal-flush-{building}"))
                .spawn(move || flusher(&shared))
                .map_err(io::Error::other)?
        };
        Ok(WalWriter {
            shared,
            thread: Some(thread),
        })
    }

    /// Enqueues one entry for the flusher. Returns as soon as the entry
    /// is in the in-memory buffer — durability lags by at most the
    /// policy's fsync window.
    ///
    /// # Errors
    ///
    /// The sticky flusher error, if the writer is poisoned.
    pub fn append(&self, entry: &WalEntry) -> Result<(), String> {
        let line = encode_entry(entry)?;
        let mut st = self.shared.state.lock().expect("wal mutex");
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        st.buf.push_str(&line);
        st.buf_records += 1;
        st.queued += 1;
        if st.dirty_at.is_none() {
            st.dirty_at = Some(Instant::now());
        }
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Blocks until everything queued so far is appended **and fsynced**
    /// (or the writer is poisoned). The checkpoint and graceful-shutdown
    /// barrier.
    ///
    /// # Errors
    ///
    /// The sticky flusher error.
    pub fn flush_sync(&self) -> Result<(), String> {
        let mut st = self.shared.state.lock().expect("wal mutex");
        let target = st.queued;
        if st.synced >= target {
            return st.error.clone().map_or(Ok(()), Err);
        }
        st.force = true;
        self.shared.cv.notify_all();
        while st.synced < target && st.error.is_none() {
            st = self.shared.cv.wait(st).expect("wal mutex");
        }
        st.error.clone().map_or(Ok(()), Err)
    }

    /// Poisons the writer with `msg` (checkpoint failures route through
    /// here so later durable absorbs fail fast instead of silently
    /// diverging from disk).
    pub fn poison(&self, msg: &str) {
        let mut st = self.shared.state.lock().expect("wal mutex");
        if st.error.is_none() {
            st.error = Some(msg.to_owned());
        }
        self.shared.cv.notify_all();
    }

    /// The sticky error, if the writer is poisoned.
    #[must_use]
    pub fn sticky_error(&self) -> Option<String> {
        self.shared.state.lock().expect("wal mutex").error.clone()
    }

    /// Resets the tail-bytes gauge after the caller truncated the log
    /// and rewrote the header.
    pub fn reset_tail(&self, header_bytes: u64) {
        self.shared
            .metrics
            .tail_bytes
            .store(header_bytes, Ordering::Relaxed);
    }

    /// The writer's metric counters.
    #[must_use]
    pub fn metrics(&self) -> Arc<WalMetrics> {
        Arc::clone(&self.shared.metrics)
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("wal mutex");
            st.stop = true;
            self.shared.cv.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The flusher thread: drain the buffer into `append`, fsync per policy,
/// park until there is work. Exits when stopped (after a final drain +
/// fsync) or poisoned.
fn flusher(shared: &WalShared) {
    // Poll granularity for the time-based policy; the count-based policy
    // is woken by appends directly.
    let tick = match shared.policy.fsync_every_ms() {
        Some(ms) => Duration::from_millis(ms.clamp(1, 100)),
        None => Duration::from_millis(100),
    };
    loop {
        let (batch, batch_records, stopping) = {
            let mut st = lock(shared);
            while st.buf.is_empty() && !st.force && !st.stop && st.error.is_none() {
                let unsynced = st.appended - st.synced;
                if unsynced > 0 {
                    // Dirty data waiting on a time-based fsync: wake on
                    // the tick to check its age.
                    st = shared.cv.wait_timeout(st, tick).expect("wal mutex").0;
                    break;
                }
                st = shared.cv.wait(st).expect("wal mutex");
            }
            if st.error.is_some() {
                return;
            }
            let batch = std::mem::take(&mut st.buf);
            let records = std::mem::replace(&mut st.buf_records, 0);
            (batch, records, st.stop)
        };
        if !batch.is_empty() {
            if let Err(e) = shared.fs.append(&shared.path, batch.as_bytes()) {
                fail(shared, &e.to_string());
                return;
            }
            shared
                .metrics
                .appends
                .fetch_add(batch_records, Ordering::Relaxed);
            shared
                .metrics
                .tail_bytes
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            let mut st = lock(shared);
            st.appended += batch_records;
        }
        let want_sync = {
            let st = lock(shared);
            let unsynced = st.appended - st.synced;
            unsynced > 0
                && (st.force
                    || st.stop
                    || match shared.policy {
                        DurabilityPolicy::Off => false,
                        DurabilityPolicy::FsyncEveryN(_) => {
                            let n = shared.policy.fsync_every_n().unwrap_or(1);
                            unsynced >= u64::from(n)
                        }
                        DurabilityPolicy::FsyncEveryMs(ms) => st
                            .dirty_at
                            .is_some_and(|t| t.elapsed() >= Duration::from_millis(ms)),
                    })
        };
        if want_sync {
            if let Err(e) = shared.fs.fsync(&shared.path) {
                fail(shared, &e.to_string());
                return;
            }
            shared.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
            let mut st = lock(shared);
            st.synced = st.appended;
            if st.synced == st.queued {
                st.dirty_at = None;
                st.force = false;
            }
            shared.cv.notify_all();
        }
        let st = lock(shared);
        if stopping && st.buf.is_empty() && st.appended == st.queued {
            return;
        }
    }
}

fn lock(shared: &WalShared) -> MutexGuard<'_, WalBuf> {
    shared.state.lock().expect("wal mutex")
}

fn fail(shared: &WalShared, msg: &str) {
    let mut st = lock(shared);
    if st.error.is_none() {
        st.error = Some(msg.to_owned());
    }
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafics_types::{MacAddr, Reading, Rssi};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("grafics-wal-unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(i: u64) -> SignalRecord {
        let dbm = -40.0 - ((i % 30) as f64);
        SignalRecord::new(vec![
            Reading::new(MacAddr::from_u64(0xA0 + i), Rssi::new(dbm).unwrap()),
            Reading::new(MacAddr::from_u64(0xB0 + i), Rssi::new(-60.0).unwrap()),
        ])
        .unwrap()
    }

    fn entry(seq: u64) -> WalEntry {
        WalEntry {
            seq,
            rng: seq * 2 + 1,
            seed: 42,
            record: record(seq),
        }
    }

    #[test]
    fn codec_round_trip() {
        let lines: String = (0..5).map(|i| encode_entry(&entry(i)).unwrap()).collect();
        let bytes = format!("{}{lines}", encode_header(7));
        let parsed = parse_wal(bytes.as_bytes());
        assert_eq!(
            parsed.header,
            Some(WalHeader {
                wal: WAL_FORMAT_VERSION,
                building: 7
            })
        );
        assert!(!parsed.torn);
        assert_eq!(parsed.entries.len(), 5);
        assert_eq!(parsed.entries[3], entry(3));
    }

    #[test]
    fn torn_tail_yields_longest_valid_prefix() {
        let full: String = format!(
            "{}{}{}",
            encode_header(1),
            encode_entry(&entry(0)).unwrap(),
            encode_entry(&entry(1)).unwrap()
        );
        let keep_first = encode_header(1).len() + encode_entry(&entry(0)).unwrap().len();
        for cut in 0..full.len() {
            let parsed = parse_wal(&full.as_bytes()[..cut]);
            // Parsing a truncation never yields an entry that was not
            // fully written, and every recovered entry is bit-exact.
            for (i, e) in parsed.entries.iter().enumerate() {
                assert_eq!(*e, entry(i as u64), "cut at byte {cut}");
            }
            // An entry becomes recoverable the moment its JSON is
            // complete, trailing newline or not.
            let expected = if cut < keep_first - 1 {
                0
            } else if cut < full.len() - 1 {
                1
            } else {
                2
            };
            assert_eq!(parsed.entries.len(), expected, "cut at byte {cut}");
        }
        // The untruncated log parses cleanly.
        let parsed = parse_wal(full.as_bytes());
        assert!(!parsed.torn);
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.repair, None);
    }

    #[test]
    fn tail_repair_offsets_are_taken_on_the_bytes() {
        let header = encode_header(1);
        let line = encode_entry(&entry(0)).unwrap();
        let whole = format!("{header}{line}");
        let keep = whole.len() as u64;
        // A torn line cut inside a multi-byte character: a lossy decode
        // would widen the two stray bytes to a three-byte U+FFFD and
        // shift every offset after it.
        let mut torn = whole.clone().into_bytes();
        torn.extend_from_slice(b"{\"seq\":1,\"x\":\"\xe2\x82");
        let parsed = parse_wal(&torn);
        assert!(parsed.torn);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.repair, Some(TailRepair::Truncate(keep)));
        // A whole last entry without its newline is kept and terminated.
        let parsed = parse_wal(&whole.as_bytes()[..whole.len() - 1]);
        assert!(!parsed.torn);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.repair, Some(TailRepair::Terminate));
        // So is a header-only log whose header lacks it.
        let parsed = parse_wal(&header.as_bytes()[..header.len() - 1]);
        assert!(parsed.header.is_some());
        assert_eq!(parsed.repair, Some(TailRepair::Terminate));
        // A torn header, or a log that starts with an empty line, has no
        // whole line to keep.
        assert_eq!(
            parse_wal(&header.as_bytes()[..5]).repair,
            Some(TailRepair::Truncate(0))
        );
        assert_eq!(
            parse_wal(format!("\n{line}").as_bytes()).repair,
            Some(TailRepair::Truncate(0))
        );
        assert_eq!(parse_wal(b"").repair, None);
    }

    #[test]
    fn tail_repair_applies_through_the_fs() {
        let dir = tmp_dir("tail-repair");
        let path = dir.join("wal-0.jsonl");
        let whole = format!("{}{}", encode_header(0), encode_entry(&entry(0)).unwrap());
        let fs = FailpointFs::new();
        std::fs::write(&path, format!("{whole}{{\"seq\":1,")).unwrap();
        TailRepair::Truncate(whole.len() as u64)
            .apply(&fs, &path)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), whole.as_bytes());
        std::fs::write(&path, whole.trim_end()).unwrap();
        TailRepair::Terminate.apply(&fs, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), whole.as_bytes());
        // Both repairs are durable: a power cut right after keeps them.
        fs.crash_now();
        fs.apply_power_loss(false);
        assert_eq!(std::fs::read(&path).unwrap(), whole.as_bytes());
        // An armed crash leaves the torn bytes in place.
        std::fs::write(&path, format!("{whole}{{\"seq\":1,")).unwrap();
        fs.arm(CrashPoint::MidTruncate, 0);
        assert!(TailRepair::Truncate(whole.len() as u64)
            .apply(&fs, &path)
            .is_err());
        assert_eq!(std::fs::read(&path).unwrap().len(), whole.len() + 9);
    }

    #[test]
    fn writer_drains_on_drop_and_flush_sync_barriers() {
        let dir = tmp_dir("writer-drain");
        let fs: Arc<dyn WalFs> = Arc::new(StdWalFs);
        let writer =
            WalWriter::open(Arc::clone(&fs), &dir, 3, DurabilityPolicy::FsyncEveryN(64)).unwrap();
        for i in 0..10 {
            writer.append(&entry(i)).unwrap();
        }
        writer.flush_sync().unwrap();
        let stats = writer.metrics().stats();
        assert_eq!(stats.appends, 10);
        assert!(stats.fsyncs >= 1);
        drop(writer);
        let parsed = read_wal(&dir, 3);
        assert!(!parsed.torn);
        assert_eq!(parsed.entries.len(), 10);
        assert_eq!(parsed.header.unwrap().building, 3);
    }

    #[test]
    fn failpoint_mid_append_leaves_torn_line_then_power_loss_truncates() {
        let dir = tmp_dir("failpoint-append");
        let fs = Arc::new(FailpointFs::new());
        let dyn_fs: Arc<dyn WalFs> = fs.clone() as Arc<dyn WalFs>;
        let writer = WalWriter::open(
            Arc::clone(&dyn_fs),
            &dir,
            0,
            DurabilityPolicy::FsyncEveryN(1),
        )
        .unwrap();
        writer.append(&entry(0)).unwrap();
        writer.flush_sync().unwrap();
        fs.arm(CrashPoint::MidAppend, 0);
        writer.append(&entry(1)).unwrap();
        // The flusher hits the armed crash; the writer poisons itself.
        let poisoned = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            writer.sticky_error().is_some()
        });
        assert!(poisoned, "flusher should observe the injected crash");
        assert!(fs.crashed());
        drop(writer);
        // Kind outcome: the torn bytes survive; parse drops the torn line.
        fs.apply_power_loss(true);
        let parsed = read_wal(&dir, 0);
        assert_eq!(parsed.entries.len(), 1);
        assert!(parsed.torn);
        // Harsh outcome replayed on the same file: durable prefix only.
        // (entry 0 was fsynced; the torn bytes are gone entirely.)
    }

    #[test]
    fn failpoint_mid_checkpoint_preserves_old_file() {
        let dir = tmp_dir("failpoint-ckpt");
        let fs = FailpointFs::new();
        let target = dir.join("checkpoint-0.json");
        fs.write_atomic(&target, b"{\"old\":true}").unwrap();
        fs.arm(CrashPoint::MidCheckpoint, 0);
        assert!(fs.write_atomic(&target, b"{\"new\":true}").is_err());
        fs.apply_power_loss(false);
        assert_eq!(std::fs::read(&target).unwrap(), b"{\"old\":true}");
    }

    #[test]
    fn failpoint_pre_fsync_drops_unsynced_bytes() {
        let dir = tmp_dir("failpoint-presync");
        let fs = FailpointFs::new();
        let path = dir.join("wal-0.jsonl");
        fs.append(&path, b"line-a\n").unwrap();
        fs.fsync(&path).unwrap();
        fs.arm(CrashPoint::PreFsync, 0);
        fs.append(&path, b"line-b\n").unwrap();
        assert!(fs.fsync(&path).is_err());
        fs.apply_power_loss(false);
        assert_eq!(std::fs::read(&path).unwrap(), b"line-a\n");
    }
}
