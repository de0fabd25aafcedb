//! Pluggable durable storage: the byte-level foundation under the
//! platform's durability primitives ([`crate::checkpoint`]'s WAL +
//! snapshots, [`crate::log`]'s segment files).
//!
//! The paper's exactly-once recipes (MillWheel's strong productions,
//! Samza's log-backed state per Table 2) both *derive* their guarantees
//! from durable storage — a checkpoint that lives in process memory
//! proves nothing about `kill -9`. This module supplies the missing
//! layer:
//!
//! * [`Storage`] — a narrow, faultable file-system contract
//!   (read/write/append/sync/rename/list/remove/truncate). Everything
//!   durable in the platform goes through it, so every backend and
//!   every fault injector composes with every durability client.
//! * [`MemStorage`] — the in-memory backend (default in tests: fast,
//!   hermetic, obeys the same contract).
//! * [`DiskStorage`] — real files under a root directory, with
//!   `fsync` on [`Storage::sync`] and atomic `rename`.
//! * [`FaultyStorage`] — the chaos wrapper: seeded torn writes (a
//!   prefix lands, then the "crash"), bit flips on read, transient
//!   `EIO`s. Wired into
//!   [`crate::supervise::FaultPlan`] so storage faults ride the same
//!   chaos harness as panics and drops.
//!
//! ## Frame format
//!
//! Durable byte streams are sequences of CRC-framed records:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len) │
//! └────────────┴────────────┴───────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the 4 length bytes *and* the payload, so
//! a flipped length bit can never silently re-frame the stream. A scan
//! ([`decode_frames`]) distinguishes exactly two failure shapes:
//!
//! * **torn tail** — the final frame is incomplete (fewer bytes than
//!   its header promises, or a partial header). This is what a crash
//!   mid-append leaves behind; recovery truncates it and keeps the
//!   prefix.
//! * **corruption** — a *complete* frame whose CRC does not match.
//!   This is never a crash artifact (appends write prefixes), so it is
//!   rejected loudly with [`SaError::Corrupt`] — wrong state is never
//!   silently served.

use sa_core::rng::SplitMix64;
use sa_core::{Result, SaError};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `parts` concatenated, without materialising the
/// concatenation.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Bytes of a frame header: `len: u32` + `crc: u32`.
pub const FRAME_HEADER: usize = 8;

/// Encode one payload as a CRC-framed record.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(&[&len, payload]).to_le_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc);
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a framed byte stream.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameScan {
    /// Payloads of every fully-framed, CRC-verified record, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte length of the verified prefix. Equal to the input length
    /// when the stream is clean; shorter when a torn tail follows.
    pub clean_len: usize,
}

/// Scan a framed stream, verifying every CRC.
///
/// `allow_torn_tail` is the crash-recovery mode: an *incomplete* final
/// frame is reported via `clean_len < bytes.len()` instead of an error
/// (the caller truncates). A complete frame with a CRC mismatch is
/// **always** a loud [`SaError::Corrupt`] — whatever the mode — because
/// short writes only ever leave prefixes, so a bad checksum on a whole
/// frame means the bytes rotted.
pub fn decode_frames(bytes: &[u8], allow_torn_tail: bool) -> Result<FrameScan> {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return torn(payloads, pos, bytes.len(), allow_torn_tail);
        }
        let len_bytes: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u32::from_le_bytes(len_bytes) as usize;
        let crc_stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if remaining - FRAME_HEADER < len {
            // The frame promises more bytes than exist: a torn tail
            // (crash mid-append) — or a flipped length bit, which is
            // indistinguishable from one and costs at most this frame
            // and its successors, never a wrong record.
            return torn(payloads, pos, bytes.len(), allow_torn_tail);
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(&[&len_bytes, payload]) != crc_stored {
            return Err(SaError::corrupt(format!(
                "frame at byte {pos}: CRC mismatch over {len}-byte payload"
            )));
        }
        payloads.push(payload.to_vec());
        pos += FRAME_HEADER + len;
    }
    Ok(FrameScan { payloads, clean_len: pos })
}

fn torn(payloads: Vec<Vec<u8>>, pos: usize, total: usize, allow: bool) -> Result<FrameScan> {
    if allow {
        Ok(FrameScan { payloads, clean_len: pos })
    } else {
        Err(SaError::corrupt(format!(
            "incomplete frame at byte {pos} of {total} (torn tail outside the final segment)"
        )))
    }
}

// ---------------------------------------------------------------------
// The Storage contract
// ---------------------------------------------------------------------

/// A narrow file-system contract every durability primitive writes
/// through. Paths are relative, `/`-separated names; backends own the
/// namespace root. All methods are safe to call concurrently.
///
/// Error discipline: retryable failures (injected chaos, `EIO`) are
/// [`SaError::Io`] `{ transient: true }`; impossible requests (reading
/// a missing file) are `{ transient: false }`.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Read a whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>>;

    /// Create-or-replace a whole file (not atomic — write to a temp
    /// name and [`Storage::rename`] for atomicity).
    fn write(&self, path: &str, data: &[u8]) -> Result<()>;

    /// Append to a file, creating it if missing. A failed append may
    /// leave a *prefix* of `data` at the tail (torn write) — callers
    /// repair via [`Storage::truncate`].
    fn append(&self, path: &str, data: &[u8]) -> Result<()>;

    /// Flush a file's bytes to durable media (`fsync`). A no-op cost
    /// model on [`MemStorage`].
    fn sync(&self, path: &str) -> Result<()>;

    /// Atomically replace `to` with `from` (the snapshot-compaction
    /// primitive: tmp-file + rename).
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Names of every file whose path starts with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Delete a file (idempotent: missing is fine).
    fn remove(&self, path: &str) -> Result<()>;

    /// Current length of a file in bytes (`None` when missing).
    fn len(&self, path: &str) -> Result<Option<u64>>;

    /// Cut a file down to `len` bytes (torn-tail repair).
    fn truncate(&self, path: &str, len: u64) -> Result<()>;
}

// ---------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------

/// The in-memory backend: a map of named byte buffers. The default for
/// tests — same contract, no disk, no fsync cost. Clones share storage.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemStorage {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(path)
            .cloned()
            .ok_or_else(|| SaError::io_permanent(format!("read {path}: not found")))
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.files.lock().unwrap().insert(path.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.files.lock().unwrap().entry(path.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, _path: &str) -> Result<()> {
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.lock().unwrap();
        let data = files
            .remove(from)
            .ok_or_else(|| SaError::io_permanent(format!("rename {from}: not found")))?;
        files.insert(to.to_string(), data);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self.files.lock().unwrap().keys().filter(|k| k.starts_with(prefix)).cloned().collect())
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.files.lock().unwrap().remove(path);
        Ok(())
    }

    fn len(&self, path: &str) -> Result<Option<u64>> {
        Ok(self.files.lock().unwrap().get(path).map(|d| d.len() as u64))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        if let Some(data) = self.files.lock().unwrap().get_mut(path) {
            data.truncate(len as usize);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// DiskStorage
// ---------------------------------------------------------------------

/// Real files under a root directory. [`Storage::sync`] is `fsync`;
/// [`Storage::rename`] is the OS's atomic rename followed by a
/// directory fsync, so a completed rename survives power loss.
#[derive(Debug)]
pub struct DiskStorage {
    root: PathBuf,
}

/// Map an `io::Error` to the workspace error, classifying retryability:
/// interruptions, timeouts, and resource pressure are transient;
/// missing files and permissions are not.
fn io_err(op: &str, path: &str, e: &std::io::Error) -> SaError {
    use std::io::ErrorKind::*;
    let transient = matches!(
        e.kind(),
        Interrupted | TimedOut | WouldBlock | ResourceBusy | OutOfMemory | StorageFull
    );
    SaError::Io { transient, context: format!("{op} {path}: {e}") }
}

impl DiskStorage {
    /// A backend rooted at `root` (created, with parents, if missing).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("mkdir", &root.display().to_string(), &e))?;
        Ok(Self { root })
    }

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn abs(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    /// Create parent directories of a relative path, if any.
    fn ensure_parent(&self, path: &str) -> Result<()> {
        if let Some(parent) = self.abs(path).parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("mkdir", path, &e))?;
        }
        Ok(())
    }

    /// fsync the directory containing `path`, making a rename durable.
    fn sync_parent(&self, path: &str) -> Result<()> {
        let abs = self.abs(path);
        let dir = abs.parent().unwrap_or(&self.root);
        let f = fs::File::open(dir).map_err(|e| io_err("open dir", path, &e))?;
        f.sync_all().map_err(|e| io_err("fsync dir", path, &e))
    }
}

impl Storage for DiskStorage {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        fs::read(self.abs(path)).map_err(|e| io_err("read", path, &e))
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.ensure_parent(path)?;
        fs::write(self.abs(path), data).map_err(|e| io_err("write", path, &e))
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.ensure_parent(path)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.abs(path))
            .map_err(|e| io_err("open", path, &e))?;
        f.write_all(data).map_err(|e| io_err("append", path, &e))
    }

    fn sync(&self, path: &str) -> Result<()> {
        let f = fs::File::open(self.abs(path)).map_err(|e| io_err("open", path, &e))?;
        f.sync_all().map_err(|e| io_err("fsync", path, &e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.ensure_parent(to)?;
        fs::rename(self.abs(from), self.abs(to)).map_err(|e| io_err("rename", from, &e))?;
        self.sync_parent(to)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        // Walk from the deepest existing directory of the prefix.
        let dir = match prefix.rfind('/') {
            Some(i) => self.root.join(&prefix[..i]),
            None => self.root.clone(),
        };
        let mut out = Vec::new();
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let entries = match fs::read_dir(&d) {
                Ok(e) => e,
                Err(_) => continue, // prefix directory absent: no matches
            };
            for entry in entries {
                let entry = entry.map_err(|e| io_err("list", prefix, &e))?;
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if let Ok(rel) = p.strip_prefix(&self.root) {
                    let name = rel.to_string_lossy().replace('\\', "/");
                    if name.starts_with(prefix) {
                        out.push(name);
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn remove(&self, path: &str) -> Result<()> {
        match fs::remove_file(self.abs(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", path, &e)),
        }
    }

    fn len(&self, path: &str) -> Result<Option<u64>> {
        match fs::metadata(self.abs(path)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("stat", path, &e)),
        }
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.abs(path))
            .map_err(|e| io_err("open", path, &e))?;
        f.set_len(len).map_err(|e| io_err("truncate", path, &e))?;
        f.sync_all().map_err(|e| io_err("fsync", path, &e))
    }
}

// ---------------------------------------------------------------------
// FaultyStorage
// ---------------------------------------------------------------------

/// Declarative storage-fault plan, seeded and deterministic. Builders
/// compose; everything defaults to off.
#[derive(Clone, Debug, Default)]
pub struct StorageFaults {
    /// Deterministic seed for every fault decision.
    pub seed: u64,
    /// Probability that an `append` writes only a random prefix and
    /// then fails (the crash-mid-append shape the WAL must repair).
    pub torn_append_prob: f64,
    /// Probability that a `read` returns the bytes with one random bit
    /// flipped (silent media corruption — the CRC layer must catch it).
    pub bit_flip_prob: f64,
    /// Probability that any operation fails with a transient `EIO`
    /// before doing anything.
    pub transient_err_prob: f64,
}

impl StorageFaults {
    /// An empty plan under `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.torn_append_prob == 0.0 && self.bit_flip_prob == 0.0 && self.transient_err_prob == 0.0
    }

    /// Builder: torn-append probability.
    pub fn torn_appends(mut self, prob: f64) -> Self {
        self.torn_append_prob = prob;
        self
    }

    /// Builder: read bit-flip probability.
    pub fn bit_flips(mut self, prob: f64) -> Self {
        self.bit_flip_prob = prob;
        self
    }

    /// Builder: transient-error probability on every operation.
    pub fn transient_errors(mut self, prob: f64) -> Self {
        self.transient_err_prob = prob;
        self
    }
}

/// The chaos wrapper: a [`Storage`] that injects the faults of a
/// [`StorageFaults`] plan in front of an inner backend. Reads may come
/// back bit-flipped, appends may tear, any op may throw a transient
/// `EIO` — all seeded, so failures replay identically.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    faults: Mutex<FaultState>,
}

#[derive(Debug)]
struct FaultState {
    plan: StorageFaults,
    rng: SplitMix64,
    torn: u64,
    flipped: u64,
    errors: u64,
}

impl FaultyStorage {
    /// Wrap `inner` with `faults`.
    pub fn new(inner: Arc<dyn Storage>, faults: StorageFaults) -> Self {
        let rng = SplitMix64::new(faults.seed ^ 0x570A_6E5E_ED00_0000);
        Self {
            inner,
            faults: Mutex::new(FaultState { plan: faults, rng, torn: 0, flipped: 0, errors: 0 }),
        }
    }

    /// `(torn appends, bit flips, transient errors)` injected so far.
    pub fn injected(&self) -> (u64, u64, u64) {
        let f = self.faults.lock().unwrap();
        (f.torn, f.flipped, f.errors)
    }

    /// Common per-op gate: maybe a transient error.
    fn gate(&self, op: &str, path: &str) -> Result<()> {
        let fail = {
            let mut f = self.faults.lock().unwrap();
            let p = f.plan.transient_err_prob;
            let fail = p > 0.0 && f.rng.bernoulli(p);
            if fail {
                f.errors += 1;
            }
            fail
        };
        if fail {
            return Err(SaError::io_transient(format!("injected EIO on {op} {path}")));
        }
        Ok(())
    }
}

impl Storage for FaultyStorage {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.gate("read", path)?;
        let mut data = self.inner.read(path)?;
        let flip = {
            let mut f = self.faults.lock().unwrap();
            let p = f.plan.bit_flip_prob;
            if !data.is_empty() && p > 0.0 && f.rng.bernoulli(p) {
                f.flipped += 1;
                let byte = f.rng.index(data.len());
                let bit = f.rng.next_below(8) as u32;
                Some((byte, bit))
            } else {
                None
            }
        };
        if let Some((byte, bit)) = flip {
            data[byte] ^= 1 << bit;
        }
        Ok(data)
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.gate("write", path)?;
        self.inner.write(path, data)
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.gate("append", path)?;
        let cut = {
            let mut f = self.faults.lock().unwrap();
            let p = f.plan.torn_append_prob;
            if !data.is_empty() && p > 0.0 && f.rng.bernoulli(p) {
                f.torn += 1;
                Some(f.rng.index(data.len())) // 0..len-1: always short
            } else {
                None
            }
        };
        match cut {
            Some(cut) => {
                // The torn write: a prefix lands, then the "crash".
                self.inner.append(path, &data[..cut])?;
                Err(SaError::io_transient(format!(
                    "injected torn append on {path}: {cut} of {} bytes landed",
                    data.len()
                )))
            }
            None => self.inner.append(path, data),
        }
    }

    fn sync(&self, path: &str) -> Result<()> {
        self.gate("sync", path)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.gate("rename", from)?;
        self.inner.rename(from, to)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.gate("list", prefix)?;
        self.inner.list(prefix)
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.gate("remove", path)?;
        self.inner.remove(path)
    }

    fn len(&self, path: &str) -> Result<Option<u64>> {
        // No gate: length probes are part of torn-tail *repair*; making
        // them fail would turn every repair into a retry storm.
        self.inner.len(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.gate("truncate", path)?;
        self.inner.truncate(path, len)
    }
}

// ---------------------------------------------------------------------
// Storage stats
// ---------------------------------------------------------------------

/// Monotone I/O counters of one durability client (a WAL or segment
/// set). Shared by `Arc`; surfaced as `storage.*` counters via
/// [`StorageStats::export_metrics`].
#[derive(Debug, Default)]
pub struct StorageStats {
    /// `fsync` calls issued.
    pub fsyncs: AtomicU64,
    /// Bytes handed to `append`/`write` (whether or not they stuck).
    pub bytes_written: AtomicU64,
    /// Torn tails repaired by truncation (at recovery or mid-run).
    pub torn_tails_repaired: AtomicU64,
}

impl StorageStats {
    /// `(fsyncs, bytes_written, torn_tails_repaired)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.fsyncs.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
            self.torn_tails_repaired.load(Ordering::Relaxed),
        )
    }

    /// Register `storage.{fsyncs,bytes_written,torn_tails_repaired}`
    /// on `metrics` and add the current totals, so the
    /// next [`crate::metrics::Metrics::snapshot`] (and its `to_json`)
    /// carries them. One-shot: call once per `Metrics`, at read time.
    pub fn export_metrics(&self, metrics: &crate::metrics::Metrics) {
        let (fsyncs, bytes, torn) = self.totals();
        metrics.register("storage.fsyncs").add(fsyncs);
        metrics.register("storage.bytes_written").add(bytes);
        metrics.register("storage.torn_tails_repaired").add(torn);
    }
}

// ---------------------------------------------------------------------
// Segmented WAL
// ---------------------------------------------------------------------

/// When the WAL `fsync`s relative to appends — the durability/goodput
/// dial T2.K quantifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: a returned commit is on
    /// media before anyone sees an ack.
    Always,
    /// Group commit: `fsync` once per `n` appended records (and on
    /// segment roll / explicit [`Wal::sync`]). A crash can lose the
    /// un-synced suffix — recovery still yields a consistent prefix,
    /// because the WAL totally orders every mutation (see
    /// `checkpoint.rs` module docs).
    EveryN(u32),
    /// Never `fsync` (OS page cache only). The in-memory-comparable
    /// upper bound for benchmarks; survives process kill on a healthy
    /// OS, not power loss.
    Never,
}

/// An append-only sequence of CRC-framed records over [`Storage`],
/// split into rolling segment files `{dir}/{prefix}{seq:06}.wal`.
///
/// * appends frame each record and honour a [`SyncPolicy`];
/// * a failed append repairs its own torn tail (truncate back to the
///   last clean length) before the error propagates, so a later retry
///   starts from a clean boundary;
/// * [`Wal::open`] scans segments in order, verifies every CRC,
///   truncates a torn tail *of the final segment*, and returns every
///   surviving payload for replay. A torn or corrupt frame anywhere
///   else is a loud [`SaError::Corrupt`].
#[derive(Debug)]
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: String,
    prefix: String,
    stats: Arc<StorageStats>,
    policy: SyncPolicy,
    /// Roll to a new segment once the active one exceeds this.
    segment_bytes: u64,
    /// Active segment sequence number.
    seq: u64,
    /// Verified byte length of the active segment (torn-repair point).
    clean_len: u64,
    /// Appends since the last fsync (group-commit accounting).
    unsynced: u32,
}

/// Result of opening a WAL: the handle plus everything it replayed.
#[derive(Debug)]
pub struct WalRecovery {
    /// The opened WAL, positioned to append after the recovered tail.
    pub wal: Wal,
    /// Every surviving record payload, in append order.
    pub payloads: Vec<Vec<u8>>,
}

impl Wal {
    fn segment_name(dir: &str, prefix: &str, seq: u64) -> String {
        format!("{dir}/{prefix}{seq:06}.wal")
    }

    fn active(&self) -> String {
        Self::segment_name(&self.dir, &self.prefix, self.seq)
    }

    /// Parse `{prefix}{seq:06}.wal` → seq.
    fn parse_seq(name: &str, dir: &str, prefix: &str) -> Option<u64> {
        let rest = name.strip_prefix(dir)?.strip_prefix('/')?.strip_prefix(prefix)?;
        rest.strip_suffix(".wal")?.parse().ok()
    }

    /// Open (or create) the WAL under `{dir}/{prefix}*`, replaying
    /// every intact record. `min_seq` excludes segments a snapshot
    /// already covers (they are deleted as stale).
    pub fn open(
        storage: Arc<dyn Storage>,
        dir: &str,
        prefix: &str,
        min_seq: u64,
        policy: SyncPolicy,
        segment_bytes: u64,
        stats: Arc<StorageStats>,
    ) -> Result<WalRecovery> {
        let mut seqs: Vec<u64> = storage
            .list(&format!("{dir}/{prefix}"))?
            .iter()
            .filter_map(|n| Self::parse_seq(n, dir, prefix))
            .collect();
        seqs.sort_unstable();
        let mut payloads = Vec::new();
        let mut last_state = None; // (seq, clean_len)
        let last_live = seqs.iter().rev().find(|&&s| s >= min_seq).copied();
        for &seq in &seqs {
            let name = Self::segment_name(dir, prefix, seq);
            if seq < min_seq {
                // Covered by a snapshot: stale, delete (crash between
                // snapshot rename and segment deletion leaves these).
                storage.remove(&name)?;
                continue;
            }
            let bytes = storage.read(&name)?;
            // Only the final live segment may have a torn tail — an
            // earlier segment was rolled past, which implies it was
            // complete when the next one was created.
            let is_last = Some(seq) == last_live;
            let scan = decode_frames(&bytes, is_last).map_err(|e| match e {
                SaError::Corrupt(msg) => SaError::Corrupt(format!("{name}: {msg}")),
                other => other,
            })?;
            if scan.clean_len < bytes.len() {
                storage.truncate(&name, scan.clean_len as u64)?;
                stats.torn_tails_repaired.fetch_add(1, Ordering::Relaxed);
            }
            payloads.extend(scan.payloads);
            last_state = Some((seq, scan.clean_len as u64));
        }
        let (seq, clean_len) = last_state.unwrap_or((min_seq, 0));
        let wal = Self {
            storage,
            dir: dir.to_string(),
            prefix: prefix.to_string(),
            stats,
            policy,
            segment_bytes,
            seq,
            clean_len,
            unsynced: 0,
        };
        Ok(WalRecovery { wal, payloads })
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<StorageStats> {
        &self.stats
    }

    /// Sequence number of the active segment.
    pub fn active_seq(&self) -> u64 {
        self.seq
    }

    /// Bytes in the active segment's verified prefix.
    pub fn clean_len(&self) -> u64 {
        self.clean_len
    }

    /// Append one framed record, honouring the sync policy. On a torn
    /// append the tail is repaired (truncated back) before the error
    /// returns, so the caller may simply retry.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if self.clean_len >= self.segment_bytes {
            self.roll()?;
        }
        let frame = encode_frame(payload);
        let path = self.active();
        self.stats.bytes_written.fetch_add(frame.len() as u64, Ordering::Relaxed);
        if let Err(e) = self.storage.append(&path, &frame) {
            self.repair(&path)?;
            return Err(e);
        }
        self.clean_len += frame.len() as u64;
        self.unsynced += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Truncate the active segment back to its verified length after a
    /// failed append (the mid-run torn-tail repair).
    fn repair(&mut self, path: &str) -> Result<()> {
        match self.storage.len(path)? {
            Some(len) if len > self.clean_len => {
                self.storage.truncate(path, self.clean_len)?;
                self.stats.torn_tails_repaired.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        Ok(())
    }

    /// Force an `fsync` of the active segment (flush a group commit).
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        if self.storage.len(&self.active())?.is_some() {
            self.storage.sync(&self.active())?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Finish the active segment and start the next one.
    pub fn roll(&mut self) -> Result<()> {
        self.sync()?;
        self.seq += 1;
        self.clean_len = 0;
        Ok(())
    }

    /// Drop every segment at or below `upto_seq` (they are covered by a
    /// snapshot) and continue appending in a fresh segment above them.
    pub fn reset_through(&mut self, upto_seq: u64) -> Result<()> {
        self.sync()?;
        for seq in (0..=upto_seq).rev() {
            let name = Self::segment_name(&self.dir, &self.prefix, seq);
            if self.storage.len(&name)?.is_some() {
                self.storage.remove(&name)?;
            } else {
                break; // older segments were already compacted away
            }
        }
        if self.seq <= upto_seq {
            self.seq = upto_seq + 1;
            self.clean_len = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<dyn Storage> {
        Arc::new(MemStorage::new())
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        // Split across parts == concatenated.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; i as usize * 3]).collect();
        for p in &payloads {
            stream.extend(encode_frame(p));
        }
        let scan = decode_frames(&stream, false).unwrap();
        assert_eq!(scan.payloads, payloads);
        assert_eq!(scan.clean_len, stream.len());
    }

    /// Truncation at EVERY byte offset recovers exactly the prefix of
    /// fully-framed records — never a partial or corrupted record.
    #[test]
    fn truncation_at_every_offset_yields_exact_prefix() {
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0xA5; 5 + i as usize]).collect();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            stream.extend(encode_frame(p));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let scan = decode_frames(&stream[..cut], true)
                .unwrap_or_else(|e| panic!("cut at {cut}: unexpected rejection {e}"));
            // clean_len is the greatest frame boundary ≤ cut…
            let expect_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.payloads.len(), expect_frames, "cut at {cut}");
            assert_eq!(scan.clean_len, boundaries[expect_frames], "cut at {cut}");
            // …and every surviving payload is bit-identical.
            assert_eq!(scan.payloads, payloads[..expect_frames].to_vec(), "cut at {cut}");
        }
    }

    /// A flipped bit in any CRC-covered region of a complete stream is
    /// rejected loudly — or, when it re-frames the tail (length bits),
    /// recovers a strict prefix. It NEVER yields an altered record.
    #[test]
    fn bit_flips_never_yield_wrong_records() {
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i.wrapping_mul(37); 9]).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend(encode_frame(p));
        }
        let mut outcomes = (0u32, 0u32); // (rejected, clean-prefix)
        for byte in 0..stream.len() {
            for bit in 0..8 {
                let mut dirty = stream.clone();
                dirty[byte] ^= 1 << bit;
                match decode_frames(&dirty, true) {
                    Err(SaError::Corrupt(_)) => outcomes.0 += 1,
                    Err(e) => panic!("byte {byte} bit {bit}: wrong error type {e}"),
                    Ok(scan) => {
                        outcomes.1 += 1;
                        // Every recovered record must match the original
                        // — a flip may only shorten the stream.
                        assert!(
                            scan.payloads.len() < payloads.len(),
                            "byte {byte} bit {bit}: flip accepted a full stream"
                        );
                        assert_eq!(
                            scan.payloads,
                            payloads[..scan.payloads.len()].to_vec(),
                            "byte {byte} bit {bit}: recovered records differ"
                        );
                    }
                }
            }
        }
        // Both shapes occur across the sweep (payload/CRC flips reject;
        // high length-bit flips re-frame into a torn tail).
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "sweep degenerate: {outcomes:?}");
    }

    #[test]
    fn strict_mode_rejects_torn_tail() {
        let mut stream = encode_frame(b"hello");
        stream.extend(encode_frame(b"world"));
        stream.truncate(stream.len() - 3);
        assert!(decode_frames(&stream, true).is_ok());
        assert!(matches!(decode_frames(&stream, false), Err(SaError::Corrupt(_))));
    }

    #[test]
    fn mem_storage_contract() {
        let s = MemStorage::new();
        assert!(s.read("x").is_err());
        s.write("a/x", b"12").unwrap();
        s.append("a/x", b"34").unwrap();
        assert_eq!(s.read("a/x").unwrap(), b"1234");
        assert_eq!(s.len("a/x").unwrap(), Some(4));
        s.truncate("a/x", 3).unwrap();
        assert_eq!(s.read("a/x").unwrap(), b"123");
        s.write("a/y", b"zz").unwrap();
        s.write("b/z", b"q").unwrap();
        assert_eq!(s.list("a/").unwrap(), vec!["a/x".to_string(), "a/y".to_string()]);
        s.rename("a/x", "a/w").unwrap();
        assert!(s.read("a/x").is_err());
        assert_eq!(s.read("a/w").unwrap(), b"123");
        s.remove("a/w").unwrap();
        s.remove("a/w").unwrap(); // idempotent
        assert_eq!(s.len("a/w").unwrap(), None);
        s.sync("b/z").unwrap();
    }

    #[test]
    fn disk_storage_contract() {
        let dir = std::env::temp_dir().join(format!(
            "sa-storage-test-{}-{:x}",
            std::process::id(),
            &raw const CRC32_TABLE as usize
        ));
        let _ = fs::remove_dir_all(&dir);
        let s = DiskStorage::new(&dir).unwrap();
        s.write("seg/one.wal", b"abc").unwrap();
        s.append("seg/one.wal", b"def").unwrap();
        s.sync("seg/one.wal").unwrap();
        assert_eq!(s.read("seg/one.wal").unwrap(), b"abcdef");
        assert_eq!(s.len("seg/one.wal").unwrap(), Some(6));
        s.truncate("seg/one.wal", 4).unwrap();
        assert_eq!(s.read("seg/one.wal").unwrap(), b"abcd");
        s.write("seg/two.tmp", b"snap").unwrap();
        s.rename("seg/two.tmp", "seg/two.snap").unwrap();
        assert_eq!(s.read("seg/two.snap").unwrap(), b"snap");
        assert_eq!(
            s.list("seg/").unwrap(),
            vec!["seg/one.wal".to_string(), "seg/two.snap".to_string()]
        );
        assert_eq!(s.len("missing").unwrap(), None);
        s.remove("seg/one.wal").unwrap();
        assert_eq!(s.list("seg/one").unwrap(), Vec::<String>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_recover_round_trip() {
        let storage = mem();
        let stats = Arc::new(StorageStats::default());
        let mut rec = Wal::open(
            storage.clone(),
            "wal",
            "seg-",
            0,
            SyncPolicy::Always,
            1 << 20,
            stats.clone(),
        )
        .unwrap();
        assert!(rec.payloads.is_empty());
        for i in 0..50u32 {
            rec.wal.append(&i.to_le_bytes()).unwrap();
        }
        let (fsyncs, bytes, torn) = stats.totals();
        assert_eq!(fsyncs, 50, "Always policy fsyncs per append");
        assert_eq!(bytes, 50 * (FRAME_HEADER as u64 + 4));
        assert_eq!(torn, 0);
        // Reopen: all 50 payloads replay in order.
        let rec2 = Wal::open(
            storage,
            "wal",
            "seg-",
            0,
            SyncPolicy::Always,
            1 << 20,
            Arc::new(StorageStats::default()),
        )
        .unwrap();
        let nums: Vec<u32> =
            rec2.payloads.iter().map(|p| u32::from_le_bytes(p[..4].try_into().unwrap())).collect();
        assert_eq!(nums, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wal_rolls_segments_and_resets_through() {
        let storage = mem();
        let stats = Arc::new(StorageStats::default());
        // Tiny segments: every record rolls.
        let mut rec =
            Wal::open(storage.clone(), "w", "p-", 0, SyncPolicy::Never, 8, stats).unwrap();
        for i in 0..5u8 {
            rec.wal.append(&[i]).unwrap();
        }
        assert!(rec.wal.active_seq() >= 3, "segments must roll");
        let segs = storage.list("w/p-").unwrap();
        assert!(segs.len() >= 4, "expected many segments, got {segs:?}");
        // Compaction: drop everything through seq 2.
        rec.wal.reset_through(2).unwrap();
        let segs = storage.list("w/p-").unwrap();
        assert!(
            Wal::parse_seq(&segs[0], "w", "p-").unwrap() > 2,
            "stale segments must be deleted: {segs:?}"
        );
        // Reopen with min_seq 3: remaining records replay.
        let rec2 = Wal::open(
            storage,
            "w",
            "p-",
            3,
            SyncPolicy::Never,
            8,
            Arc::new(StorageStats::default()),
        )
        .unwrap();
        assert_eq!(rec2.payloads, vec![vec![3u8], vec![4u8]]);
    }

    #[test]
    fn wal_recovery_truncates_torn_tail_only_in_final_segment() {
        let storage = mem();
        let stats = Arc::new(StorageStats::default());
        let mut rec =
            Wal::open(storage.clone(), "w", "s-", 0, SyncPolicy::Never, 1 << 20, stats).unwrap();
        rec.wal.append(b"alpha").unwrap();
        rec.wal.append(b"beta").unwrap();
        // Tear the tail: a partial frame lands after the clean records.
        storage.append("w/s-000000.wal", &[7, 0, 0, 0, 99]).unwrap();
        let stats2 = Arc::new(StorageStats::default());
        let rec2 =
            Wal::open(storage.clone(), "w", "s-", 0, SyncPolicy::Never, 1 << 20, stats2.clone())
                .unwrap();
        assert_eq!(rec2.payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(stats2.totals().2, 1, "torn tail repair must be counted");
        // The repair truncated the file: a third open is clean.
        let rec3 = Wal::open(
            storage,
            "w",
            "s-",
            0,
            SyncPolicy::Never,
            1 << 20,
            Arc::new(StorageStats::default()),
        )
        .unwrap();
        assert_eq!(rec3.payloads.len(), 2);
    }

    #[test]
    fn wal_recovery_rejects_mid_stream_corruption() {
        let storage = mem();
        let mut rec = Wal::open(
            storage.clone(),
            "w",
            "s-",
            0,
            SyncPolicy::Never,
            1 << 20,
            Arc::new(StorageStats::default()),
        )
        .unwrap();
        rec.wal.append(b"first-record").unwrap();
        rec.wal.append(b"second-record").unwrap();
        // Flip a payload bit of the FIRST record: not a tail, so this
        // must be rejected loudly, not truncated away.
        let mut bytes = storage.read("w/s-000000.wal").unwrap();
        bytes[FRAME_HEADER + 2] ^= 0x10;
        storage.write("w/s-000000.wal", &bytes).unwrap();
        let err = Wal::open(
            storage,
            "w",
            "s-",
            0,
            SyncPolicy::Never,
            1 << 20,
            Arc::new(StorageStats::default()),
        )
        .unwrap_err();
        assert!(matches!(err, SaError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn torn_append_is_repaired_and_retry_succeeds() {
        let inner = mem();
        let faulty =
            Arc::new(FaultyStorage::new(inner.clone(), StorageFaults::new(11).torn_appends(1.0)));
        let stats = Arc::new(StorageStats::default());
        let mut rec =
            Wal::open(faulty.clone(), "w", "s-", 0, SyncPolicy::Always, 1 << 20, stats.clone())
                .unwrap();
        let err = rec.wal.append(b"payload-a").unwrap_err();
        assert!(err.is_transient(), "torn append must be transient: {err}");
        // The repair rolled the partial frame back…
        assert_eq!(inner.len("w/s-000000.wal").unwrap().unwrap_or(0), 0);
        // …so a retry through a now-healthy plan lands cleanly.
        let healthy = Arc::new(FaultyStorage::new(inner.clone(), StorageFaults::new(11)));
        let mut rec2 =
            Wal::open(healthy, "w", "s-", 0, SyncPolicy::Always, 1 << 20, stats.clone()).unwrap();
        rec2.wal.append(b"payload-a").unwrap();
        let scan = decode_frames(&inner.read("w/s-000000.wal").unwrap(), false).unwrap();
        assert_eq!(scan.payloads, vec![b"payload-a".to_vec()]);
        assert!(stats.totals().2 >= 1, "repair must be counted");
    }

    #[test]
    fn faulty_storage_injects_seeded_bit_flips_and_eios() {
        let inner = mem();
        inner.write("f", &[0u8; 64]).unwrap();
        let faulty = FaultyStorage::new(inner, StorageFaults::new(3).bit_flips(1.0));
        let a = faulty.read("f").unwrap();
        assert_eq!(a.iter().map(|b| b.count_ones()).sum::<u32>(), 1, "exactly one bit flipped");
        let eio = FaultyStorage::new(mem(), StorageFaults::new(5).transient_errors(1.0));
        let err = eio.write("x", b"1").unwrap_err();
        assert!(err.is_transient());
        assert!(eio.injected().2 >= 1);
        assert!(StorageFaults::new(0).is_empty());
        assert!(!StorageFaults::new(0).bit_flips(0.1).is_empty());
    }

    #[test]
    fn group_commit_fsyncs_once_per_n() {
        let stats = Arc::new(StorageStats::default());
        let mut rec =
            Wal::open(mem(), "w", "g-", 0, SyncPolicy::EveryN(8), 1 << 20, stats.clone()).unwrap();
        for i in 0..24u8 {
            rec.wal.append(&[i]).unwrap();
        }
        assert_eq!(stats.totals().0, 3, "24 appends / group of 8 = 3 fsyncs");
        rec.wal.append(&[99]).unwrap();
        rec.wal.sync().unwrap();
        assert_eq!(stats.totals().0, 4, "explicit sync flushes the partial group");
        rec.wal.sync().unwrap();
        assert_eq!(stats.totals().0, 4, "nothing unsynced: no fsync");
    }
}
