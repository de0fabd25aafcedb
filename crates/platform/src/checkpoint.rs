//! MillWheel-style checkpointed state — the BigTable stand-in.
//!
//! MillWheel's exactly-once recipe: per-key state updates are committed
//! atomically *together with* the id of the record that produced them;
//! on replay, an already-seen id is a duplicate and is dropped. Both
//! halves are properties of the store interface (atomic commit, dedup
//! token set), reproduced here in-process (DESIGN.md §2).
//!
//! ## Durability
//!
//! [`CheckpointStore::durable`] backs the store with a CRC32-framed,
//! group-committed write-ahead log over any [`crate::storage::Storage`]
//! backend, plus atomic tmp-file + rename snapshot compaction. Every
//! mutation appends its WAL record *under the store's mutex, before it
//! touches memory* — so the WAL totally orders all state, and **any
//! prefix of it is a consistent store**. That is the prefix-consistency
//! argument that makes group commit safe: a crash may lose an un-synced
//! WAL suffix, but what recovers is exactly the store as of some earlier
//! committed point — the lost commits lost their dedup tokens *with*
//! their state, so upstream replay re-applies them cleanly. Recovery
//! loads the newest intact snapshot, then replays every surviving WAL
//! record onto it; a torn tail (crash mid-append) is truncated, and any
//! other CRC mismatch is a loud [`SaError::Corrupt`] — the store never
//! silently serves wrong state. The in-memory default
//! ([`CheckpointStore::new`]) is unchanged.

use crate::storage::{decode_frames, encode_frame, Storage, StorageStats, SyncPolicy, Wal};
use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::{Result, SaError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::sync::Mutex;

/// WAL op: batch commit `{key, ids, value}`.
const OP_COMMIT: u8 = b'C';
/// WAL op: unconditional put `{key, value}`.
const OP_PUT: u8 = b'P';
/// WAL op: dedup-token GC `{key, min_record_id}`.
const OP_GC: u8 = b'G';
/// Snapshot payload tag.
const SNAP_TAG: u8 = b'S';

/// Versioned per-key state with dedup tokens. Clones share storage.
#[derive(Clone, Debug, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Inner>>,
}

/// Tuning for a durable store: fsync discipline, segment size, and how
/// often the WAL is compacted into a snapshot.
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// When appends reach media (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Roll the WAL to a new segment past this many bytes.
    pub segment_bytes: u64,
    /// Write a snapshot and drop covered segments every this many
    /// applied WAL records.
    pub snapshot_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self { sync: SyncPolicy::EveryN(32), segment_bytes: 4 << 20, snapshot_every: 8192 }
    }
}

/// Durability attachment: the WAL plus snapshot bookkeeping.
#[derive(Debug)]
struct Durable {
    wal: Wal,
    storage: Arc<dyn Storage>,
    dir: String,
    cfg: DurableConfig,
    stats: Arc<StorageStats>,
    /// Sequence number the next snapshot file will take.
    snap_seq: u64,
    /// Applied WAL records since the last snapshot.
    records_since_snap: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// key → (version, value bytes).
    state: HashMap<String, (u64, Vec<u8>)>,
    /// key → processed record ids at or above the key's watermark, in id
    /// order so GC frees the expired prefix without scanning the rest.
    seen: HashMap<String, BTreeSet<u64>>,
    /// key → low watermark: every id below it is known-processed, so the
    /// `seen` set only has to hold ids at or above it (MillWheel garbage-
    /// collects its dedup tokens the same way, by low watermark).
    watermarks: HashMap<String, u64>,
    commits: u64,
    duplicates: u64,
    /// Commits whose WAL append failed (nothing was applied).
    failed_commits: u64,
    /// Present iff the store writes through a WAL.
    durable: Option<Durable>,
}

impl Inner {
    fn is_duplicate(&self, key: &str, record_id: u64) -> bool {
        record_id < self.watermarks.get(key).copied().unwrap_or(0)
            || self.seen.get(key).is_some_and(|s| s.contains(&record_id))
    }

    // -- pure in-memory mutations, shared by the live path and WAL
    // replay (replay MUST apply exactly what the live path applied) --

    fn apply_commit_batch(&mut self, key: &str, record_ids: &[u64], value: Vec<u8>) -> usize {
        let fresh: Vec<u64> =
            record_ids.iter().copied().filter(|&id| !self.is_duplicate(key, id)).collect();
        self.duplicates += (record_ids.len() - fresh.len()) as u64;
        if fresh.is_empty() {
            return 0;
        }
        let applied = fresh.len();
        self.seen.entry(key.to_string()).or_default().extend(fresh);
        let version = self.state.get(key).map_or(0, |(v, _)| *v) + 1;
        self.state.insert(key.to_string(), (version, value));
        self.commits += 1;
        applied
    }

    fn apply_put(&mut self, key: &str, value: Vec<u8>) {
        let version = self.state.get(key).map_or(0, |(v, _)| *v) + 1;
        self.state.insert(key.to_string(), (version, value));
        self.commits += 1;
    }

    fn apply_gc(&mut self, key: &str, min_record_id: u64) -> usize {
        let wm = self.watermarks.entry(key.to_string()).or_insert(0);
        if min_record_id <= *wm {
            return 0;
        }
        *wm = min_record_id;
        let Some(seen) = self.seen.get_mut(key) else { return 0 };
        // O(log n + freed): split off the live suffix, drop the prefix.
        let live = seen.split_off(&min_record_id);
        std::mem::replace(seen, live).len()
    }

    /// Apply one recovered WAL record.
    fn replay(&mut self, payload: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(payload);
        match r.get_u8()? {
            OP_COMMIT => {
                let key = r.get_str()?;
                let n = r.get_len(8)?;
                let ids: Vec<u64> = (0..n).map(|_| r.get_u64()).collect::<Result<_>>()?;
                let value = r.get_bytes()?.to_vec();
                self.apply_commit_batch(&key, &ids, value);
            }
            OP_PUT => {
                let key = r.get_str()?;
                let value = r.get_bytes()?.to_vec();
                self.apply_put(&key, value);
            }
            OP_GC => {
                let key = r.get_str()?;
                let min = r.get_u64()?;
                self.apply_gc(&key, min);
            }
            op => {
                return Err(SaError::corrupt(format!("unknown checkpoint WAL op {op:#04x}")));
            }
        }
        Ok(())
    }

    /// Append a WAL record (durable stores only), counting it toward the
    /// next snapshot. Errors propagate with nothing applied to memory.
    fn wal_append(&mut self, record: &[u8]) -> Result<()> {
        if let Some(d) = self.durable.as_mut() {
            d.wal.append(record)?;
            d.records_since_snap += 1;
        }
        Ok(())
    }

    /// Compact when due. Compaction failure is swallowed: the threshold
    /// stays exceeded, so the very next record retries it — state and
    /// WAL remain correct either way (recovery deletes stale artifacts).
    fn maybe_compact(&mut self) {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.records_since_snap >= d.cfg.snapshot_every.max(1));
        if due {
            let _ = self.compact();
        }
    }

    /// Write a snapshot of the full state, atomically publish it
    /// (tmp-file + rename), then drop the WAL segments it covers.
    fn compact(&mut self) -> Result<()> {
        let Inner { state, seen, watermarks, commits, duplicates, failed_commits, durable, .. } =
            self;
        let Some(d) = durable.as_mut() else { return Ok(()) };
        // Everything applied so far lives in segments ≤ the active one;
        // after the snapshot they are all covered.
        let covered_seq = d.wal.active_seq();
        let mut w = ByteWriter::with_capacity(1024);
        w.tag(SNAP_TAG);
        w.put_u64(covered_seq + 1); // min live WAL segment after this snapshot
        w.put_u64(*commits).put_u64(*duplicates).put_u64(*failed_commits);
        w.put_u64(state.len() as u64);
        for (k, (ver, val)) in state.iter() {
            w.put_str(k).put_u64(*ver).put_bytes(val);
        }
        w.put_u64(seen.len() as u64);
        for (k, ids) in seen.iter() {
            w.put_str(k).put_u64(ids.len() as u64);
            for &id in ids.iter() {
                w.put_u64(id);
            }
        }
        w.put_u64(watermarks.len() as u64);
        for (k, wm) in watermarks.iter() {
            w.put_str(k).put_u64(*wm);
        }
        let framed = encode_frame(&w.finish());
        let seq = d.snap_seq;
        let tmp = format!("{}/ckpt-{seq:06}.tmp", d.dir);
        let snap = format!("{}/ckpt-{seq:06}.snap", d.dir);
        d.stats.bytes_written.fetch_add(framed.len() as u64, std::sync::atomic::Ordering::Relaxed);
        d.storage.write(&tmp, &framed)?;
        d.storage.sync(&tmp)?;
        d.stats.fsyncs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        d.storage.rename(&tmp, &snap)?;
        // The snapshot is the recovery root now: older snapshots and
        // covered segments are garbage (best-effort — recovery also
        // skips them if a crash lands here).
        d.snap_seq += 1;
        d.records_since_snap = 0;
        for name in d.storage.list(&format!("{}/ckpt-", d.dir))? {
            if let Some(s) = snap_file_seq(&name, &d.dir) {
                if s < seq {
                    d.storage.remove(&name)?;
                }
            }
        }
        d.wal.reset_through(covered_seq)?;
        Ok(())
    }
}

/// Parse `{dir}/ckpt-{seq:06}.snap` → seq.
fn snap_file_seq(name: &str, dir: &str) -> Option<u64> {
    name.strip_prefix(dir)?.strip_prefix("/ckpt-")?.strip_suffix(".snap")?.parse().ok()
}

/// Decode a snapshot payload into `inner`, returning the minimum live
/// WAL segment sequence it records.
fn decode_snapshot(payload: &[u8], inner: &mut Inner) -> Result<u64> {
    let mut r = ByteReader::new(payload);
    r.expect_tag(SNAP_TAG, "checkpoint snapshot")?;
    let min_seq = r.get_u64()?;
    inner.commits = r.get_u64()?;
    inner.duplicates = r.get_u64()?;
    inner.failed_commits = r.get_u64()?;
    let n = r.get_len(1)?;
    for _ in 0..n {
        let key = r.get_str()?;
        let ver = r.get_u64()?;
        let val = r.get_bytes()?.to_vec();
        inner.state.insert(key, (ver, val));
    }
    let n = r.get_len(1)?;
    for _ in 0..n {
        let key = r.get_str()?;
        let m = r.get_len(8)?;
        let ids: BTreeSet<u64> = (0..m).map(|_| r.get_u64()).collect::<Result<_>>()?;
        inner.seen.insert(key, ids);
    }
    let n = r.get_len(1)?;
    for _ in 0..n {
        let key = r.get_str()?;
        let wm = r.get_u64()?;
        inner.watermarks.insert(key, wm);
    }
    r.finish()?;
    Ok(min_seq)
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or recover) a durable store under `{dir}` of `storage`.
    ///
    /// Recovery: load the newest intact snapshot (CRC-verified; a
    /// mismatch is a loud [`SaError::Corrupt`]), delete stale artifacts
    /// a crash mid-compaction may have left (`.tmp` files, covered
    /// segments, older snapshots), then replay every surviving WAL
    /// record onto it — truncating a torn tail of the final segment.
    pub fn durable(storage: Arc<dyn Storage>, dir: &str, cfg: DurableConfig) -> Result<Self> {
        let stats = Arc::new(StorageStats::default());
        let mut inner = Inner::default();
        let mut min_seq = 0u64;
        let mut snap_seq = 0u64;
        let mut newest: Option<(u64, String)> = None;
        for name in storage.list(&format!("{dir}/ckpt-"))? {
            if name.ends_with(".tmp") {
                storage.remove(&name)?; // crash between write and rename
            } else if let Some(seq) = snap_file_seq(&name, dir) {
                if newest.as_ref().is_none_or(|(s, _)| seq > *s) {
                    newest = Some((seq, name));
                }
            }
        }
        if let Some((seq, name)) = newest {
            let bytes = storage.read(&name)?;
            let scan = decode_frames(&bytes, false)
                .map_err(|e| SaError::corrupt(format!("snapshot {name}: {e}")))?;
            let [payload] = scan.payloads.as_slice() else {
                return Err(SaError::corrupt(format!(
                    "snapshot {name}: expected 1 frame, found {}",
                    scan.payloads.len()
                )));
            };
            min_seq = decode_snapshot(payload, &mut inner)
                .map_err(|e| SaError::corrupt(format!("snapshot {name}: {e}")))?;
            snap_seq = seq + 1;
        }
        let rec = Wal::open(
            storage.clone(),
            dir,
            "wal-",
            min_seq,
            cfg.sync,
            cfg.segment_bytes,
            stats.clone(),
        )?;
        for payload in &rec.payloads {
            inner.replay(payload)?;
        }
        inner.durable = Some(Durable {
            wal: rec.wal,
            storage,
            dir: dir.to_string(),
            cfg,
            stats,
            snap_seq,
            records_since_snap: 0,
        });
        Ok(Self { inner: Arc::new(Mutex::new(inner)) })
    }

    /// The durable backend's I/O counters (`None` on in-memory stores).
    pub fn storage_stats(&self) -> Option<Arc<StorageStats>> {
        self.inner.lock().unwrap().durable.as_ref().map(|d| Arc::clone(&d.stats))
    }

    /// Flush any group-committed WAL suffix to media (no-op in-memory).
    pub fn sync(&self) -> Result<()> {
        match self.inner.lock().unwrap().durable.as_mut() {
            Some(d) => d.wal.sync(),
            None => Ok(()),
        }
    }

    /// Force snapshot compaction now (no-op in-memory).
    pub fn compact(&self) -> Result<()> {
        self.inner.lock().unwrap().compact()
    }

    /// Read a key's current `(version, value)`.
    pub fn get(&self, key: &str) -> Option<(u64, Vec<u8>)> {
        self.inner.lock().unwrap().state.get(key).cloned()
    }

    /// Atomically: if `record_id` was already committed for `key`,
    /// return `false` (duplicate — state unchanged); otherwise apply
    /// `update` to the current value, bump the version, remember the id,
    /// and return `true`.
    ///
    /// This is the MillWheel "strong production" primitive: state
    /// mutation and dedup-token insertion are one atomic step, so a
    /// crash between them is impossible.
    ///
    /// # Panics
    ///
    /// On a storage-backend write error of a durable store (nothing was
    /// mutated; the WAL append repairs its own torn tail).
    pub fn commit<F>(&self, key: &str, record_id: u64, update: F) -> bool
    where
        F: FnOnce(Option<&[u8]>) -> Vec<u8>,
    {
        let mut inner = self.inner.lock().unwrap();
        if inner.is_duplicate(key, record_id) {
            inner.duplicates += 1;
            return false;
        }
        let current = inner.state.get(key).map(|(_, v)| v.clone());
        let new = update(current.as_deref());
        if inner.durable.is_some() {
            let mut w = ByteWriter::with_capacity(32 + key.len() + new.len());
            w.tag(OP_COMMIT).put_str(key).put_u64(1).put_u64(record_id).put_bytes(&new);
            inner.wal_append(&w.finish()).expect("durable checkpoint commit failed");
        }
        inner.apply_commit_batch(key, &[record_id], new);
        inner.maybe_compact();
        true
    }

    /// Atomically commit a *batch* of record ids together with a full
    /// replacement `value` for `key`. Ids already seen are counted as
    /// duplicates; if at least one id is fresh, all fresh ids enter the
    /// dedup set and the value is installed in the same critical
    /// section. Returns the number of fresh ids applied (0 means the
    /// whole batch was a replay and the state is untouched).
    ///
    /// This is the operator layer's checkpoint primitive: a synopsis
    /// snapshot and the ids of every tuple folded into it land
    /// atomically, so a crash can never separate them.
    ///
    /// # Errors
    ///
    /// Fails on a storage-backend write error of a durable store (a
    /// transient [`SaError::Io`] is safe to retry; tests inject one with
    /// [`crate::storage::FaultyStorage`]). On `Err` nothing was mutated:
    /// no id entered the dedup set, the stored value and version are
    /// untouched — callers must keep their pending state and retry a
    /// later commit.
    pub fn commit_batch(&self, key: &str, record_ids: &[u64], value: Vec<u8>) -> Result<usize> {
        let mut inner = self.inner.lock().unwrap();
        // A pure replay touches no state, so it writes no WAL record.
        let any_fresh = record_ids.iter().any(|&id| !inner.is_duplicate(key, id));
        if any_fresh && inner.durable.is_some() {
            let mut w = ByteWriter::with_capacity(32 + key.len() + value.len());
            w.tag(OP_COMMIT).put_str(key).put_u64(record_ids.len() as u64);
            for &id in record_ids {
                w.put_u64(id);
            }
            w.put_bytes(&value);
            if let Err(e) = inner.wal_append(&w.finish()) {
                inner.failed_commits += 1;
                return Err(e);
            }
        }
        let applied = inner.apply_commit_batch(key, record_ids, value);
        if applied > 0 {
            inner.maybe_compact();
        }
        Ok(applied)
    }

    /// Commits [`CheckpointStore::commit_batch`] rejected because the
    /// storage backend failed the WAL append.
    pub fn failed_commits(&self) -> u64 {
        self.inner.lock().unwrap().failed_commits
    }

    /// Whether `record_id` has already been committed for `key` (either
    /// below the watermark or in the dedup set).
    pub fn is_seen(&self, key: &str, record_id: u64) -> bool {
        self.inner.lock().unwrap().is_duplicate(key, record_id)
    }

    /// Garbage-collect dedup tokens: raise `key`'s low watermark to
    /// `min_record_id` (never lowering it) and drop every stored token
    /// below it. Returns the number of tokens freed. Tokens are kept in
    /// id order, so a GC costs O(log n + freed) however many tokens stay
    /// live. Callers must only raise the watermark past ids that can no
    /// longer be replayed.
    pub fn gc(&self, key: &str, min_record_id: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        if min_record_id <= inner.watermarks.get(key).copied().unwrap_or(0) {
            return 0;
        }
        if inner.durable.is_some() {
            let mut w = ByteWriter::with_capacity(24 + key.len());
            w.tag(OP_GC).put_str(key).put_u64(min_record_id);
            // GC is an optimization: on a transient storage error, skip
            // it (dedup stays correct, just larger) rather than fail.
            if inner.wal_append(&w.finish()).is_err() {
                return 0;
            }
        }
        let freed = inner.apply_gc(key, min_record_id);
        inner.maybe_compact();
        freed
    }

    /// Number of dedup tokens currently held for `key` (GC diagnostic).
    pub fn seen_tokens(&self, key: &str) -> usize {
        self.inner.lock().unwrap().seen.get(key).map_or(0, BTreeSet::len)
    }

    /// Unconditional (non-deduped) write, used by batch layers.
    pub fn put(&self, key: &str, value: Vec<u8>) {
        self.try_put(key, value).expect("durable checkpoint put failed")
    }

    /// [`CheckpointStore::put`] with storage errors surfaced instead of
    /// panicking.
    pub fn try_put(&self, key: &str, value: Vec<u8>) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.durable.is_some() {
            let mut w = ByteWriter::with_capacity(24 + key.len() + value.len());
            w.tag(OP_PUT).put_str(key).put_bytes(&value);
            inner.wal_append(&w.finish())?;
        }
        inner.apply_put(key, value);
        inner.maybe_compact();
        Ok(())
    }

    /// Snapshot of all keys (for serving-layer style scans).
    pub fn scan(&self) -> Vec<(String, Vec<u8>)> {
        self.inner.lock().unwrap().state.iter().map(|(k, (_, v))| (k.clone(), v.clone())).collect()
    }

    /// (commits, duplicates-dropped) counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.commits, inner.duplicates)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().state.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Helper: little-endian i64 counters stored in the value bytes.
pub fn counter_add(current: Option<&[u8]>, delta: i64) -> Vec<u8> {
    let cur = current.and_then(|b| b.try_into().ok()).map_or(0, i64::from_le_bytes);
    (cur + delta).to_le_bytes().to_vec()
}

/// Helper: read an i64 counter value.
pub fn counter_value(bytes: &[u8]) -> i64 {
    bytes.try_into().map_or(0, i64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_applies_once_per_record_id() {
        let store = CheckpointStore::new();
        assert!(store.commit("k", 1, |c| counter_add(c, 5)));
        assert!(store.commit("k", 2, |c| counter_add(c, 3)));
        // Replay of record 1: dropped.
        assert!(!store.commit("k", 1, |c| counter_add(c, 5)));
        let (version, value) = store.get("k").unwrap();
        assert_eq!(version, 2);
        assert_eq!(counter_value(&value), 8);
        assert_eq!(store.stats(), (2, 1));
    }

    #[test]
    fn dedup_is_per_key() {
        let store = CheckpointStore::new();
        assert!(store.commit("a", 1, |c| counter_add(c, 1)));
        // Same record id on a different key is a different commit.
        assert!(store.commit("b", 1, |c| counter_add(c, 1)));
    }

    #[test]
    fn concurrent_commits_are_atomic() {
        let store = CheckpointStore::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    // Half the ids collide across threads → dedup.
                    let id = t * 1_000 + i;
                    s.commit("ctr", id / 2 + (t % 2) * 1_000_000, |c| counter_add(c, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (_, value) = store.get("ctr").unwrap();
        let (commits, dups) = store.stats();
        assert_eq!(counter_value(&value) as u64, commits);
        assert_eq!(commits + dups, 8_000);
    }

    #[test]
    fn put_and_scan() {
        let store = CheckpointStore::new();
        store.put("x", vec![1]);
        store.put("y", vec![2]);
        store.put("x", vec![3]);
        assert_eq!(store.get("x").unwrap(), (2, vec![3]));
        let mut scan = store.scan();
        scan.sort();
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn commit_batch_is_atomic_and_dedups() {
        let store = CheckpointStore::new();
        assert_eq!(store.commit_batch("k", &[1, 2, 3], vec![10]).unwrap(), 3);
        // Overlapping replay: only the fresh id applies, value replaced.
        assert_eq!(store.commit_batch("k", &[2, 3, 4], vec![20]).unwrap(), 1);
        let (version, value) = store.get("k").unwrap();
        assert_eq!((version, value), (2, vec![20]));
        // Full replay: state untouched, no version bump.
        assert_eq!(store.commit_batch("k", &[1, 4], vec![99]).unwrap(), 0);
        assert_eq!(store.get("k").unwrap(), (2, vec![20]));
        let (commits, dups) = store.stats();
        assert_eq!((commits, dups), (2, 4));
    }

    #[test]
    fn gc_raises_watermark_and_frees_tokens() {
        let store = CheckpointStore::new();
        let ids: Vec<u64> = (0..100).collect();
        store.commit_batch("k", &ids, vec![1]).unwrap();
        assert_eq!(store.seen_tokens("k"), 100);
        assert_eq!(store.gc("k", 60), 60);
        assert_eq!(store.seen_tokens("k"), 40);
        // Ids below the watermark still count as duplicates...
        assert!(store.is_seen("k", 5));
        assert!(!store.commit("k", 5, |_| vec![2]));
        assert_eq!(store.commit_batch("k", &[10, 200], vec![3]).unwrap(), 1);
        // ...and the watermark never moves backwards.
        assert_eq!(store.gc("k", 30), 0);
        assert!(store.is_seen("k", 45));
        assert!(!store.is_seen("k", 150));
    }

    #[test]
    fn counter_helpers() {
        assert_eq!(counter_value(&counter_add(None, 7)), 7);
        let b = counter_add(Some(&5i64.to_le_bytes()), -2);
        assert_eq!(counter_value(&b), 3);
        assert_eq!(counter_value(&[1, 2]), 0, "malformed bytes read as 0");
    }

    // -- durability --

    use crate::storage::{FaultyStorage, MemStorage, Storage, StorageFaults};
    use sa_core::rng::SplitMix64;
    use std::collections::HashSet;

    fn mem() -> Arc<dyn Storage> {
        Arc::new(MemStorage::new())
    }

    fn fast_cfg() -> DurableConfig {
        DurableConfig { sync: SyncPolicy::Always, segment_bytes: 1 << 16, snapshot_every: u64::MAX }
    }

    /// Full state — commits, dedup tokens, watermarks, puts — survives
    /// a reopen against the same storage.
    #[test]
    fn durable_store_recovers_full_state() {
        let storage = mem();
        {
            let store = CheckpointStore::durable(storage.clone(), "ckpt", fast_cfg()).unwrap();
            store.commit_batch("a", &[1, 2, 3], vec![10]).unwrap();
            store.commit_batch("a", &[2, 4], vec![20]).unwrap();
            assert!(store.commit("b", 7, |c| counter_add(c, 5)));
            store.put("c", vec![30]);
            store.gc("a", 3);
        }
        let store = CheckpointStore::durable(storage, "ckpt", fast_cfg()).unwrap();
        assert_eq!(store.get("a").unwrap(), (2, vec![20]));
        assert_eq!(counter_value(&store.get("b").unwrap().1), 5);
        assert_eq!(store.get("c").unwrap(), (1, vec![30]));
        // Dedup state survives: replayed ids are still duplicates...
        assert_eq!(store.commit_batch("a", &[1, 2, 3, 4], vec![99]).unwrap(), 0);
        assert!(!store.commit("b", 7, |c| counter_add(c, 5)));
        // ...including below the recovered GC watermark.
        assert!(store.is_seen("a", 0));
        assert_eq!(store.seen_tokens("a"), 2, "tokens below watermark 3 stay dropped");
    }

    /// Compaction (snapshot + segment GC) preserves state and dedup, and
    /// actually removes covered WAL segments.
    #[test]
    fn durable_store_compacts_and_recovers_from_snapshot() {
        let storage = mem();
        let cfg = DurableConfig {
            sync: SyncPolicy::EveryN(4),
            segment_bytes: 256, // force frequent rolls
            snapshot_every: 10,
        };
        {
            let store = CheckpointStore::durable(storage.clone(), "d", cfg).unwrap();
            for i in 0..100u64 {
                store.commit_batch(&format!("k{}", i % 7), &[i], vec![i as u8]).unwrap();
            }
            store.sync().unwrap();
        }
        let snaps: Vec<String> =
            storage.list("d/ckpt-").unwrap().into_iter().filter(|n| n.ends_with(".snap")).collect();
        assert_eq!(snaps.len(), 1, "exactly one live snapshot: {snaps:?}");
        let store = CheckpointStore::durable(storage.clone(), "d", cfg).unwrap();
        for i in 0..100u64 {
            assert!(store.is_seen(&format!("k{}", i % 7), i), "id {i} lost");
        }
        let (commits, _) = store.stats();
        assert_eq!(commits, 100);
        // Forced compaction drops all live segments.
        store.compact().unwrap();
        let wals = storage.list("d/wal-").unwrap();
        assert!(wals.is_empty(), "covered segments must be deleted: {wals:?}");
        drop(store);
        let store = CheckpointStore::durable(storage, "d", cfg).unwrap();
        assert!(store.is_seen("k3", 3));
    }

    /// A torn WAL tail (crash mid-append) is truncated at recovery; the
    /// store comes back as the consistent prefix.
    #[test]
    fn durable_store_truncates_torn_tail() {
        let storage = mem();
        {
            let store = CheckpointStore::durable(storage.clone(), "t", fast_cfg()).unwrap();
            store.commit_batch("k", &[1], vec![1]).unwrap();
            store.commit_batch("k", &[2], vec![2]).unwrap();
        }
        // Simulate the crash: garbage half-frame at the tail.
        storage.append("t/wal-000000.wal", &[200, 1, 0, 0, 9, 9]).unwrap();
        let store = CheckpointStore::durable(storage, "t", fast_cfg()).unwrap();
        assert_eq!(store.get("k").unwrap(), (2, vec![2]));
        assert_eq!(store.storage_stats().unwrap().totals().2, 1, "repair counted");
    }

    /// Mid-stream corruption (bit rot, not a torn tail) is a loud typed
    /// error — never a silently wrong store.
    #[test]
    fn durable_store_rejects_corrupt_wal_and_snapshot() {
        let storage = mem();
        {
            let store = CheckpointStore::durable(storage.clone(), "c", fast_cfg()).unwrap();
            store.commit_batch("k", &[1], vec![1]).unwrap();
            store.commit_batch("k", &[2], vec![2]).unwrap();
        }
        let mut bytes = storage.read("c/wal-000000.wal").unwrap();
        let mid = bytes.len() / 4;
        bytes[mid] ^= 0x40;
        storage.write("c/wal-000000.wal", &bytes).unwrap();
        let err = CheckpointStore::durable(storage.clone(), "c", fast_cfg()).unwrap_err();
        assert!(matches!(err, SaError::Corrupt(_)), "got {err}");
        // Same discipline for snapshots.
        let storage2 = mem();
        {
            let store = CheckpointStore::durable(storage2.clone(), "s", fast_cfg()).unwrap();
            store.put("k", vec![1]);
            store.compact().unwrap();
        }
        let snap = storage2.list("s/ckpt-").unwrap().pop().unwrap();
        let mut bytes = storage2.read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        storage2.write(&snap, &bytes).unwrap();
        let err = CheckpointStore::durable(storage2, "s", fast_cfg()).unwrap_err();
        assert!(matches!(err, SaError::Corrupt(_)), "got {err}");
    }

    /// A torn append through `FaultyStorage` fails the commit cleanly —
    /// no dedup token, no value, no version bump (the atomicity half of
    /// the MillWheel contract under storage faults) and the failure
    /// counted — the tail is repaired, and the retry both succeeds and
    /// recovers.
    #[test]
    fn durable_store_survives_torn_appends_with_retry() {
        let inner_storage = mem();
        let faulty = Arc::new(FaultyStorage::new(
            inner_storage.clone(),
            StorageFaults::new(77).torn_appends(0.5),
        ));
        let store = CheckpointStore::durable(faulty, "f", fast_cfg()).unwrap();
        let mut failures = 0u64;
        for i in 0..50u64 {
            // Bounded retry: transient torn appends eventually land.
            let mut tries = 0;
            loop {
                let before = store.get("k");
                match store.commit_batch("k", &[i], vec![i as u8]) {
                    Ok(n) => {
                        assert_eq!(n, 1, "id {i}: failed attempt must not leak a dedup token");
                        break;
                    }
                    Err(e) if e.is_transient() && tries < 64 => {
                        tries += 1;
                        failures += 1;
                        assert_eq!(store.get("k"), before, "id {i}: failed commit mutated state");
                        assert!(!store.is_seen("k", i), "id {i}: failed commit leaked a token");
                        assert_eq!(store.failed_commits(), failures, "failure not counted");
                    }
                    Err(e) => panic!("id {i}: {e}"),
                }
            }
        }
        assert!(failures > 0, "the fault plan must have fired");
        drop(store);
        // Recovery over the healthy inner storage sees all 50 commits.
        let store = CheckpointStore::durable(inner_storage, "f", fast_cfg()).unwrap();
        for i in 0..50u64 {
            assert!(store.is_seen("k", i), "id {i} lost after torn-append retries");
        }
        let (commits, _) = store.stats();
        assert_eq!(commits, 50);
    }

    /// A failed commit must mutate nothing: no dedup token, no value,
    /// no version bump — the atomicity half of the MillWheel contract
    /// under storage faults — and a reopen over healthy storage sees the
    /// pre-failure state, so the retry commits the ids the failed attempt
    /// carried.
    #[test]
    fn injected_commit_failure_leaves_store_untouched() {
        let storage = mem();
        let store = CheckpointStore::durable(storage.clone(), "u", fast_cfg()).unwrap();
        store.commit_batch("k", &[1, 2], vec![10]).unwrap();
        drop(store);
        // Reopen behind a plan under which every append tears.
        let faulty =
            Arc::new(FaultyStorage::new(storage.clone(), StorageFaults::new(42).torn_appends(1.0)));
        let store = CheckpointStore::durable(faulty, "u", fast_cfg()).unwrap();
        let err = store.commit_batch("k", &[3, 4], vec![20]).unwrap_err();
        assert!(err.is_transient() && format!("{err}").contains("torn append"), "got: {err}");
        assert_eq!(store.failed_commits(), 1);
        assert_eq!(store.get("k").unwrap(), (1, vec![10]), "failed commit mutated state");
        assert!(!store.is_seen("k", 3), "failed commit leaked a dedup token");
        drop(store);
        let store = CheckpointStore::durable(storage, "u", fast_cfg()).unwrap();
        assert_eq!(store.get("k").unwrap(), (1, vec![10]), "torn append survived recovery");
        assert!(!store.is_seen("k", 3), "torn append leaked a token into recovery");
        assert_eq!(store.commit_batch("k", &[3, 4], vec![20]).unwrap(), 2);
        assert_eq!(store.get("k").unwrap(), (2, vec![20]));
        assert_eq!(store.failed_commits(), 0, "healthy store fails nothing");
    }

    /// Ids committed out of order — fresh runs, replays below the GC
    /// watermark and replays above it — then GC'd: every `gc` frees
    /// exactly the tokens below the new watermark and returns that count,
    /// and the store reopened through WAL replay, and again from a
    /// compacted snapshot, answers `is_seen` identically for every id.
    #[test]
    fn gc_frees_exactly_the_expired_tokens_and_recovers_identically() {
        const IDS: u64 = 2_400;
        let storage = mem();
        let store = CheckpointStore::durable(storage.clone(), "o", fast_cfg()).unwrap();
        let mut rng = SplitMix64::new(9);
        // Reference model: a plain hash set filtered by `retain`.
        let mut model: HashSet<u64> = HashSet::new();
        let mut wm = 0u64;
        for round in 0..40u64 {
            let mut ids: Vec<u64> = (0..16).map(|_| round * 50 + rng.next_below(200)).collect();
            ids.extend((0..4).map(|_| rng.next_below(round * 50 + 1)));
            rng.shuffle(&mut ids);
            store.commit_batch("k", &ids, vec![round as u8]).unwrap();
            model.extend(ids.iter().filter(|&&id| id >= wm));
            if round % 3 == 2 {
                let target = wm + rng.next_below(150);
                let before = model.len();
                if target > wm {
                    model.retain(|&id| id >= target);
                    wm = target;
                }
                assert_eq!(store.gc("k", target), before - model.len(), "round {round}");
                assert_eq!(store.seen_tokens("k"), model.len());
            }
        }
        assert!(wm > 0 && !model.is_empty(), "the sequence must GC and keep tokens");
        let expected: Vec<bool> = (0..IDS).map(|id| id < wm || model.contains(&id)).collect();
        let check = |store: &CheckpointStore, when: &str| {
            let answers: Vec<bool> = (0..IDS).map(|id| store.is_seen("k", id)).collect();
            assert_eq!(answers, expected, "is_seen {when}");
            assert_eq!(store.seen_tokens("k"), model.len(), "seen_tokens {when}");
        };
        check(&store, "live");
        drop(store);
        let store = CheckpointStore::durable(storage.clone(), "o", fast_cfg()).unwrap();
        check(&store, "after WAL replay");
        store.compact().unwrap();
        drop(store);
        assert!(storage.list("o/wal-").unwrap().is_empty(), "compaction covers the WAL");
        let store = CheckpointStore::durable(storage, "o", fast_cfg()).unwrap();
        check(&store, "after compaction");
    }

    /// Group commit (`EveryN`) fsyncs far less than `Always` for the
    /// same workload — the durability dial T2.K quantifies.
    #[test]
    fn group_commit_reduces_fsyncs() {
        let run = |sync: SyncPolicy| {
            let storage = mem();
            let cfg = DurableConfig { sync, segment_bytes: 1 << 20, snapshot_every: u64::MAX };
            let store = CheckpointStore::durable(storage, "g", cfg).unwrap();
            for i in 0..64u64 {
                store.commit_batch("k", &[i], vec![0]).unwrap();
            }
            store.sync().unwrap();
            store.storage_stats().unwrap().totals().0
        };
        assert_eq!(run(SyncPolicy::Always), 64);
        assert_eq!(run(SyncPolicy::EveryN(16)), 4);
    }
}
