//! A durable partitioned log — the Kafka stand-in that gives this
//! workspace Samza's persistence/replay semantics and the Lambda
//! architecture's immutable master dataset (see DESIGN.md §2 for the
//! substitution argument: Samza's guarantees derive from log semantics
//! — append, offset, replay — which are reproduced here exactly).
//!
//! [`Log::durable`] backs every partition with CRC32-framed segment
//! files over a [`crate::storage::Storage`] backend ([`crate::storage`]
//! documents the framing). Appends and trims write through the
//! partition's write-ahead segments before touching memory, so
//! `LogSpout` replay and `frontier_offset` survive a real process kill:
//! recovery re-reads the segments, truncates a torn tail (crash
//! mid-append), and rejects any other CRC mismatch loudly. The
//! in-memory constructor ([`Log::new`]) is unchanged and remains the
//! default.

use crate::storage::{Storage, StorageStats, SyncPolicy, Wal};
use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::{Result, SaError};
use std::sync::Arc;
use std::sync::RwLock;

/// Segment-record op: append `{key, value, event_time?}`.
const OP_APPEND: u8 = b'A';
/// Segment-record op: trim `{upto_offset}`.
const OP_TRIM: u8 = b'T';

/// One record in a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Partition-local offset.
    pub offset: u64,
    /// Partitioning key.
    pub key: String,
    /// Payload.
    pub value: Vec<u8>,
    /// Event time of the record, when the producer stamped one
    /// ([`Log::append_at`]). Replayed tuples restore this stamp so
    /// they re-enter the same event-time windows after a crash.
    pub event_time: Option<u64>,
}

/// Retained suffix of one partition. Offsets are absolute and stable
/// across retention: record `offset` lives at index `offset - base`.
#[derive(Debug, Default)]
struct Partition {
    /// Offset of the oldest retained record (= number trimmed away).
    base: u64,
    records: Vec<Record>,
    /// Present iff the partition writes through durable segments.
    wal: Option<Wal>,
}

impl Partition {
    /// In-memory append (shared by the live path and segment replay).
    fn apply_append(&mut self, key: String, value: Vec<u8>, event_time: Option<u64>) -> u64 {
        let offset = self.base + self.records.len() as u64;
        self.records.push(Record { offset, key, value, event_time });
        offset
    }

    /// In-memory trim (shared by the live path and segment replay).
    fn apply_trim(&mut self, upto_offset: u64) -> usize {
        let end = self.base + self.records.len() as u64;
        let cut = upto_offset.min(end).saturating_sub(self.base) as usize;
        if cut == 0 {
            return 0;
        }
        self.records.drain(..cut);
        self.base += cut as u64;
        cut
    }

    /// Apply one recovered segment record.
    fn replay(&mut self, payload: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(payload);
        match r.get_u8()? {
            OP_APPEND => {
                let key = r.get_str()?;
                let value = r.get_bytes()?.to_vec();
                let event_time = if r.get_bool()? { Some(r.get_u64()?) } else { None };
                self.apply_append(key, value, event_time);
            }
            OP_TRIM => {
                let upto = r.get_u64()?;
                self.apply_trim(upto);
            }
            op => return Err(SaError::corrupt(format!("unknown log segment op {op:#04x}"))),
        }
        Ok(())
    }
}

/// An append-only, partitioned, replayable log. Cloning shares the
/// underlying storage (it is the "cluster-wide" log).
#[derive(Clone, Debug)]
pub struct Log {
    partitions: Arc<Vec<RwLock<Partition>>>,
    stats: Option<Arc<StorageStats>>,
}

impl Log {
    /// A log with `partitions ≥ 1` partitions.
    pub fn new(partitions: usize) -> sa_core::Result<Self> {
        if partitions == 0 {
            return Err(sa_core::SaError::invalid("partitions", "must be positive"));
        }
        Ok(Self {
            partitions: Arc::new(
                (0..partitions).map(|_| RwLock::new(Partition::default())).collect(),
            ),
            stats: None,
        })
    }

    /// Open (or recover) a durable log under `{dir}` of `storage`:
    /// partition `p` lives in segments `{dir}/p{p}/seg-*.wal`. Recovery
    /// replays every intact record of every partition, truncating a
    /// torn tail (crash mid-append) and rejecting any other CRC
    /// mismatch with [`SaError::Corrupt`].
    pub fn durable(
        storage: Arc<dyn Storage>,
        dir: &str,
        partitions: usize,
        sync: SyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self> {
        if partitions == 0 {
            return Err(SaError::invalid("partitions", "must be positive"));
        }
        let stats = Arc::new(StorageStats::default());
        let mut parts = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let rec = Wal::open(
                storage.clone(),
                &format!("{dir}/p{p}"),
                "seg-",
                0,
                sync,
                segment_bytes,
                stats.clone(),
            )?;
            let mut part = Partition { wal: Some(rec.wal), ..Partition::default() };
            for payload in &rec.payloads {
                part.replay(payload).map_err(|e| match e {
                    SaError::Corrupt(msg) => SaError::Corrupt(format!("partition {p}: {msg}")),
                    other => other,
                })?;
            }
            parts.push(RwLock::new(part));
        }
        Ok(Self { partitions: Arc::new(parts), stats: Some(stats) })
    }

    /// The durable backend's I/O counters (`None` on in-memory logs).
    pub fn storage_stats(&self) -> Option<Arc<StorageStats>> {
        self.stats.clone()
    }

    /// Flush group-committed segment suffixes of every partition to
    /// media (no-op in-memory).
    pub fn sync(&self) -> Result<()> {
        for part in self.partitions.iter() {
            if let Some(wal) = part.write().unwrap().wal.as_mut() {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition a key routes to.
    pub fn partition_of(&self, key: &str) -> usize {
        (sa_core::hash::hash64(key, 0x10C) % self.partitions.len() as u64) as usize
    }

    /// Append by key; returns `(partition, offset)`.
    ///
    /// # Panics
    ///
    /// On a durable log, panics if the segment write fails; use
    /// [`Log::try_append`] where storage faults must be handled.
    pub fn append(&self, key: &str, value: Vec<u8>) -> (usize, u64) {
        self.try_append(key, value, None).expect("durable log append failed")
    }

    /// Append by key with an event-time stamp; returns
    /// `(partition, offset)`. Spouts replaying the log re-stamp tuples
    /// from this field, keeping windowed results deterministic across
    /// crashes.
    ///
    /// # Panics
    ///
    /// On a durable log, panics if the segment write fails; use
    /// [`Log::try_append`] where storage faults must be handled.
    pub fn append_at(&self, key: &str, value: Vec<u8>, event_time: u64) -> (usize, u64) {
        self.try_append(key, value, Some(event_time)).expect("durable log append failed")
    }

    /// Append with storage errors surfaced instead of panicking. On
    /// `Err` nothing was appended (the segment repairs its own torn
    /// tail), and a transient error is safe to retry.
    pub fn try_append(
        &self,
        key: &str,
        value: Vec<u8>,
        event_time: Option<u64>,
    ) -> Result<(usize, u64)> {
        let p = self.partition_of(key);
        let mut part = self.partitions[p].write().unwrap();
        if part.wal.is_some() {
            let mut w = ByteWriter::with_capacity(32 + key.len() + value.len());
            w.tag(OP_APPEND).put_str(key).put_bytes(&value);
            match event_time {
                Some(et) => w.put_bool(true).put_u64(et),
                None => w.put_bool(false),
            };
            let record = w.finish();
            part.wal.as_mut().unwrap().append(&record)?;
        }
        let offset = part.apply_append(key.to_string(), value, event_time);
        Ok((p, offset))
    }

    /// Read up to `max` records from a partition starting at `offset`.
    /// Reads below the retention point resume at the oldest retained
    /// record (Kafka's `auto.offset.reset = earliest`).
    pub fn read(&self, partition: usize, offset: u64, max: usize) -> Vec<Record> {
        let part = self.partitions[partition].read().unwrap();
        let skip = offset.saturating_sub(part.base) as usize;
        part.records.iter().skip(skip).take(max).cloned().collect()
    }

    /// End offset (next offset to be written) of a partition.
    pub fn end_offset(&self, partition: usize) -> u64 {
        let part = self.partitions[partition].read().unwrap();
        part.base + part.records.len() as u64
    }

    /// Oldest retained offset of a partition (0 until trimmed).
    pub fn start_offset(&self, partition: usize) -> u64 {
        self.partitions[partition].read().unwrap().base
    }

    /// Retention: discard records of `partition` with offsets below
    /// `upto_offset`. Offsets of surviving records are unchanged —
    /// consumers keep their positions. Returns the number removed.
    ///
    /// Safety rule (as with Kafka retention vs. committed offsets): only
    /// trim below every consumer's committed offset and below every
    /// checkpoint's replay point, or recovery will skip records.
    pub fn trim(&self, partition: usize, upto_offset: u64) -> usize {
        let mut part = self.partitions[partition].write().unwrap();
        if part.wal.is_some() {
            let mut w = ByteWriter::with_capacity(16);
            w.tag(OP_TRIM).put_u64(upto_offset);
            let record = w.finish();
            // Retention is an optimization: on a transient storage
            // error, skip the trim (replay just retains more) rather
            // than fail the caller.
            if part.wal.as_mut().unwrap().append(&record).is_err() {
                return 0;
            }
        }
        part.apply_trim(upto_offset)
    }

    /// Records currently retained in one partition.
    pub fn partition_len(&self, partition: usize) -> usize {
        self.partitions[partition].read().unwrap().records.len()
    }

    /// Total retained records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.read().unwrap().records.len()).sum()
    }

    /// Whether the log retains no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_round_trip() {
        let log = Log::new(4).unwrap();
        let (p, o) = log.append("user1", b"hello".to_vec());
        assert_eq!(o, 0);
        let recs = log.read(p, 0, 10);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value, b"hello");
        assert_eq!(recs[0].key, "user1");
    }

    #[test]
    fn same_key_same_partition_ordered() {
        let log = Log::new(8).unwrap();
        for i in 0..100u32 {
            log.append("k", i.to_le_bytes().to_vec());
        }
        let p = log.partition_of("k");
        let recs = log.read(p, 0, 1000);
        assert_eq!(recs.len(), 100);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(r.value, (i as u32).to_le_bytes().to_vec());
        }
    }

    #[test]
    fn keys_spread_over_partitions() {
        let log = Log::new(8).unwrap();
        for i in 0..1000u32 {
            log.append(&format!("k{i}"), vec![]);
        }
        let mut used = 0;
        for p in 0..8 {
            if log.end_offset(p) > 0 {
                used += 1;
            }
        }
        assert!(used >= 6, "only {used} partitions used");
    }

    #[test]
    fn trim_preserves_offsets_of_survivors() {
        let log = Log::new(1).unwrap();
        for i in 0..10u8 {
            log.append("k", vec![i]);
        }
        assert_eq!(log.trim(0, 4), 4);
        assert_eq!(log.partition_len(0), 6);
        assert_eq!(log.start_offset(0), 4);
        assert_eq!(log.end_offset(0), 10);
        // Surviving records keep their absolute offsets.
        let recs = log.read(0, 6, 100);
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].offset, 6);
        assert_eq!(recs[0].value, vec![6]);
        // A read below the retention point resumes at the oldest record.
        assert_eq!(log.read(0, 0, 100)[0].offset, 4);
        // Appends continue from the same offset sequence.
        let (_, o) = log.append("k", vec![99]);
        assert_eq!(o, 10);
        // Trimming past the end clears the partition but keeps offsets.
        assert_eq!(log.trim(0, 1_000), 7);
        assert_eq!(log.partition_len(0), 0);
        assert_eq!(log.end_offset(0), 11);
        assert_eq!(log.trim(0, 5), 0, "watermark never lowers");
    }

    #[test]
    fn append_at_preserves_event_time_across_replay() {
        let log = Log::new(1).unwrap();
        log.append("k", vec![0]);
        log.append_at("k", vec![1], 0); // epoch 0 is a valid stamp
        log.append_at("k", vec![2], 1_000);
        let recs = log.read(0, 0, 10);
        assert_eq!(recs[0].event_time, None);
        assert_eq!(recs[1].event_time, Some(0));
        assert_eq!(recs[2].event_time, Some(1_000));
        // A second read (replay) sees the same stamps.
        assert_eq!(log.read(0, 0, 10), recs);
    }

    #[test]
    fn clones_share_storage() {
        let log = Log::new(2).unwrap();
        let log2 = log.clone();
        log.append("a", vec![1]);
        assert_eq!(log2.len(), 1);
    }

    #[test]
    fn invalid_partitions() {
        assert!(Log::new(0).is_err());
    }

    // -- durability --

    use crate::storage::MemStorage;

    fn mem() -> Arc<dyn Storage> {
        Arc::new(MemStorage::new())
    }

    /// Records, offsets, event-time stamps, and retention state all
    /// survive a reopen against the same storage.
    #[test]
    fn durable_log_recovers_records_offsets_and_trim() {
        let storage = mem();
        {
            let log = Log::durable(storage.clone(), "log", 2, SyncPolicy::Always, 1 << 16).unwrap();
            for i in 0..20u8 {
                log.append(&format!("k{}", i % 5), vec![i]);
            }
            log.append_at("k0", vec![99], 1_234);
            let p = log.partition_of("k0");
            log.trim(p, 2);
        }
        let log = Log::durable(storage, "log", 2, SyncPolicy::Always, 1 << 16).unwrap();
        assert_eq!(log.len(), 21 - 2);
        let p = log.partition_of("k0");
        assert_eq!(log.start_offset(p), 2, "retention point survives");
        let recs = log.read(p, 0, 100);
        assert_eq!(recs[0].offset, 2, "absolute offsets survive");
        let last = recs.last().unwrap();
        assert_eq!((last.value.clone(), last.event_time), (vec![99], Some(1_234)));
        // Appends continue the same offset sequence.
        let (_, o) = log.append("k0", vec![100]);
        assert_eq!(o, log.end_offset(p) - 1);
    }

    /// A torn tail in one partition's final segment is truncated; every
    /// fully-framed record before it replays.
    #[test]
    fn durable_log_truncates_torn_tail() {
        let storage = mem();
        {
            let log = Log::durable(storage.clone(), "l", 1, SyncPolicy::Always, 1 << 16).unwrap();
            log.append("a", vec![1]);
            log.append("b", vec![2]);
        }
        storage.append("l/p0/seg-000000.wal", &[50, 0, 0, 0, 1, 2, 3]).unwrap();
        let log = Log::durable(storage, "l", 1, SyncPolicy::Always, 1 << 16).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.storage_stats().unwrap().totals().2, 1, "repair counted");
    }

    /// Mid-stream corruption is rejected loudly, naming the partition.
    #[test]
    fn durable_log_rejects_corruption() {
        let storage = mem();
        {
            let log = Log::durable(storage.clone(), "l", 1, SyncPolicy::Always, 1 << 16).unwrap();
            log.append("a", vec![1]);
            log.append("b", vec![2]);
        }
        let mut bytes = storage.read("l/p0/seg-000000.wal").unwrap();
        bytes[10] ^= 0x04;
        storage.write("l/p0/seg-000000.wal", &bytes).unwrap();
        let err = Log::durable(storage, "l", 1, SyncPolicy::Always, 1 << 16).unwrap_err();
        assert!(matches!(err, sa_core::SaError::Corrupt(_)), "got {err}");
    }

    /// Group commit batches fsyncs across appends to the same partition.
    #[test]
    fn durable_log_group_commit() {
        let storage = mem();
        let log = Log::durable(storage, "g", 1, SyncPolicy::EveryN(8), 1 << 20).unwrap();
        for i in 0..32u8 {
            log.append("k", vec![i]);
        }
        assert_eq!(log.storage_stats().unwrap().totals().0, 4);
        log.sync().unwrap();
        assert_eq!(log.storage_stats().unwrap().totals().0, 4, "nothing unsynced after 32/8");
    }
}
