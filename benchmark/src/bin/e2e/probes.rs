//! The harness's decorators: everything the benchmark learns about a
//! layer *during* a run it learns from outside, by wrapping a public
//! trait (`Spout`, `Storage`) or a closure it hands to the engine (the
//! aggregate's `update`).

use sa_benchmark::trace::Tracer;
use sa_benchmark::{host, stats};
use sa_platform::{CheckpointStore, Spout, Storage, Tuple};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call in this many is timed by the sampling probes. Coprime with
/// the read chunk (256) and the batch size (64): a power of two would
/// sample every chunk refill and report sixteen times its share.
const SAMPLE_EVERY: u64 = 17;
/// Calls grouped into one span (the executor's default batch size).
const SPAN_CALLS: u64 = 64;
/// Source reads grouped into one span (`LogSpout`'s read chunk).
const SPAN_READS: u64 = 256;
/// The source read at which the spout decorator counts live threads.
const THREADS_AT: u64 = 1_024;
/// Calls between thread-CPU readings (and checkpoint-size samples).
const CPU_EVERY: u64 = 4_096;

/// Sampled call durations (ns). Probes report their *median*: a call
/// that was preempted half-way, or that page-faulted, is an outlier a
/// mean would follow and a median ignores.
#[derive(Default)]
pub struct Samples(Mutex<Vec<f64>>);

impl Samples {
    fn push(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as f64;
        self.0.lock().expect("sample list poisoned").push(ns);
    }

    /// Median sampled duration, net of the clock reads around a call.
    pub fn median_ns(&self, clock_ns: f64) -> Option<f64> {
        let samples = self.0.lock().expect("sample list poisoned");
        stats::median(&samples).map(|ns| (ns - clock_ns).max(0.0))
    }
}

/// What a sampled call reads as when it does nothing: the median cost
/// of the two clock reads around it, measured once so sampled durations
/// can be reported net of it.
pub fn clock_pair_ns() -> f64 {
    let empty = Samples::default();
    for _ in 0..5_000 {
        empty.push(std::hint::black_box(Instant::now()));
    }
    empty.median_ns(0.0).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Spout decorator
// ---------------------------------------------------------------------

/// What the harness shares with its spout decorator.
#[derive(Default)]
pub struct SourceGauge {
    /// Tuples handed to the engine so far (the spout's log position
    /// when it started at offset 0).
    pub emitted: AtomicU64,
    /// While set, the spout reports itself pending so an idle engine
    /// keeps polling the log (the open-loop producer is still running).
    pub keep_alive: AtomicBool,
    /// Traced pass only: live threads of the process, read mid-run from
    /// inside the spout (after `run` returns the engine's are gone).
    pub threads: AtomicU64,
    /// Traced pass only: sizes (bytes) of the first aggregation task's
    /// stored checkpoint, sampled from inside the spout mid-run.
    checkpoint_bytes: Mutex<Vec<f64>>,
    /// Traced pass only: sampled `next_tuple` durations.
    pub next_ns: Samples,
}

impl SourceGauge {
    /// Take the checkpoint sizes sampled so far.
    pub fn take_checkpoint_bytes(&self) -> Vec<f64> {
        std::mem::take(&mut *self.checkpoint_bytes.lock().expect("sample list poisoned"))
    }
}

/// Wraps the job's `LogSpout`: counts emissions, keeps the run alive
/// for an open-loop producer, and (traced) times source reads.
pub struct ProbeSpout {
    inner: Box<dyn Spout>,
    gauge: Arc<SourceGauge>,
    tracer: Option<Arc<Tracer>>,
    /// Traced: the store and the checkpoint key to sample sizes from.
    checkpoints: Option<(CheckpointStore, String)>,
    calls: u64,
    chunk_start: Option<Instant>,
}

impl ProbeSpout {
    pub fn new(
        inner: Box<dyn Spout>,
        gauge: Arc<SourceGauge>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Self { inner, gauge, tracer, checkpoints: None, calls: 0, chunk_start: None }
    }

    /// Traced: also sample the size of the checkpoint stored under `key`.
    pub fn sampling(mut self, store: &CheckpointStore, key: String) -> Self {
        self.checkpoints = Some((store.clone(), key));
        self
    }
}

impl Spout for ProbeSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let Some(tracer) = &self.tracer else {
            let t = self.inner.next_tuple();
            if t.is_some() {
                self.gauge.emitted.fetch_add(1, Ordering::Relaxed);
            }
            return t;
        };
        let timed = self.calls.is_multiple_of(SAMPLE_EVERY);
        let start = (timed || self.chunk_start.is_none()).then(Instant::now);
        let t = self.inner.next_tuple();
        if t.is_none() {
            return t;
        }
        self.calls += 1;
        let emitted = self.gauge.emitted.fetch_add(1, Ordering::Relaxed) + 1;
        if timed {
            self.gauge.next_ns.push(start.expect("timed calls read the clock"));
        }
        if self.calls == THREADS_AT {
            self.gauge.threads.store(host::thread_count() as u64, Ordering::Relaxed);
        }
        if self.calls.is_multiple_of(CPU_EVERY) {
            if let Some((_, value)) = self.checkpoints.as_ref().and_then(|(s, k)| s.get(k)) {
                self.gauge
                    .checkpoint_bytes
                    .lock()
                    .expect("sample list poisoned")
                    .push(value.len() as f64);
            }
        }
        if self.chunk_start.is_none() {
            self.chunk_start = start;
        }
        if self.calls.is_multiple_of(SPAN_READS) {
            if let Some(begin) = self.chunk_start.take() {
                tracer.record("source.read_chunk", begin, Instant::now(), emitted);
            }
        }
        t
    }

    fn ack(&mut self, root: u64) {
        self.inner.ack(root);
    }

    fn fail(&mut self, root: u64) -> bool {
        self.inner.fail(root)
    }

    fn pending(&self) -> usize {
        let pending = self.inner.pending();
        if self.gauge.keep_alive.load(Ordering::Acquire) {
            pending.max(1)
        } else {
            pending
        }
    }

    fn quarantine(&mut self, root: u64) -> Option<Tuple> {
        self.inner.quarantine(root)
    }
}

// ---------------------------------------------------------------------
// Update-closure decorator
// ---------------------------------------------------------------------

/// Per-task counters of the wrapped `update` closure. The engine clones
/// the closure once per aggregation task; each clone owns one slot.
#[derive(Default)]
pub struct TaskSlot {
    pub calls: AtomicU64,
    update_ns: Samples,
    /// Thread on-CPU ns and wall ns at the first and latest reading.
    cpu_first: AtomicU64,
    cpu_last: AtomicU64,
    wall_first: AtomicU64,
    wall_last: AtomicU64,
}

/// Shared side of the update decorator.
pub struct UpdateProbe {
    tracer: Arc<Tracer>,
    origin: Instant,
    slots: Mutex<Vec<Arc<TaskSlot>>>,
}

/// What the traced run learned about the aggregation tasks.
pub struct UpdateSummary {
    /// Calls per task that ran (tasks that never ran are dropped).
    pub calls_per_task: Vec<u64>,
    /// Median self time of one `update` call, net of the clock reads.
    pub update_ns: Option<f64>,
    /// On-CPU share of the aggregation task threads over the interval
    /// they were observed (thread-per-task: the thread *is* the task).
    pub busy_share: Option<f64>,
}

impl UpdateProbe {
    pub fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(Self { tracer, origin: Instant::now(), slots: Mutex::new(Vec::new()) })
    }

    pub fn summary(&self, clock_ns: f64) -> UpdateSummary {
        let slots = self.slots.lock().expect("slot list poisoned");
        let live: Vec<&Arc<TaskSlot>> =
            slots.iter().filter(|s| s.calls.load(Ordering::Relaxed) > 0).collect();
        let per_task: Vec<f64> =
            live.iter().filter_map(|s| s.update_ns.median_ns(clock_ns)).collect();
        let (mut cpu, mut wall) = (0u64, 0u64);
        for s in &live {
            cpu += s.cpu_last.load(Ordering::Relaxed) - s.cpu_first.load(Ordering::Relaxed);
            wall += s.wall_last.load(Ordering::Relaxed) - s.wall_first.load(Ordering::Relaxed);
        }
        UpdateSummary {
            calls_per_task: live.iter().map(|s| s.calls.load(Ordering::Relaxed)).collect(),
            update_ns: stats::mean(&per_task),
            busy_share: (wall > 0).then(|| cpu as f64 / wall as f64),
        }
    }
}

/// The per-clone side: lives inside the closure the engine owns.
pub struct UpdateLocal {
    probe: Arc<UpdateProbe>,
    slot: Arc<TaskSlot>,
    calls: u64,
    batch_start: Option<Instant>,
}

impl UpdateLocal {
    pub fn new(probe: Arc<UpdateProbe>) -> Self {
        let slot = Arc::new(TaskSlot::default());
        probe.slots.lock().expect("slot list poisoned").push(slot.clone());
        Self { probe, slot, calls: 0, batch_start: None }
    }

    /// Run one `update` call under the probe. `key` is the tuple's
    /// stable record id: the identifier its spans share.
    #[inline]
    pub fn call(&mut self, key: u64, update: impl FnOnce()) {
        if self.calls.is_multiple_of(CPU_EVERY) {
            self.read_cpu();
        }
        if self.batch_start.is_none() {
            self.batch_start = Some(Instant::now());
        }
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            update();
            self.slot.update_ns.push(start);
        } else {
            update();
        }
        self.calls += 1;
        self.slot.calls.fetch_add(1, Ordering::Relaxed);
        if self.calls.is_multiple_of(SPAN_CALLS) {
            if let Some(begin) = self.batch_start.take() {
                self.probe.tracer.record("operator.update_batch", begin, Instant::now(), key);
            }
        }
    }

    fn read_cpu(&mut self) {
        let cpu = host::thread_cpu_ns();
        let wall = self.probe.origin.elapsed().as_nanos() as u64;
        if self.calls == 0 {
            self.slot.cpu_first.store(cpu, Ordering::Relaxed);
            self.slot.wall_first.store(wall, Ordering::Relaxed);
        }
        self.slot.cpu_last.store(cpu, Ordering::Relaxed);
        self.slot.wall_last.store(wall, Ordering::Relaxed);
    }
}

impl Clone for UpdateLocal {
    /// A clone is a new task's closure: it gets its own slot.
    fn clone(&self) -> Self {
        Self::new(self.probe.clone())
    }
}

// ---------------------------------------------------------------------
// Storage decorator
// ---------------------------------------------------------------------

/// Timings and counts of one storage backend, as seen from outside.
#[derive(Default)]
pub struct StorageLedger {
    pub append_us: Mutex<Vec<f64>>,
    pub sync_ms: Mutex<Vec<f64>>,
    pub fsyncs: AtomicU64,
    pub bytes_written: AtomicU64,
    /// Total ns inside `append` + `write` + `sync` + `rename`.
    pub busy_ns: AtomicU64,
    seq: AtomicU64,
}

impl StorageLedger {
    /// Start a new measurement interval (between drain rounds).
    pub fn reset(&self) {
        self.append_us.lock().expect("ledger poisoned").clear();
        self.sync_ms.lock().expect("ledger poisoned").clear();
        for c in [&self.fsyncs, &self.bytes_written, &self.busy_ns] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Wraps the workload's `Storage` and records every mutating call.
#[derive(Debug)]
pub struct TracedStorage {
    inner: Arc<dyn Storage>,
    ledger: Arc<StorageLedger>,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for StorageLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageLedger").finish_non_exhaustive()
    }
}

impl TracedStorage {
    pub fn new(inner: Arc<dyn Storage>, ledger: Arc<StorageLedger>, tracer: Arc<Tracer>) -> Self {
        Self { inner, ledger, tracer }
    }

    fn timed<T>(&self, name: &'static str, op: impl FnOnce() -> T) -> (T, f64) {
        let key = self.ledger.seq.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = op();
        let end = Instant::now();
        self.tracer.record(name, start, end, key);
        let ns = (end - start).as_nanos() as u64;
        self.ledger.busy_ns.fetch_add(ns, Ordering::Relaxed);
        (out, ns as f64)
    }
}

impl Storage for TracedStorage {
    fn read(&self, path: &str) -> sa_core::Result<Vec<u8>> {
        self.timed("storage.read", || self.inner.read(path)).0
    }

    fn write(&self, path: &str, data: &[u8]) -> sa_core::Result<()> {
        self.ledger.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.timed("storage.write", || self.inner.write(path, data)).0
    }

    fn append(&self, path: &str, data: &[u8]) -> sa_core::Result<()> {
        self.ledger.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let (out, ns) = self.timed("storage.append", || self.inner.append(path, data));
        self.ledger.append_us.lock().expect("ledger poisoned").push(ns / 1e3);
        out
    }

    fn sync(&self, path: &str) -> sa_core::Result<()> {
        self.ledger.fsyncs.fetch_add(1, Ordering::Relaxed);
        let (out, ns) = self.timed("storage.sync", || self.inner.sync(path));
        self.ledger.sync_ms.lock().expect("ledger poisoned").push(ns / 1e6);
        out
    }

    fn rename(&self, from: &str, to: &str) -> sa_core::Result<()> {
        self.timed("storage.rename", || self.inner.rename(from, to)).0
    }

    fn list(&self, prefix: &str) -> sa_core::Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn remove(&self, path: &str) -> sa_core::Result<()> {
        self.inner.remove(path)
    }

    fn len(&self, path: &str) -> sa_core::Result<Option<u64>> {
        self.inner.len(path)
    }

    fn truncate(&self, path: &str, len: u64) -> sa_core::Result<()> {
        self.inner.truncate(path, len)
    }
}
