//! Topology metrics: pre-registered, allocation-free counters, plus the
//! self-instrumenting observability layer (latency histograms, link
//! gauges, backpressure stalls).
//!
//! The emit path is the hottest loop in the executor, so counters there
//! must cost one atomic add — no `String` key construction, no map
//! lookup, no mutex. Components resolve their counter names ONCE at
//! topology-build (worker-spawn) time via [`Metrics::register`], which
//! interns the name and hands back a [`CounterHandle`]: an `Arc` to a
//! cache-line-sharded bank of `AtomicU64` cells plus a fixed shard
//! index. [`CounterHandle::add`] is then a single relaxed `fetch_add`
//! on a shard picked round-robin at registration, so concurrent workers
//! bumping the same logical counter usually touch different cache
//! lines.
//!
//! # Observability: dogfooding the paper's synopses
//!
//! Latency distributions are the platform observing itself with its own
//! Section-2 machinery: a `HistogramHandle` wraps the in-tree
//! Greenwald–Khanna quantile sketch (`sa_sketches::quantiles::GkSketch`)
//! — the same summary MillWheel-style latency tracking is built on — so
//! p50/p90/p99 cost `O((1/ε)·log εn)` space no matter how many samples
//! flow in. Recording is *sampled* (see `Sampler` and
//! `ExecutorConfig::latency_sample_every`): the hot loop pays one
//! branch per tuple and a clock read + sketch insert only every Nth
//! tuple, keeping measured overhead within a few percent (experiment
//! T2.D). Histogram handles, samplers and the pool's per-worker
//! `SchedCounters` are engine-internal (`pub(crate)`): outside the
//! crate, every reading goes through the snapshot.
//!
//! Queue health comes from [`crate::channel::LinkStats`] gauges
//! registered through [`Metrics::register_link`]: live depth (in inbox
//! messages: data batches and control markers alike), high-water mark,
//! and backpressure stalls — the count of
//! bounded `send`s that found the queue full, and the total nanoseconds
//! they spent blocked. This is Heron's backpressure signal, surfaced as
//! a metric instead of a control-plane event.
//!
//! Reads are rare (end-of-run, tests, benches) and go through
//! [`Metrics::snapshot`], which sums the shards, queries the sketches,
//! and reads the gauges into an immutable, serialisable
//! [`MetricsSnapshot`].

use crate::channel::LinkStats;
use sa_core::traits::QuantileSketch;
use sa_sketches::quantiles::GkSketch;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per counter: eight padded cells cover typical worker counts.
const SHARDS: usize = 8;

/// Rank-error budget of latency histograms: ±0.5% of rank, comfortably
/// sharp enough to separate p90 from p99 on thousands of samples.
const HIST_EPSILON: f64 = 0.005;

/// One `AtomicU64` padded out to its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// The sharded storage behind one logical counter.
#[derive(Debug, Default)]
struct CounterCells {
    shards: [PaddedCell; SHARDS],
}

impl CounterCells {
    fn sum(&self) -> u64 {
        self.shards.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A pre-resolved counter: clone-cheap, lock-free, allocation-free.
///
/// Obtained from [`Metrics::register`] at build time; `add` is the only
/// thing the hot loop ever calls.
#[derive(Clone, Debug)]
pub struct CounterHandle {
    cells: Arc<CounterCells>,
    shard: usize,
}

impl CounterHandle {
    /// Increment by `delta`: one relaxed `fetch_add`, no allocation, no
    /// lock.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cells.shards[self.shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total across all shards (all registrants of this name).
    pub fn value(&self) -> u64 {
        self.cells.sum()
    }
}

/// A pre-resolved latency/occupancy histogram over the in-tree GK
/// quantile sketch. Clone-cheap; all registrants of one name share the
/// same sketch, so quantiles aggregate across a component's tasks.
///
/// `record` takes the sketch mutex — callers keep it off the per-tuple
/// path by gating with a [`Sampler`] (every-Nth recording), so the lock
/// is touched orders of magnitude less often than tuples flow.
#[derive(Clone, Debug)]
pub(crate) struct HistogramHandle {
    sketch: Arc<Mutex<GkSketch>>,
}

impl HistogramHandle {
    /// Fold one observation (typically microseconds) into the sketch.
    pub fn record(&self, value: f64) {
        self.sketch.lock().unwrap().insert(value);
    }

    fn summary(&self) -> HistogramSummary {
        let sketch = self.sketch.lock().unwrap();
        HistogramSummary {
            count: sketch.count(),
            p50: sketch.query(0.50).unwrap_or(0.0),
            p90: sketch.query(0.90).unwrap_or(0.0),
            p99: sketch.query(0.99).unwrap_or(0.0),
        }
    }
}

/// A pre-resolved gauge: one shared `AtomicU64` cell, last-write-wins.
/// Used for point-in-time readings (current watermark, watermark lag)
/// where summing across registrants would be meaningless.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle {
    cell: Arc<AtomicU64>,
}

impl GaugeHandle {
    /// Set the gauge: one relaxed store.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current reading.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Per-worker scheduler counters of the pool, bumped on the worker
/// loop's hot path (one relaxed atomic add each). Named
/// `sched.worker{i}.runs` / `.parks` in the snapshot.
#[derive(Clone)]
pub(crate) struct SchedCounters {
    /// Activations this worker executed.
    pub runs: CounterHandle,
    /// Times this worker parked on the run queue's condvar.
    pub parks: CounterHandle,
}

/// Every-Nth gate for sampled recording: the hot loop calls
/// [`Sampler::hit`] per event and only pays for the clock + sketch on a
/// hit. `every = 0` disables sampling entirely (never hits), which is
/// how `ExecutorConfig::latency_sample_every = 0` turns the
/// instrumentation off. The first call after construction hits, so even
/// short runs produce at least one observation per site.
#[derive(Clone, Debug)]
pub(crate) struct Sampler {
    every: u32,
    tick: u32,
}

impl Sampler {
    /// A gate that passes one event in `every` (0 = never).
    pub fn new(every: u32) -> Self {
        Self { every, tick: every.saturating_sub(1) }
    }

    /// Like [`Sampler::new`], but the first hit is deferred by `phase`
    /// events (mod `every`). Co-located tasks sharing one histogram
    /// stagger their phases so sampled hits — and the sketch-mutex
    /// acquisitions they imply — do not line up in lockstep across
    /// threads. `phase = 0` behaves exactly like `new`.
    pub fn with_phase(every: u32, phase: u32) -> Self {
        if every == 0 {
            return Self { every, tick: 0 };
        }
        Self { every, tick: (every - 1).wrapping_sub(phase % every) % every }
    }

    /// Advance; true when this event should be recorded.
    #[inline]
    pub fn hit(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.tick += 1;
        if self.tick >= self.every {
            self.tick = 0;
            true
        } else {
            false
        }
    }
}

/// Shared metrics sink for one topology run. Clones share storage.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    /// Interned counters: name -> cell bank. Touched only at
    /// registration and snapshot time, never per tuple.
    registry: Mutex<HashMap<String, Arc<CounterCells>>>,
    /// Interned histograms: name -> shared GK sketch.
    histograms: Mutex<HashMap<String, HistogramHandle>>,
    /// Interned link gauges: name -> depth/stall atomics.
    links: Mutex<HashMap<String, LinkStats>>,
    /// Interned scalar gauges: name -> shared cell.
    gauges: Mutex<HashMap<String, GaugeHandle>>,
    /// Round-robin shard assignment for successive registrations.
    next_shard: AtomicUsize,
    acked_roots: AtomicU64,
    failed_roots: AtomicU64,
    replayed_roots: AtomicU64,
    dropped_links: AtomicU64,
    task_panics: AtomicU64,
    task_restarts: AtomicU64,
    quarantined_roots: AtomicU64,
    escalations: AtomicU64,
}

impl Metrics {
    /// Empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name` and return a handle bound to one shard of its cell
    /// bank. Registering the same name again returns a handle over the
    /// same cells (next shard), so totals aggregate across workers.
    /// Build-time only — allocates and locks.
    pub fn register(&self, name: &str) -> CounterHandle {
        let mut reg = self.inner.registry.lock().unwrap();
        let cells = reg
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCells::default()))
            .clone();
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
        CounterHandle { cells, shard }
    }

    /// Intern a histogram; same-name registrations share one sketch, so
    /// a component's tasks aggregate into one distribution. Build-time
    /// only.
    pub(crate) fn register_histogram(&self, name: &str) -> HistogramHandle {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| HistogramHandle {
                sketch: Arc::new(Mutex::new(
                    GkSketch::new(HIST_EPSILON).expect("valid histogram epsilon"),
                )),
            })
            .clone()
    }

    /// Intern a link gauge; same-name registrations share the atomics,
    /// so a component's input queues aggregate into one depth/stall
    /// account. Build-time only.
    pub fn register_link(&self, name: &str) -> LinkStats {
        self.inner.links.lock().unwrap().entry(name.to_string()).or_default().clone()
    }

    /// Intern a scalar gauge; same-name registrations share one cell
    /// (last write wins). Build-time only.
    pub fn register_gauge(&self, name: &str) -> GaugeHandle {
        self.inner.gauges.lock().unwrap().entry(name.to_string()).or_default().clone()
    }

    /// Intern the per-worker counters of the pool
    /// (`sched.worker{i}.{runs,parks}`); they land in the snapshot's
    /// counter map like any other metric. Build-time only.
    pub(crate) fn register_sched_worker(&self, worker: usize) -> SchedCounters {
        SchedCounters {
            runs: self.register(&format!("sched.worker{worker}.runs")),
            parks: self.register(&format!("sched.worker{worker}.parks")),
        }
    }

    /// Record an acked root.
    pub fn root_acked(&self) {
        self.inner.acked_roots.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed (to-be-replayed) root.
    pub fn root_failed(&self) {
        self.inner.failed_roots.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a replayed root.
    pub fn root_replayed(&self) {
        self.inner.replayed_roots.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` injected link drops.
    pub fn links_dropped(&self, n: u64) {
        self.inner.dropped_links.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a task panic (caught by the supervision layer).
    pub fn task_panic(&self) {
        self.inner.task_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a supervised task restart.
    pub fn task_restart(&self) {
        self.inner.task_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a root quarantined to a dead-letter output.
    pub fn root_quarantined(&self) {
        self.inner.quarantined_roots.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an escalation (a task exhausted its restart budget).
    pub fn escalated(&self) {
        self.inner.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable view of every counter, histogram, gauge, and root stat
    /// at this instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .registry
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cells)| (name.clone(), cells.sum()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.clone(), h.summary()))
            .collect();
        let links = self
            .inner
            .links
            .lock()
            .unwrap()
            .iter()
            .map(|(name, l)| {
                (
                    name.clone(),
                    LinkSnapshot {
                        depth: l.depth(),
                        high_water: l.high_water(),
                        stalls: l.stalls(),
                        stall_ns: l.stall_ns(),
                    },
                )
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let (allocs, bytes) = crate::alloc_stats::totals();
        MetricsSnapshot {
            counters,
            histograms,
            links,
            gauges,
            allocs,
            bytes,
            acked_roots: self.inner.acked_roots.load(Ordering::Relaxed),
            failed_roots: self.inner.failed_roots.load(Ordering::Relaxed),
            replayed_roots: self.inner.replayed_roots.load(Ordering::Relaxed),
            dropped_links: self.inner.dropped_links.load(Ordering::Relaxed),
            task_panics: self.inner.task_panics.load(Ordering::Relaxed),
            task_restarts: self.inner.task_restarts.load(Ordering::Relaxed),
            quarantined_roots: self.inner.quarantined_roots.load(Ordering::Relaxed),
            escalations: self.inner.escalations.load(Ordering::Relaxed),
        }
    }
}

/// p50/p90/p99 summary of one histogram (units are whatever the
/// recorder fed in — the executor records microseconds for `*_us`
/// names and tuples-per-batch for `*.batch_fill`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Point-in-time view of one link gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Messages currently queued (data batches and control markers).
    pub depth: u64,
    /// Maximum queued messages ever observed (high-water mark).
    pub high_water: u64,
    /// Bounded sends that found the queue full (backpressure events).
    pub stalls: u64,
    /// Total nanoseconds senders spent blocked on full queues.
    pub stall_ns: u64,
}

/// A point-in-time copy of all metrics, detached from the live cells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Named counters, in name order.
    pub counters: BTreeMap<String, u64>,
    /// Named latency/occupancy histograms, in name order.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Named link gauges (queue depth + backpressure), in name order.
    pub links: BTreeMap<String, LinkSnapshot>,
    /// Named scalar gauges (watermarks, watermark lag), in name order.
    pub gauges: BTreeMap<String, u64>,
    /// Cumulative process allocations at snapshot time (see
    /// [`crate::alloc_stats`]); diff two snapshots to meter a region.
    pub allocs: u64,
    /// Cumulative bytes requested from the allocator at snapshot time.
    pub bytes: u64,
    /// Roots fully acked.
    pub acked_roots: u64,
    /// Roots failed (explicitly or by timeout).
    pub failed_roots: u64,
    /// Roots replayed by spouts.
    pub replayed_roots: u64,
    /// Tuples dropped by link failure injection.
    pub dropped_links: u64,
    /// Panics caught by the supervision layer (injected or genuine).
    pub task_panics: u64,
    /// Supervised task restarts granted.
    pub task_restarts: u64,
    /// Roots quarantined to dead-letter outputs.
    pub quarantined_roots: u64,
    /// Tasks that exhausted their restart budget (topology failures).
    pub escalations: u64,
}

impl MetricsSnapshot {
    /// Value of a named counter (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summary of a named histogram (`None` when never registered).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Gauge of a named link (`None` when never registered).
    pub fn link(&self, name: &str) -> Option<&LinkSnapshot> {
        self.links.get(name)
    }

    /// Reading of a named scalar gauge (`None` when never registered).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Total backpressure stall time across every link, in seconds.
    pub fn total_stall_secs(&self) -> f64 {
        self.links.values().map(|l| l.stall_ns as f64 / 1e9).sum()
    }

    /// Render as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape_json(k),
                h.count,
                json_f64(h.p50),
                json_f64(h.p90),
                json_f64(h.p99)
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"links\": {");
        for (i, (k, l)) in self.links.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"depth\": {}, \"high_water\": {}, \"stalls\": {}, \
                 \"stall_ns\": {}}}",
                escape_json(k),
                l.depth,
                l.high_water,
                l.stalls,
                l.stall_ns
            );
        }
        if !self.links.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "}},\n  \"allocs\": {},\n  \"bytes\": {},\n  \
             \"acked_roots\": {},\n  \"failed_roots\": {},\n  \
             \"replayed_roots\": {},\n  \"dropped_links\": {},\n  \
             \"task_panics\": {},\n  \"task_restarts\": {},\n  \
             \"quarantined_roots\": {},\n  \"escalations\": {}\n}}",
            self.allocs,
            self.bytes,
            self.acked_roots,
            self.failed_roots,
            self.replayed_roots,
            self.dropped_links,
            self.task_panics,
            self.task_restarts,
            self.quarantined_roots,
            self.escalations
        );
        out
    }
}

/// Render an f64 as JSON (NaN/∞ have no JSON encoding; clamp to 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_share_cells_by_name() {
        let m = Metrics::new();
        let a = m.register("x.emitted");
        let b = m.register("x.emitted");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        assert_eq!(m.snapshot().counter("x.emitted"), 7);
        assert_eq!(m.snapshot().counter("missing"), 0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_counts() {
        let m = Metrics::new();
        let mut joins = Vec::new();
        for _ in 0..8 {
            let h = m.register("hot");
            joins.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    h.add(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(m.snapshot().counter("hot"), 80_000);
    }

    #[test]
    fn root_stats_roundtrip_through_snapshot() {
        let m = Metrics::new();
        m.root_acked();
        m.root_failed();
        m.root_failed();
        m.root_replayed();
        m.links_dropped(3);
        m.task_panic();
        m.task_panic();
        m.task_restart();
        m.root_quarantined();
        m.escalated();
        let s = m.snapshot();
        assert_eq!(
            (s.acked_roots, s.failed_roots, s.replayed_roots, s.dropped_links),
            (1, 2, 1, 3)
        );
        assert_eq!(
            (s.task_panics, s.task_restarts, s.quarantined_roots, s.escalations),
            (2, 1, 1, 1)
        );
        let json = s.to_json();
        for key in ["task_panics", "task_restarts", "quarantined_roots", "escalations"] {
            assert!(json.contains(&format!("\"{key}\"")), "JSON lost {key}");
        }
    }

    #[test]
    fn snapshot_json_escapes_and_brackets() {
        let m = Metrics::new();
        m.register("a\"b").add(1);
        let json = m.snapshot().to_json();
        assert!(json.contains("\\\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn histograms_aggregate_across_registrants_and_report_quantiles() {
        let m = Metrics::new();
        let a = m.register_histogram("comp.execute_us");
        let b = m.register_histogram("comp.execute_us");
        for i in 1..=1_000 {
            a.record(i as f64);
        }
        b.record(100_000.0); // one outlier from another task
        let s = m.snapshot();
        let h = s.histogram("comp.execute_us").unwrap();
        assert_eq!(h.count, 1_001);
        assert!((h.p50 - 500.0).abs() <= 0.01 * 1_001.0 + 2.0, "p50 = {}", h.p50);
        assert!(h.p99 >= h.p90 && h.p90 >= h.p50);
        assert!(s.histogram("missing").is_none());
        // Quantiles survive JSON rendering.
        let json = s.to_json();
        assert!(json.contains("\"comp.execute_us\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn empty_histogram_snapshots_as_zeros() {
        let m = Metrics::new();
        m.register_histogram("never.recorded");
        let h = *m.snapshot().histogram("never.recorded").unwrap();
        assert_eq!(h, HistogramSummary { count: 0, p50: 0.0, p90: 0.0, p99: 0.0 });
    }

    #[test]
    fn link_registry_roundtrips_through_snapshot() {
        let m = Metrics::new();
        let l = m.register_link("sink.input");
        let same = m.register_link("sink.input");
        l.on_send();
        same.on_send();
        l.on_recv_n(1);
        l.on_stall(1_500);
        let s = m.snapshot();
        let snap = s.link("sink.input").unwrap();
        assert_eq!(snap.depth, 1);
        assert_eq!(snap.high_water, 2);
        assert_eq!(snap.stalls, 1);
        assert_eq!(snap.stall_ns, 1_500);
        assert!(s.total_stall_secs() > 0.0);
        assert!(s.to_json().contains("\"high_water\": 2"));
    }

    #[test]
    fn gauges_last_write_wins_and_render() {
        let m = Metrics::new();
        let a = m.register_gauge("win.watermark");
        let b = m.register_gauge("win.watermark");
        a.set(10);
        b.set(25);
        assert_eq!(a.get(), 25, "same-name registrations share one cell");
        let s = m.snapshot();
        assert_eq!(s.gauge("win.watermark"), Some(25));
        assert_eq!(s.gauge("missing"), None);
        assert!(s.to_json().contains("\"gauges\""));
        assert!(s.to_json().contains("\"win.watermark\": 25"));
    }

    #[test]
    fn sampler_gates_every_nth() {
        let mut s = Sampler::new(4);
        let hits: Vec<bool> = (0..9).map(|_| s.hit()).collect();
        assert_eq!(hits, [true, false, false, false, true, false, false, false, true]);
        let mut off = Sampler::new(0);
        assert!((0..100).all(|_| !off.hit()));
    }
}
