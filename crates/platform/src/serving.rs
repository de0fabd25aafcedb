//! The serving index: an epoch-swapped table for the Lambda
//! Architecture's stage 3 (and for every view compiled by
//! [`crate::query`]).
//!
//! The paper's serving layer "indexes batch views for low-latency
//! queries": many readers sustain point/merge queries while a writer
//! (the speed layer, or a batch run) publishes new views.
//! [`ServingView`] does it in safe code. Each publish builds an
//! immutable [`EpochData`] off to the side and shares it as an `Arc`,
//! so no read is ever torn. Eight cache-line-aligned shards, each a
//! `RwLock<Arc<EpochData>>`, hold the newest generation; a reader
//! thread is assigned one shard round-robin and read-locks it for one
//! lookup, so sixteen readers do not convoy on one lock word. `publish`
//! write-locks shard 0 (which serialises publishers), swaps every other
//! shard's `Arc`, then shard 0's. A thread always reads the same shard,
//! so its epochs never go backwards. The trade: a publish may wait, per
//! shard, for a reader holding it for one lookup and value clone. A
//! replaced generation is freed once no [`ServingView::snapshot`] holds
//! it. `tests/serving.rs` drives seeded writer/reader interleavings
//! against both guarantees: no torn reads, monotone epochs.
//!
//! [`QueryHandle`] composes two views — batch and speed — into the
//! paper's stage-5 merged query, tagging every answer with its epoch
//! and [`Staleness`] metadata.

use crate::metrics::{GaugeHandle, HistogramHandle, Metrics};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Reader shards, one cache line each.
const SHARDS: usize = 8;

/// One in this many point queries gets a clock read + histogram insert
/// when the view is instrumented (the `{view}.query_us` metric).
const QUERY_SAMPLE_EVERY: u64 = 64;

/// One immutable published generation of a serving view.
#[derive(Debug)]
pub struct EpochData<V> {
    /// Generation number: 0 is the empty pre-publish epoch; `publish`
    /// increments by one.
    pub epoch: u64,
    /// Progress marker the writer stamped on this generation — for the
    /// Lambda layers it is "events ingested when this view was built",
    /// for windowed views the served event-time frontier. Readers turn
    /// it into [`Staleness::behind`].
    pub covers: u64,
    /// When this generation was swapped in.
    pub published: Instant,
    /// The indexed view itself.
    pub table: HashMap<String, V>,
}

/// One reader shard on its own cache line: the newest generation and
/// the shard's `query_us` sampling counter.
#[repr(align(64))]
struct Shard<V> {
    current: RwLock<Arc<EpochData<V>>>,
    samples: AtomicU64,
}

struct Inner<V> {
    /// Shard 0's write lock also serialises publishers.
    shards: [Shard<V>; SHARDS],
    /// Sampled point-query latency (`{view}.query_us`), when
    /// instrumented.
    query_us: Option<HistogramHandle>,
    /// Published generation number (`{view}.epoch`), when instrumented.
    epoch_gauge: Option<GaugeHandle>,
}

/// Reader shards are assigned round-robin per thread, once.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static READER_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// An epoch-swapped serving index. Clone-cheap (`Arc` inside): hand one
/// clone to the publishing side and as many as you like to readers.
pub struct ServingView<V> {
    inner: Arc<Inner<V>>,
}

impl<V> Clone for ServingView<V> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<V> Default for ServingView<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ServingView<V> {
    /// An empty view at epoch 0.
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// An empty view reporting into `metrics`: point-query latency as
    /// the `{name}.query_us` histogram (sampled 1-in-64) and the
    /// published generation as the `{name}.epoch` gauge, both visible
    /// in [`crate::MetricsSnapshot`].
    pub fn instrumented(name: &str, metrics: &Metrics) -> Self {
        Self::build(
            Some(metrics.register_histogram(&format!("{name}.query_us"))),
            Some(metrics.register_gauge(&format!("{name}.epoch"))),
        )
    }

    fn build(query_us: Option<HistogramHandle>, epoch_gauge: Option<GaugeHandle>) -> Self {
        let zero = Arc::new(EpochData {
            epoch: 0,
            covers: 0,
            published: Instant::now(),
            table: HashMap::new(),
        });
        let shards = std::array::from_fn(|_| Shard {
            current: RwLock::new(Arc::clone(&zero)),
            samples: AtomicU64::new(0),
        });
        Self { inner: Arc::new(Inner { shards, query_us, epoch_gauge }) }
    }

    /// This thread's reader shard.
    fn shard(&self) -> &Shard<V> {
        &self.inner.shards[READER_SHARD.with(|s| *s)]
    }

    /// Run `f` against the current epoch under this thread's shard read
    /// lock. The closure must be short: it is what a publish may wait
    /// for.
    fn read<R>(&self, f: impl FnOnce(&Arc<EpochData<V>>) -> R) -> R {
        f(&self.shard().current.read().unwrap())
    }

    /// Publish the next generation: `table` becomes the new epoch,
    /// stamped with the `covers` progress marker. Returns the new epoch
    /// number. Concurrent publishers serialise on shard 0; a publish
    /// waits on each shard only for the reader holding it.
    pub fn publish(&self, table: HashMap<String, V>, covers: u64) -> u64 {
        let (head, rest) = self.inner.shards.split_first().unwrap();
        let mut head = head.current.write().unwrap();
        let epoch = head.epoch + 1;
        let data = Arc::new(EpochData { epoch, covers, published: Instant::now(), table });
        for shard in rest {
            *shard.current.write().unwrap() = Arc::clone(&data);
        }
        let _replaced = std::mem::replace(&mut *head, data);
        if let Some(g) = &self.inner.epoch_gauge {
            g.set(epoch);
        }
        // `_replaced` (freed here unless a snapshot holds it) outlives
        // the lock, so shard 0's readers do not wait for the free.
        drop(head);
        epoch
    }

    /// The current epoch number (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.read(|d| d.epoch)
    }

    /// A shared handle to the entire current generation (for merge
    /// queries, iteration, or holding a consistent view across several
    /// lookups). The `Arc` keeps the epoch alive after the writer moves
    /// on.
    pub fn snapshot(&self) -> Arc<EpochData<V>> {
        self.read(Arc::clone)
    }
}

impl<V: Clone> ServingView<V> {
    /// Point query: the value under `key` in the current epoch, plus
    /// the epoch's metadata, read coherently under one shard lock.
    /// Records sampled latency into `{view}.query_us` when instrumented.
    pub fn get(&self, key: &str) -> ViewRead<V> {
        let sample = self.inner.query_us.is_some()
            && self
                .shard()
                .samples
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(QUERY_SAMPLE_EVERY);
        let t0 = sample.then(Instant::now);
        let read = self.read(|d| ViewRead {
            value: d.table.get(key).cloned(),
            epoch: d.epoch,
            covers: d.covers,
            age: d.published.elapsed(),
        });
        if let (Some(t0), Some(h)) = (t0, &self.inner.query_us) {
            h.record(t0.elapsed().as_secs_f64() * 1e6);
        }
        read
    }
}

/// One coherent point read: the value (if the key is indexed) and the
/// generation it came from.
#[derive(Clone, Debug)]
pub struct ViewRead<V> {
    /// The indexed value, `None` when the key is absent from this epoch.
    pub value: Option<V>,
    /// Epoch the read observed.
    pub epoch: u64,
    /// The epoch's progress marker (see [`EpochData::covers`]).
    pub covers: u64,
    /// Time since the epoch was published.
    pub age: Duration,
}

/// Which Lambda layer answers a [`QueryHandle::query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The batch view alone — stale by whatever the speed layer holds.
    Batch,
    /// The real-time view alone — only events since the batch horizon.
    Speed,
    /// Stage 5 of Figure 1: batch + speed, the freshest exact answer
    /// published.
    Merged,
}

/// How far behind the live stream an answer is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Staleness {
    /// Events ingested but not reflected in this answer — `None` when
    /// the serving side has no ingest watermark to compare against.
    pub behind: Option<u64>,
    /// Time since the answering epoch was published.
    pub age: Duration,
}

/// A layered query answer with its provenance.
#[derive(Clone, Debug)]
pub struct QueryResult<V> {
    /// The answer (missing keys read as the layer's zero).
    pub value: V,
    /// Epoch of the view that answered; for [`Layer::Merged`] the
    /// *speed* epoch, since the real-time view bounds freshness.
    pub epoch: u64,
    /// How far behind the live stream the answer is.
    pub staleness: Staleness,
}

/// The one query front door for a keyed-count Lambda deployment:
/// batch-only, speed-only, or merged answers, each tagged with epoch
/// and staleness. Clone-cheap; safe to share across reader threads.
#[derive(Clone)]
pub struct QueryHandle {
    batch: ServingView<i64>,
    speed: ServingView<i64>,
    ingested: Arc<AtomicU64>,
    swaps: Arc<AtomicU64>,
}

impl QueryHandle {
    /// A handle over the two serving views, the deployment's ingest
    /// counter (the staleness reference point) and its batch-swap
    /// counter: odd while a batch run is between publishing the new
    /// batch view and retiring the speed view it covers.
    pub fn new(
        batch: ServingView<i64>,
        speed: ServingView<i64>,
        ingested: Arc<AtomicU64>,
        swaps: Arc<AtomicU64>,
    ) -> Self {
        Self { batch, speed, ingested, swaps }
    }

    /// Answer a point query from the chosen layer. Readers never take
    /// the ingest lock; a [`Layer::Merged`] read retries until it has
    /// read both views between batch swaps, so it never counts an event
    /// in both layers or in neither.
    pub fn query(&self, key: &str, layer: Layer) -> QueryResult<i64> {
        let ingested = self.ingested.load(Ordering::Relaxed);
        // `base` plus `r`'s value, with `r`'s epoch and staleness.
        let answer = |base: i64, r: ViewRead<i64>| QueryResult {
            value: base + r.value.unwrap_or(0),
            epoch: r.epoch,
            staleness: Staleness { behind: Some(ingested.saturating_sub(r.covers)), age: r.age },
        };
        match layer {
            Layer::Batch => answer(0, self.batch.get(key)),
            Layer::Speed => answer(0, self.speed.get(key)),
            Layer::Merged => loop {
                let swap = self.swaps.load(Ordering::SeqCst);
                if swap.is_multiple_of(2) {
                    let b = self.batch.get(key).value.unwrap_or(0);
                    let s = self.speed.get(key);
                    if self.swaps.load(Ordering::SeqCst) == swap {
                        break answer(b, s);
                    }
                }
                std::thread::yield_now();
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn publish_and_point_read() {
        let view: ServingView<i64> = ServingView::new();
        assert_eq!(view.epoch(), 0);
        let r = view.get("x");
        assert!(r.value.is_none());
        assert_eq!(r.epoch, 0);
        assert_eq!(view.publish(table(&[("x", 7)]), 10), 1);
        let r = view.get("x");
        assert_eq!(r.value, Some(7));
        assert_eq!(r.epoch, 1);
        assert_eq!(r.covers, 10);
        assert!(view.get("ghost").value.is_none());
    }

    #[test]
    fn ring_wraps_past_slot_count() {
        let view: ServingView<i64> = ServingView::new();
        for e in 1..=24 {
            assert_eq!(view.publish(table(&[("k", e as i64)]), e), e);
            assert_eq!(view.get("k").value, Some(e as i64));
            assert_eq!(view.epoch(), e);
        }
    }

    #[test]
    fn snapshot_outlives_later_publishes() {
        let view: ServingView<i64> = ServingView::new();
        view.publish(table(&[("k", 1)]), 1);
        let snap = view.snapshot();
        for e in 2..=20 {
            view.publish(table(&[("k", e)]), e as u64);
        }
        // The cloned Arc still reads the old generation.
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.table["k"], 1);
        assert_eq!(view.get("k").value, Some(20));
    }

    #[test]
    fn replaced_generation_is_freed_once_no_snapshot_holds_it() {
        let view: ServingView<i64> = ServingView::new();
        view.publish(table(&[("k", 1)]), 1);
        let held = view.snapshot();
        let weak = Arc::downgrade(&view.snapshot());
        view.publish(table(&[("k", 2)]), 2);
        assert_eq!((held.epoch, held.table["k"]), (1, 1));
        drop(held);
        assert!(weak.upgrade().is_none(), "the view still holds a replaced generation");
    }

    #[test]
    fn instrumented_view_reports_epoch_and_latency() {
        let metrics = Metrics::new();
        let view: ServingView<i64> = ServingView::instrumented("trending", &metrics);
        view.publish(table(&[("a", 1)]), 1);
        view.publish(table(&[("a", 2)]), 2);
        // Enough reads that sampling (1 in 64) must fire.
        for _ in 0..500 {
            let _ = view.get("a");
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("trending.epoch"), Some(2));
        let h = snap.histogram("trending.query_us").expect("sampled queries recorded");
        assert!(h.count > 0, "no query latencies recorded");
    }

    #[test]
    fn query_handle_layers_merge_and_report_staleness() {
        let batch = ServingView::new();
        let speed = ServingView::new();
        let ingested = Arc::new(AtomicU64::new(0));
        let h = QueryHandle::new(batch.clone(), speed.clone(), ingested.clone(), Arc::default());
        batch.publish(table(&[("x", 100)]), 100);
        speed.publish(table(&[("x", 7)]), 107);
        ingested.store(110, Ordering::Relaxed);
        let b = h.query("x", Layer::Batch);
        assert_eq!((b.value, b.epoch, b.staleness.behind), (100, 1, Some(10)));
        let s = h.query("x", Layer::Speed);
        assert_eq!((s.value, s.staleness.behind), (7, Some(3)));
        let m = h.query("x", Layer::Merged);
        assert_eq!((m.value, m.epoch, m.staleness.behind), (107, 1, Some(3)));
        let ghost = h.query("ghost", Layer::Merged);
        assert_eq!(ghost.value, 0, "unknown keys read as zero");
    }
}
