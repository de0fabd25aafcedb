//! The Lambda Architecture (the paper's Figure 1).
//!
//! The five numbered stages of the figure map to this module directly:
//!
//! 1. **Input data** is dispatched to both the batch and the speed layer
//!    — [`LambdaArchitecture::ingest`].
//! 2. The **batch layer** manages the master dataset (an immutable,
//!    append-only set of raw data — our [`crate::log::Log`]) and
//!    pre-computes batch views — [`LambdaArchitecture::run_batch`].
//! 3. The **serving layer** indexes the batch views for low-latency
//!    queries — an epoch-swapped [`ServingView`]: each batch run
//!    publishes a new immutable generation, and a reader holds its
//!    shard's lock for one lookup only.
//! 4. The **speed layer** handles recent data only, compensating for the
//!    batch/serving latency — a second [`ServingView`] republished on
//!    the ingest path (every [`LambdaArchitecture::with_config`]
//!    `publish_every` events).
//! 5. **Queries** merge batch views and real-time views — the
//!    [`QueryHandle`] from [`LambdaArchitecture::handle`], whose
//!    [`QueryHandle::query`] answers from either layer or their merge,
//!    tagged with epoch and staleness metadata.
//!
//! Both views report into the deployment's [`Metrics`]: `batch.epoch` /
//! `speed.epoch` gauges and sampled `batch.query_us` / `speed.query_us`
//! point-query latencies, surfaced by
//! [`LambdaArchitecture::metrics`].
//!
//! Coordination: `ingest` appends to the master log *under* the
//! speed-layer buffer lock, which a batch run also takes, so no event
//! is folded into the batch view while its speed increment is in
//! flight. A batch run then publishes the batch view and the emptied
//! speed view with a swap counter odd in between; a merged query
//! retries until it read both views under one even count, so it never
//! counts an event in both layers or in neither. Readers never take
//! the buffer lock.

use crate::log::Log;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::serving::{Layer, QueryHandle, ServingView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Speed-layer write-side state: the accumulating real-time table and
/// how many ingests it has absorbed since the last publish.
struct SpeedBuf {
    table: HashMap<String, i64>,
    since: u64,
}

/// A keyed-count Lambda deployment (the canonical example: per-key event
/// counts, e.g. hashtag impressions).
#[derive(Clone)]
pub struct LambdaArchitecture {
    /// Master dataset: immutable, append-only.
    master: Log,
    /// Serving layer: the indexed batch views, one epoch per batch run.
    batch: ServingView<i64>,
    /// Real-time view: republished from the ingest path.
    speed: ServingView<i64>,
    /// Speed-layer accumulation buffer (write side only).
    buf: Arc<Mutex<SpeedBuf>>,
    /// Total events ingested — the staleness reference point.
    ingested: Arc<AtomicU64>,
    /// Odd while `run_batch` swaps the two views (see the module docs).
    swaps: Arc<AtomicU64>,
    /// Publish a speed epoch every this many ingests.
    publish_every: u64,
    /// Registry both views report into.
    metrics: Metrics,
}

impl LambdaArchitecture {
    /// A deployment over `partitions` master-log partitions, publishing
    /// a speed epoch on every ingest (exact real-time views; see
    /// [`LambdaArchitecture::with_config`] to batch publishes).
    pub fn new(partitions: usize) -> sa_core::Result<Self> {
        Self::with_config(partitions, 1)
    }

    /// [`LambdaArchitecture::new`] with an explicit speed-layer publish
    /// cadence: a new epoch every `publish_every` ingests. Larger
    /// cadences amortise the per-epoch table clone under write-heavy
    /// load at the cost of bounded speed-view staleness (at most
    /// `publish_every - 1` events, and [`LambdaArchitecture::flush_speed`]
    /// publishes the remainder on demand).
    pub fn with_config(partitions: usize, publish_every: u64) -> sa_core::Result<Self> {
        let metrics = Metrics::new();
        Ok(Self {
            master: Log::new(partitions)?,
            batch: ServingView::instrumented("batch", &metrics),
            speed: ServingView::instrumented("speed", &metrics),
            buf: Arc::new(Mutex::new(SpeedBuf { table: HashMap::new(), since: 0 })),
            ingested: Arc::new(AtomicU64::new(0)),
            swaps: Arc::new(AtomicU64::new(0)),
            publish_every: publish_every.max(1),
            metrics,
        })
    }

    /// Stage 1: dispatch one event to both layers.
    pub fn ingest(&self, key: &str, count: i64) {
        let mut buf = self.buf.lock().unwrap();
        // Batch path: append to the immutable master dataset (under the
        // buffer lock — see the module docs' coordination note).
        self.master.append(key, count.to_le_bytes().to_vec());
        let ingested = self.ingested.fetch_add(1, Ordering::Relaxed) + 1;
        // Speed path: incremental real-time view.
        *buf.table.entry(key.to_string()).or_insert(0) += count;
        buf.since += 1;
        if buf.since >= self.publish_every {
            self.speed.publish(buf.table.clone(), ingested);
            buf.since = 0;
        }
    }

    /// Publish any speed-layer increments still buffered below the
    /// publish cadence. No-op when the published view is current.
    pub fn flush_speed(&self) {
        let mut buf = self.buf.lock().unwrap();
        if buf.since > 0 {
            self.speed.publish(buf.table.clone(), self.ingested.load(Ordering::Relaxed));
            buf.since = 0;
        }
    }

    /// Stages 2–3: recompute batch views from the *entire* master
    /// dataset (that is the point of the batch layer: views are always
    /// recomputable from raw data) and publish them as a new serving
    /// epoch; then retire the speed-layer state the new views cover.
    /// In-flight point queries keep the epoch they read; new queries
    /// see the new views immediately, and merged queries wait out the
    /// swap of the two views.
    ///
    /// Returns the number of master records folded in.
    pub fn run_batch(&self) -> u64 {
        // The buffer lock stalls ingests for the duration, so the
        // horizon is exact and no event can straddle the two layers.
        let mut buf = self.buf.lock().unwrap();
        let horizon: Vec<u64> =
            (0..self.master.partitions()).map(|p| self.master.end_offset(p)).collect();
        let mut views: HashMap<String, i64> = HashMap::new();
        let mut folded = 0u64;
        for (p, &end) in horizon.iter().enumerate() {
            for rec in self.master.read(p, 0, end as usize) {
                let c = i64::from_le_bytes(rec.value[..8].try_into().unwrap());
                *views.entry(rec.key).or_insert(0) += c;
                folded += 1;
            }
        }
        self.swaps.fetch_add(1, Ordering::SeqCst);
        self.batch.publish(views, folded);
        // Retire the speed layer: everything below the horizon is now
        // served by the batch views (nothing can be above it — ingests
        // are stalled).
        buf.table.clear();
        buf.since = 0;
        self.speed.publish(HashMap::new(), self.ingested.load(Ordering::Relaxed));
        self.swaps.fetch_add(1, Ordering::SeqCst);
        folded
    }

    /// The deployment's query front door: a clone-cheap handle
    /// answering [`Layer::Batch`] / [`Layer::Speed`] / [`Layer::Merged`]
    /// point queries with epoch + staleness metadata.
    /// Hand one to each reader thread.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle::new(
            self.batch.clone(),
            self.speed.clone(),
            self.ingested.clone(),
            self.swaps.clone(),
        )
    }

    /// Stage 5: answer a query by merging the batch view (serving
    /// layer) with the real-time view (speed layer).
    pub fn query(&self, key: &str) -> i64 {
        self.handle().query(key, Layer::Merged).value
    }

    /// Number of keys in the *published* real-time view (staleness of
    /// batch views). With a publish cadence above 1, call
    /// [`LambdaArchitecture::flush_speed`] first for an exact count.
    pub fn speed_layer_keys(&self) -> usize {
        self.speed.snapshot().table.len()
    }

    /// Total events ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// The master dataset (for inspection/recomputation).
    pub fn master(&self) -> &Log {
        &self.master
    }

    /// A snapshot of the deployment's metrics: `batch.epoch` /
    /// `speed.epoch` gauges and sampled `batch.query_us` /
    /// `speed.query_us` point-query latency histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Demonstrate the "human fault tolerance" property: rebuild the
    /// serving layer from scratch (e.g. after a buggy view function) —
    /// only possible because the master dataset is immutable. The
    /// rebuilt views supersede the corrupt epoch atomically.
    pub fn rebuild_from_master(&self) -> u64 {
        // Each batch run re-derives every view from raw data and
        // publishes a whole new epoch, so a plain re-run is a full
        // rebuild.
        self.run_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_query_is_exact_at_all_times() {
        let lambda = LambdaArchitecture::new(4).unwrap();
        let mut truth: HashMap<String, i64> = HashMap::new();
        let mut rng = sa_core::rng::SplitMix64::new(1);
        for i in 0..5_000u64 {
            let key = format!("k{}", rng.next_below(50));
            lambda.ingest(&key, 1);
            *truth.entry(key).or_insert(0) += 1;
            // Periodically run the batch layer mid-stream.
            if i % 1_250 == 1_249 {
                lambda.run_batch();
            }
            if i % 611 == 0 {
                let probe = format!("k{}", rng.next_below(50));
                assert_eq!(
                    lambda.query(&probe),
                    truth.get(&probe).copied().unwrap_or(0),
                    "merged query wrong at i={i}"
                );
            }
        }
    }

    #[test]
    fn layers_report_value_epoch_and_staleness() {
        let lambda = LambdaArchitecture::new(2).unwrap();
        let handle = lambda.handle();
        for _ in 0..100 {
            lambda.ingest("x", 1);
        }
        lambda.run_batch();
        for _ in 0..7 {
            lambda.ingest("x", 1);
        }
        let batch = handle.query("x", Layer::Batch);
        assert_eq!(batch.value, 100, "batch view is stale");
        assert_eq!(batch.staleness.behind, Some(7), "7 events past the horizon");
        assert_eq!(batch.epoch, 1, "one batch run, one batch epoch");
        let speed = handle.query("x", Layer::Speed);
        assert_eq!(speed.value, 7);
        assert_eq!(speed.staleness.behind, Some(0), "speed view is current");
        let merged = handle.query("x", Layer::Merged);
        assert_eq!(merged.value, 107, "merge = batch + speed");
        assert_eq!(merged.staleness.behind, Some(0));
    }

    #[test]
    fn batch_run_retires_speed_state() {
        let lambda = LambdaArchitecture::new(2).unwrap();
        for i in 0..50 {
            lambda.ingest(&format!("k{}", i % 5), 1);
        }
        assert_eq!(lambda.speed_layer_keys(), 5);
        lambda.run_batch();
        assert_eq!(lambda.speed_layer_keys(), 0);
        assert_eq!(lambda.query("k0"), 10);
    }

    #[test]
    fn publish_cadence_batches_epochs_and_flush_catches_up() {
        let lambda = LambdaArchitecture::with_config(1, 8).unwrap();
        let handle = lambda.handle();
        for _ in 0..20 {
            lambda.ingest("x", 1);
        }
        // 20 ingests at cadence 8 → 2 published epochs covering 16.
        let r = handle.query("x", Layer::Speed);
        assert_eq!(r.value, 16);
        assert_eq!(r.epoch, 2);
        assert_eq!(r.staleness.behind, Some(4), "4 ingests still buffered");
        lambda.flush_speed();
        let r = handle.query("x", Layer::Speed);
        assert_eq!((r.value, r.epoch, r.staleness.behind), (20, 3, Some(0)));
        lambda.flush_speed();
        assert_eq!(handle.query("x", Layer::Speed).epoch, 3, "clean flush is a no-op");
    }

    #[test]
    fn rebuild_recovers_from_corrupted_views() {
        let lambda = LambdaArchitecture::new(2).unwrap();
        for _ in 0..30 {
            lambda.ingest("x", 2);
        }
        lambda.run_batch();
        // Simulate a bad deploy publishing a corrupt batch epoch.
        lambda.batch.publish(HashMap::from([("x".to_string(), 999)]), lambda.ingested());
        assert_eq!(lambda.query("x"), 999);
        // Recompute from the immutable master dataset.
        lambda.rebuild_from_master();
        assert_eq!(lambda.query("x"), 60);
    }

    #[test]
    fn unknown_keys_are_zero() {
        let lambda = LambdaArchitecture::new(1).unwrap();
        assert_eq!(lambda.query("ghost"), 0);
        let handle = lambda.handle();
        for layer in [Layer::Batch, Layer::Speed, Layer::Merged] {
            assert_eq!(handle.query("ghost", layer).value, 0);
        }
    }

    #[test]
    fn views_report_into_the_metrics_snapshot() {
        let lambda = LambdaArchitecture::new(1).unwrap();
        let handle = lambda.handle();
        for i in 0..200 {
            lambda.ingest(&format!("k{}", i % 10), 1);
        }
        lambda.run_batch();
        for _ in 0..300 {
            let _ = handle.query("k0", Layer::Merged);
        }
        let snap = lambda.metrics();
        assert_eq!(snap.gauge("batch.epoch"), Some(1));
        assert_eq!(snap.gauge("speed.epoch"), Some(201), "200 ingest epochs + batch retire");
        let batch_h = snap.histogram("batch.query_us").expect("sampled batch reads");
        let speed_h = snap.histogram("speed.query_us").expect("sampled speed reads");
        assert!(batch_h.count > 0 && speed_h.count > 0);
    }
}
