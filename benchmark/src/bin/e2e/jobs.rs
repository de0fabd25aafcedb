//! The two jobs, both built through the `Query` front door, and what
//! the harness needs to know to drive and check each of them.

use crate::probes::{UpdateLocal, UpdateProbe};
use sa_benchmark::gen::{self, Rec};
use sa_benchmark::params::{Params, FRONTIER_EVERY};
use sa_benchmark::reference::{
    self, ServedWindow, SketchReference, WindowObserved, WindowReference,
};
use sa_core::stats::OnlineStats;
use sa_core::Synopsis;
use sa_platform::{
    tumbling, CheckpointStore, CompiledQuery, EpochData, ExecutorConfig, Log, LogSpout,
    MetricsSnapshot, Query, Record, RunResult, Spout, Tuple, Value, ViewEntry, ViewHandle,
    WatermarkConfig,
};
use sa_sketches::frequency::CountMinSketch;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint key of the spout's committed frontier.
pub const FRONTIER_KEY: &str = "log.frontier";
/// Checkpoint cadence of both jobs (tuples per task).
const CHECKPOINT_EVERY: u64 = 256;

/// The `ExecutorConfig` a user gets, with the two overrides the jobs
/// need: the watermark policy, and a shutdown timeout long enough that
/// a slow host is reported as slow rather than as unclean.
pub fn executor_config() -> ExecutorConfig {
    ExecutorConfig {
        watermarks: Some(WatermarkConfig::bounded(gen::WM_BOUND_MS)),
        shutdown_timeout: Duration::from_secs(60),
        ..ExecutorConfig::default()
    }
}

/// Append one generated record the way every workload does.
pub fn append(log: &Log, name: &str, rec: &Rec) {
    log.append_at(name, rec.value.to_le_bytes().to_vec(), rec.event_time);
}

/// Bytes one record adds to the log's payload (`log.bytes_in`).
pub fn record_bytes(name: &str) -> u64 {
    name.len() as u64 + 8
}

fn decode(r: &Record) -> Tuple {
    let value = r.value.as_slice().try_into().map_or(0, i64::from_le_bytes);
    Tuple::new(vec![Value::Str(r.key.as_str().into()), Value::Int(value)])
}

/// The job's source: a `LogSpout` over partition 0 resuming from the
/// committed frontier (0 on a fresh store).
pub fn log_spout(log: &Log, store: &CheckpointStore) -> Box<dyn Spout> {
    let from = sa_platform::frontier_offset(store, FRONTIER_KEY);
    Box::new(LogSpout::new(log, 0, from, 0, decode).with_frontier(
        store,
        FRONTIER_KEY,
        FRONTIER_EVERY,
    ))
}

/// What the reader thread keeps per observed epoch, turned into
/// freshness samples and consistency checks after the run.
pub enum Sighting {
    /// A (key, window) result first seen in an epoch.
    Window { key: u32, served: ServedWindow, published: Instant },
    /// A merged sketch: the newest record id it covers and its total.
    Sketch { covers: u64, total: i64, published: Instant },
}

/// One of the two jobs.
pub trait Job: 'static {
    type Agg: sa_core::Aggregator + Sync + Send + Clone;
    type Reference: Default + Send;

    const NAME: &'static str;
    /// Component name of the aggregation tasks in the run's metrics.
    const AGG: &'static str;
    /// Name of the serving view (and the serve bolt).
    const VIEW: &'static str;

    /// Rate (records/s) of the open-loop probe after the job's drains.
    fn probe_rate(params: &Params) -> u64;

    fn compile(
        store: &CheckpointStore,
        source: Box<dyn Spout>,
        probe: Option<Arc<UpdateProbe>>,
    ) -> sa_core::Result<CompiledQuery<Self::Agg>>;

    fn fold(reference: &mut Self::Reference, rec: &Rec, name: &str);

    /// Check a finished run against the reference; with `self_test`,
    /// also require the checker to reject perturbed copies of it.
    fn check(
        reference: &Self::Reference,
        names: &[String],
        view: &ViewHandle<Self::Agg>,
        result: &RunResult,
        snap: &MetricsSnapshot,
        self_test: bool,
    ) -> Result<(), String>;

    /// Check a restarted run: it found the stream fully applied, so it
    /// must serve the same answer (or fire nothing new).
    fn check_restart(
        reference: &Self::Reference,
        view: &ViewHandle<Self::Agg>,
        snap: &MetricsSnapshot,
    ) -> Result<(), String>;

    /// One point read; `Some(epoch)` when the view answered.
    fn read(view: &ViewHandle<Self::Agg>, key: &str) -> Option<u64>;

    /// Record what is new in a freshly published epoch.
    fn sight(
        epoch: &EpochData<ViewEntry<Self::Agg>>,
        seen: &mut HashMap<String, u64>,
        out: &mut Vec<Sighting>,
    );

    /// Whether a mid-run sighting is consistent with the reference.
    fn consistent(reference: &Self::Reference, sighting: &Sighting) -> bool;
}

/// `J.window`: key_by → tumbling window → `OnlineStats` → serve.
pub struct WindowJob;

impl Job for WindowJob {
    type Agg = OnlineStats;
    type Reference = WindowReference;

    const NAME: &'static str = "J.window";
    const AGG: &'static str = "stats.win";
    const VIEW: &'static str = "stats";

    fn probe_rate(params: &Params) -> u64 {
        params.probe_rate_window
    }

    fn compile(
        store: &CheckpointStore,
        source: Box<dyn Spout>,
        probe: Option<Arc<UpdateProbe>>,
    ) -> sa_core::Result<CompiledQuery<OnlineStats>> {
        let mut probe = probe.map(UpdateLocal::new);
        Query::from("events")
            .key_by(vec![0])
            .window(tumbling(gen::WINDOW_MS))
            .lateness(gen::LATENESS_MS)
            .parallelism(2)
            .checkpoint_every(CHECKPOINT_EVERY)
            .checkpoint(store)
            .publish_every(64)
            .aggregate(OnlineStats::new(), move |t: &Tuple, s: &mut OnlineStats| {
                let value = t.get(1).and_then(Value::as_int).unwrap_or(0) as f64;
                match &mut probe {
                    None => s.push(value),
                    Some(p) => p.call(t.lineage, || s.push(value)),
                }
            })
            .serve(Self::VIEW)
            .compile(vec![source])
    }

    fn fold(reference: &mut WindowReference, rec: &Rec, _name: &str) {
        reference.push(rec);
    }

    fn check(
        reference: &WindowReference,
        names: &[String],
        view: &ViewHandle<OnlineStats>,
        result: &RunResult,
        snap: &MetricsSnapshot,
        self_test: bool,
    ) -> Result<(), String> {
        let late_key = format!("{}.late", Self::AGG);
        let late_out = result.outputs.get(&late_key).map_or(0, Vec::len) as u64;
        let late = snap.counter(&format!("{}.dropped_late", Self::AGG));
        if late_out != late {
            return Err(format!("late output holds {late_out} tuples, counter says {late}"));
        }
        let mut obs = WindowObserved {
            fired: snap.counter(&format!("{}.fired", Self::AGG)),
            late,
            ..WindowObserved::default()
        };
        for (key, entry) in &view.snapshot().table {
            let (start, end) =
                entry.window.ok_or("windowed view served an entry without a window")?;
            obs.table
                .insert(key.clone(), ServedWindow { start, end, snapshot: entry.agg.snapshot() });
        }
        reference.check(names, &obs)?;
        if self_test {
            reference::negative_self_test(Some((reference, names, &obs)), None)?;
        }
        Ok(())
    }

    fn check_restart(
        reference: &WindowReference,
        view: &ViewHandle<OnlineStats>,
        _snap: &MetricsSnapshot,
    ) -> Result<(), String> {
        // The last checkpoint still holds the windows inside the
        // lateness horizon; a restart restores and re-fires them, so
        // the view answers again — with exactly the same aggregates.
        let table = &view.snapshot().table;
        if table.is_empty() {
            return Err("the restarted view never published".into());
        }
        for (name, entry) in table {
            let served = entry.window.map(|(start, end)| ServedWindow {
                start,
                end,
                snapshot: entry.agg.snapshot(),
            });
            let key = gen::Generator::key_of(name);
            if !key.zip(served).is_some_and(|(k, s)| reference.entry_matches(k, &s)) {
                return Err(format!("restart served a wrong aggregate for key {name}"));
            }
        }
        Ok(())
    }

    fn read(view: &ViewHandle<OnlineStats>, key: &str) -> Option<u64> {
        view.get(key).map(|r| r.epoch)
    }

    fn sight(
        epoch: &EpochData<ViewEntry<OnlineStats>>,
        seen: &mut HashMap<String, u64>,
        out: &mut Vec<Sighting>,
    ) {
        for (key, entry) in &epoch.table {
            let Some((start, end)) = entry.window else { continue };
            let newest = match seen.get_mut(key) {
                Some(newest) => newest,
                None => seen.entry(key.clone()).or_insert(0),
            };
            if end > *newest {
                *newest = end;
                if let Some(id) = gen::Generator::key_of(key) {
                    out.push(Sighting::Window {
                        key: id,
                        served: ServedWindow { start, end, snapshot: entry.agg.snapshot() },
                        published: epoch.published,
                    });
                }
            }
        }
    }

    fn consistent(reference: &WindowReference, sighting: &Sighting) -> bool {
        match sighting {
            // No record is a straggler (delays stay within the watermark
            // bound), so a window is final the first time it is served.
            Sighting::Window { key, served, .. } => reference.entry_matches(*key, served),
            Sighting::Sketch { .. } => false,
        }
    }
}

/// `J.sketch`: shuffle → `CountMin` → one merged global sketch.
pub struct SketchJob;

impl Job for SketchJob {
    type Agg = CountMinSketch;
    type Reference = SketchReference;

    const NAME: &'static str = "J.sketch";
    const AGG: &'static str = "sketch.agg";
    const VIEW: &'static str = "sketch";

    fn probe_rate(params: &Params) -> u64 {
        params.probe_rate_sketch
    }

    fn compile(
        store: &CheckpointStore,
        source: Box<dyn Spout>,
        probe: Option<Arc<UpdateProbe>>,
    ) -> sa_core::Result<CompiledQuery<CountMinSketch>> {
        let mut probe = probe.map(UpdateLocal::new);
        Query::from("events")
            .parallelism(2)
            .checkpoint_every(CHECKPOINT_EVERY)
            .checkpoint(store)
            .publish_every(8)
            .aggregate(reference::sketch_template(), move |t: &Tuple, s: &mut CountMinSketch| {
                let Some(key) = t.get(0).and_then(Value::as_str) else { return };
                match &mut probe {
                    None => s.add(key, 1),
                    Some(p) => p.call(t.lineage, || s.add(key, 1)),
                }
            })
            .serve(Self::VIEW)
            .compile(vec![source])
    }

    fn fold(reference: &mut SketchReference, _rec: &Rec, name: &str) {
        reference.push(name);
    }

    fn check(
        reference: &SketchReference,
        _names: &[String],
        view: &ViewHandle<CountMinSketch>,
        _result: &RunResult,
        _snap: &MetricsSnapshot,
        self_test: bool,
    ) -> Result<(), String> {
        let served = view.global().ok_or("the sketch view never published")?.value.snapshot();
        reference.check(&served)?;
        if self_test {
            reference::negative_self_test(None, Some((reference, &served)))?;
        }
        Ok(())
    }

    fn check_restart(
        reference: &SketchReference,
        view: &ViewHandle<CountMinSketch>,
        _snap: &MetricsSnapshot,
    ) -> Result<(), String> {
        let served = view.global().ok_or("the restarted sketch view never published")?;
        reference.check(&served.value.snapshot())
    }

    fn read(view: &ViewHandle<CountMinSketch>, _key: &str) -> Option<u64> {
        view.global().map(|r| r.epoch)
    }

    fn sight(
        epoch: &EpochData<ViewEntry<CountMinSketch>>,
        _seen: &mut HashMap<String, u64>,
        out: &mut Vec<Sighting>,
    ) {
        if let Some(entry) = epoch.table.get("") {
            out.push(Sighting::Sketch {
                covers: epoch.covers,
                total: entry.agg.total(),
                published: epoch.published,
            });
        }
    }

    fn consistent(reference: &SketchReference, sighting: &Sighting) -> bool {
        match sighting {
            // A mid-run merge sums two shuffle partitions' partials: no
            // prefix of the input equals it, but it can never hold more
            // than the input does.
            Sighting::Sketch { total, .. } => *total >= 0 && *total <= reference.total(),
            Sighting::Window { .. } => false,
        }
    }
}
