//! Saturated drain rounds: a prefilled log drained to the final
//! publish, checked against the reference, then restarted.
//!
//! A round is small (a second or two) and a pass runs as many as fit
//! its time budget, all on identical input; the pass reports medians
//! over its rounds (README "Estimators").

use crate::jobs::{self, Job};
use crate::probes::{
    ProbeSpout, SourceGauge, StorageLedger, TracedStorage, UpdateProbe, UpdateSummary,
};
use crate::Ctx;
use sa_benchmark::gen::{Generator, Rec};
use sa_benchmark::host;
use sa_platform::{
    CheckpointStore, DiskStorage, DurableConfig, Log, MetricsSnapshot, Storage, SyncPolicy,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Where the log and the checkpoint store live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// `Log::new` + `CheckpointStore::new`: no storage layer at all.
    Mem,
    /// `Log::durable` + `CheckpointStore::durable` on `DiskStorage`.
    Disk,
}

impl Backing {
    /// Restart measurements per round on this storage.
    pub fn restarts(self, params: &sa_benchmark::params::Params) -> usize {
        match self {
            Backing::Mem => params.restarts_mem,
            Backing::Disk => params.restarts_disk,
        }
    }
}

/// Log segment size: one segment holds a whole round.
const SEGMENT_BYTES: u64 = 256 << 20;

/// The durable store's tuning: group commit every 8 appends, the
/// engine's defaults otherwise.
fn durable_config() -> DurableConfig {
    DurableConfig { sync: SyncPolicy::EveryN(8), ..DurableConfig::default() }
}

/// An opened log + store pair.
pub struct Stores {
    pub log: Log,
    pub store: CheckpointStore,
}

/// Open (or reopen) the pair under `dir`. The log stands in for an
/// upstream broker, so its own fsync discipline is not under test
/// (`SyncPolicy::Never`); the checkpoint store group-commits. With a
/// ledger, the store's storage calls are traced.
pub fn open(
    ctx: &Ctx,
    backing: Backing,
    dir: &Path,
    ledger: Option<&Arc<StorageLedger>>,
) -> sa_core::Result<Stores> {
    match backing {
        Backing::Mem => Ok(Stores { log: Log::new(1)?, store: CheckpointStore::new() }),
        Backing::Disk => {
            let disk: Arc<dyn Storage> = Arc::new(DiskStorage::new(dir)?);
            let store_backend: Arc<dyn Storage> = match (ledger, &ctx.tracer) {
                (Some(ledger), Some(tracer)) => {
                    Arc::new(TracedStorage::new(disk.clone(), ledger.clone(), tracer.clone()))
                }
                _ => disk.clone(),
            };
            Ok(Stores {
                log: Log::durable(disk, "log", 1, SyncPolicy::Never, SEGMENT_BYTES)?,
                store: CheckpointStore::durable(store_backend, "ckpt", durable_config())?,
            })
        }
    }
}

/// A fresh, empty directory for one round or run.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> sa_core::Result<PathBuf> {
    let dir = ctx.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| sa_core::SaError::Io { transient: false, context: e.to_string() })?;
    Ok(dir)
}

/// What a run left behind for the per-layer metrics: the engine's own
/// snapshot and counters (source **S**) and what the decorators saw
/// (source **D**; empty on untraced runs).
pub struct Observed {
    pub records: u64,
    pub snap: MetricsSnapshot,
    /// Allocations made during the run.
    pub allocs: u64,
    /// The checkpoint store's commit counter (frontier puts included).
    pub store_commits: u64,
    /// Payload bytes appended to the log.
    pub bytes_in: u64,
    /// Live threads, counted mid-run.
    pub threads: usize,
    /// Sampled sizes of the first aggregation task's checkpoint.
    pub checkpoint_bytes: Vec<f64>,
    pub update: Option<UpdateSummary>,
    /// Median sampled `next_tuple` duration.
    pub source_next_ns: Option<f64>,
}

impl Observed {
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        ctx: &Ctx,
        snap: MetricsSnapshot,
        allocs_before: u64,
        records: u64,
        bytes_in: u64,
        store: &CheckpointStore,
        gauge: &SourceGauge,
        probe: Option<&UpdateProbe>,
    ) -> Self {
        Self {
            records,
            allocs: snap.allocs - allocs_before,
            snap,
            store_commits: store.stats().0,
            bytes_in,
            threads: gauge.threads.load(Ordering::Relaxed) as usize,
            checkpoint_bytes: gauge.take_checkpoint_bytes(),
            update: probe.map(|p| p.summary(ctx.clock_ns)),
            source_next_ns: gauge.next_ns.median_ns(ctx.clock_ns),
        }
    }
}

/// Restart measurements on the state a run left behind: drop everything,
/// reopen (disk), compile, run until caught up, check what is served.
/// Returns `(restart_ms, reopen_ms)`; the reopen is part of the restart.
pub fn restarts<J: Job>(
    ctx: &mut Ctx,
    backing: Backing,
    dir: &Path,
    mut stores: Stores,
    reference: &J::Reference,
    count: usize,
    what: &str,
) -> sa_core::Result<(Vec<f64>, Vec<f64>)> {
    let tracer = ctx.tracer.clone();
    let (mut restart_ms, mut reopen_ms) = (Vec::new(), Vec::new());
    for attempt in 0..count {
        let _span = tracer.as_ref().map(|t| t.open("restart", attempt as u64));
        let start = Instant::now();
        if backing == Backing::Disk {
            drop(stores); // close before reopening the same directory
            stores = open(ctx, backing, dir, None)?;
        }
        reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let source = Box::new(ProbeSpout::new(
            jobs::log_spout(&stores.log, &stores.store),
            Arc::new(SourceGauge::default()),
            None,
        ));
        let compiled = J::compile(&stores.store, source, None)?;
        let view = compiled.view();
        let result = compiled.run(jobs::executor_config())?;
        restart_ms.push(start.elapsed().as_secs_f64() * 1e3);
        ctx.report.attempted += 1;
        let snap = result.metrics.snapshot();
        ctx.count_engine_failures(&snap, result.clean_shutdown, J::AGG);
        if let Err(why) = J::check_restart(reference, &view, &snap) {
            ctx.fail(format!("{what} restart {attempt}: {why}"));
        }
    }
    Ok((restart_ms, reopen_ms))
}

/// What one drain round measured.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// Run start to the final epoch's publish instant.
    pub run_s: f64,
    pub cpu_s: f64,
    pub restart_ms: Vec<f64>,
    /// Reopening log + store alone (disk; part of `restart_ms`).
    pub reopen_ms: Vec<f64>,
    /// Process peak RSS (MB) once the round was over.
    pub peak_rss_mb: f64,
    pub observed: Observed,
    /// Traced disk rounds: the store's storage calls.
    pub ledger: Option<Arc<StorageLedger>>,
}

impl Round {
    pub fn ktuples_s(&self) -> f64 {
        self.observed.records as f64 / self.run_s / 1e3
    }

    pub fn cpu_us_per_tuple(&self) -> f64 {
        self.cpu_s * 1e6 / self.observed.records as f64
    }
}

/// The round's input: identical on every round of a pass.
pub fn round_input(ctx: &Ctx) -> (Generator, Vec<Rec>) {
    let mut generator = Generator::new(ctx.seed);
    let recs = (0..ctx.params.round_records).map(|_| generator.synthetic()).collect();
    (generator, recs)
}

/// One saturated drain of `J` over a prefilled log, checked and then
/// restarted. Failed checks are recorded on `ctx`.
pub fn round<J: Job>(
    ctx: &mut Ctx,
    backing: Backing,
    index: usize,
    traced: bool,
) -> sa_core::Result<Round> {
    let tracer = ctx.tracer.clone().filter(|_| traced);
    let _round_span = tracer.as_ref().map(|t| t.open("round", index as u64));
    let dir = fresh_dir(ctx, &format!("round{index}"))?;
    let ledger = traced.then(|| Arc::new(StorageLedger::default()));

    // --- Set-up: generate, prefill, open, compile. ---
    let setup_start = Instant::now();
    let (generator, recs) = round_input(ctx);
    let Stores { log, store } = open(ctx, backing, &dir, ledger.as_ref())?;
    let mut bytes_in = 0;
    for rec in &recs {
        let name = generator.name(rec.key);
        jobs::append(&log, name, rec);
        bytes_in += jobs::record_bytes(name);
    }
    let gauge = Arc::new(SourceGauge::default());
    let probe = tracer.as_ref().map(|t| UpdateProbe::new(t.clone()));
    let source = Box::new(
        ProbeSpout::new(jobs::log_spout(&log, &store), gauge.clone(), tracer.clone())
            .sampling(&store, format!("{}/0", J::AGG)),
    );
    let compiled = J::compile(&store, source, probe.clone())?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut reference = J::Reference::default();
    for rec in &recs {
        J::fold(&mut reference, rec, generator.name(rec.key));
    }
    if let Some(ledger) = &ledger {
        ledger.reset(); // the drain's storage traffic only, not the open
    }

    // --- The timed drain. ---
    let view = compiled.view();
    let allocs_before = compiled.metrics().snapshot().allocs;
    let cpu_before = host::cpu_seconds();
    let run_start = Instant::now();
    let run_span = tracer.as_ref().map(|t| t.open("run", index as u64));
    let result = compiled.run(jobs::executor_config())?;
    drop(run_span);
    let returned = Instant::now();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let final_epoch = view.snapshot();
    let published = if final_epoch.epoch > 0 { final_epoch.published } else { returned };
    let run_s = published.duration_since(run_start).as_secs_f64();
    let snap = result.metrics.snapshot();

    // --- Correctness: part of every round. ---
    let records = recs.len() as u64;
    ctx.report.attempted += records + 1;
    ctx.count_engine_failures(&snap, result.clean_shutdown, J::AGG);
    if gauge.emitted.load(Ordering::Relaxed) != records {
        ctx.fail(format!(
            "round {index}: source emitted {} of {records}",
            gauge.emitted.load(Ordering::Relaxed)
        ));
    }
    let self_test = index == 0;
    if let Err(why) = J::check(&reference, generator.names(), &view, &result, &snap, self_test) {
        ctx.fail(format!("round {index}: {why}"));
    }
    drop(result);
    let observed = Observed::collect(
        ctx,
        snap,
        allocs_before,
        records,
        bytes_in,
        &store,
        &gauge,
        probe.as_deref(),
    );

    let count = backing.restarts(&ctx.params);
    let (restart_ms, reopen_ms) = restarts::<J>(
        ctx,
        backing,
        &dir,
        Stores { log, store },
        &reference,
        count,
        &format!("round {index}"),
    )?;
    let _ = std::fs::remove_dir_all(&dir);

    Ok(Round {
        traced,
        setup_s,
        run_s,
        cpu_s,
        restart_ms,
        reopen_ms,
        peak_rss_mb: host::peak_rss_mb(),
        observed,
        ledger,
    })
}
