//! `e2e`: one (workload, seed, trace) pass of the repo benchmark.
//!
//! This binary compiles against the engine's front door only — `Query`,
//! `Log`/`LogSpout`, `CheckpointStore`, the `Storage` trait with
//! `DiskStorage`, `ViewHandle`, `ExecutorConfig` and `RunResult` — so
//! an internal refactor of the engine cannot stop the end-to-end run
//! from building. The replays that need deeper APIs live in `layers`.
//!
//! Output: every metric as `name unit value`, the detailed result under
//! `--out-dir`, and as the last line of stdout the driver's result
//! object. Exit code 0 iff the pass ran and every check held.

mod drain;
mod jobs;
mod layers;
mod paced;
mod probes;

use drain::{Backing, Observed, Round};
use jobs::{Job, SketchJob, WindowJob};
use paced::{Paced, Step};
use sa_benchmark::catalog;
use sa_benchmark::host::{self, Host};
use sa_benchmark::params::{self, Params};
use sa_benchmark::report::Report;
use sa_benchmark::stats;
use sa_benchmark::trace::Tracer;
use sa_platform::MetricsSnapshot;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Freshness above this (ms) at a step's tail fails the step for
/// `sustained_rate_ktuples_s`.
const FRESH_LIMIT_MS: f64 = 250.0;
/// Index of `paced_mem`'s `R2` step: the one every healthy build sustains,
/// which its end-to-end metrics are taken from.
const R2: usize = 1;

/// State of one pass: its load, its tracer, and the report it fills in
/// (metrics, notes, and the tally of operations attempted and failed).
pub struct Ctx {
    pub params: Params,
    pub seed: u64,
    pub tracer: Option<Arc<Tracer>>,
    pub work_dir: PathBuf,
    /// What a sampled call reads as when it does nothing.
    pub clock_ns: f64,
    pub report: Report,
}

impl Ctx {
    /// A failed check: the pass is incorrect.
    pub fn fail(&mut self, why: String) {
        self.report.failed += 1;
        self.report.correct = false;
        self.report.errors.push(why);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.report.note(key, value);
    }

    /// Count what the engine itself reports as failed or repeated work:
    /// replayed and failed roots, failed and retried commits. They are
    /// failed operations (`failed_share`), not wrong answers; an unclean
    /// shutdown is a wrong answer.
    pub fn count_engine_failures(&mut self, snap: &MetricsSnapshot, clean: bool, agg: &str) {
        self.report.failed += snap.replayed_roots
            + snap.failed_roots
            + snap.counter(&format!("{agg}.commit_failures"))
            + snap.counter(&format!("{agg}.commit_retries"));
        if !clean {
            self.fail("the run shut down unclean".into());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !catalog::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", catalog::WORKLOADS));
    }
    if args.seconds == 0.0 {
        args.seconds = if args.quick { params::QUICK_SECONDS } else { params::DEFAULT_SECONDS };
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0 && args.seconds <= 120.0) {
        return Err("--seconds must be between 1 and 120".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("e2e: {why}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("e2e: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    // Engine threads are spawned from this thread and inherit its mask.
    let placement = if host::pin_current_thread(host::ENGINE_CPU) {
        format!("pinned: engine cpu {}, harness cpu {}", host::ENGINE_CPU, host::HARNESS_CPU)
    } else {
        "unpinned: the kernel refused the CPU mask".to_string()
    };
    let host = Host::probe(&work_dir, &placement);
    let mut ctx = Ctx {
        params: if args.quick { Params::QUICK } else { Params::FULL },
        seed: args.seed,
        tracer: args.trace.then(|| Arc::new(Tracer::new())),
        work_dir: work_dir.clone(),
        clock_ns: probes::clock_pair_ns(),
        report: Report::new(&args.workload, args.seed, args.seconds, args.trace, args.quick, host),
    };

    let outcome = match args.workload.as_str() {
        "drain_mem" => drain_workload::<WindowJob>(&mut ctx, Backing::Mem, args.seconds),
        "drain_disk" => drain_workload::<WindowJob>(&mut ctx, Backing::Disk, args.seconds),
        "sketch_drain" => drain_workload::<SketchJob>(&mut ctx, Backing::Mem, args.seconds),
        "paced_mem" => paced_workload(&mut ctx, args.seconds),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = outcome {
        eprintln!("e2e: {}: {e}", args.workload);
        return ExitCode::from(1);
    }

    let Ctx { mut report, tracer, .. } = ctx;
    if args.trace {
        report.num("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
        for (name, _) in catalog::PER_LAYER {
            if report.get(name).is_none() {
                report.skip(name, "not measured by this workload");
            }
        }
        if let Some(tracer) = &tracer {
            let path = args.out_dir.join(format!("trace_{}.json", args.workload));
            match tracer.write_json(&path) {
                Ok(()) => report.note("trace_file", path.display()),
                Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
            }
            report.note("trace_spans", tracer.len());
        }
    }

    let tag = if args.quick { "_quick" } else { "" };
    let result_path = args.out_dir.join(format!(
        "{}_trace{}_seed{}{tag}.json",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) = std::fs::write(&result_path, report.to_json() + "\n") {
        eprintln!("e2e: cannot write {}: {e}", result_path.display());
    }
    print!("{}", report.table());
    for e in &report.errors {
        println!("error: {e}");
    }
    println!("{}", report.contract_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

// ---------------------------------------------------------------------
// The three drain workloads
// ---------------------------------------------------------------------

/// Saturated rounds for `drain_share` of the budget, then an open-loop
/// probe at the job's probe rate on the same job and storage. A traced pass
/// alternates untraced and traced rounds, so tracing overhead is read
/// from neighbours in time.
fn drain_workload<J: Job>(ctx: &mut Ctx, backing: Backing, seconds: f64) -> sa_core::Result<()> {
    let traced_pass = ctx.tracer.is_some();
    let drain_budget = seconds * ctx.params.drain_share;
    let phase_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = traced_pass && !rounds.len().is_multiple_of(2);
        rounds.push(drain::round::<J>(ctx, backing, rounds.len(), traced)?);
        let paired = !traced_pass || rounds.len().is_multiple_of(2);
        if paired && phase_start.elapsed().as_secs_f64() >= drain_budget {
            break;
        }
    }
    let probe = Step { rate: J::probe_rate(&ctx.params), secs: seconds - drain_budget };
    let paced = paced::run::<J>(ctx, backing, &[probe])?;

    let rates = |traced: bool| -> Vec<f64> {
        rounds.iter().filter(|r| r.traced == traced).map(Round::ktuples_s).collect()
    };
    let cpus: Vec<f64> = rounds.iter().filter(|r| !r.traced).map(Round::cpu_us_per_tuple).collect();
    ctx.note("job", J::NAME);
    ctx.note("drain_rounds", rounds.len());
    ctx.note("round_records", ctx.params.round_records);
    ctx.note(
        "round_ktuples_s",
        rates(false).iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(" "),
    );
    if !traced_pass {
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let report = &mut ctx.report;
        report.num_or("setup_s", stats::median(&setups), "no round ran");
        report.num_or("throughput_ktuples_s", stats::median(&rates(false)), "no round ran");
        report.num_or("cpu_us_per_tuple", stats::median(&cpus), "no round ran");
        // Memory of one complete unit of work on a fresh process: later
        // rounds only add what the allocator happened to keep.
        report.num("peak_rss_mb", rounds[0].peak_rss_mb);
        report.note("peak_rss_at_exit_mb", host::peak_rss_mb());
        report.note("throughput_best_ktuples_s", stats::max(&rates(false)).unwrap_or(0.0));
        open_loop_end_to_end(report, &paced, 0);
        return Ok(());
    }

    // --- Traced pass: per-layer metrics. ---
    let last = rounds.iter().rfind(|r| r.traced).expect("a traced pass runs a traced round");
    if let Some((plain, traced)) = stats::median(&rates(false)).zip(stats::median(&rates(true))) {
        ctx.report.num("trace.overhead_share", 1.0 - traced / plain);
    }
    layer_metrics::<J>(ctx, &last.observed, &paced, 0);
    let restarts: Vec<f64> = rounds.iter().flat_map(|r| r.restart_ms.iter().copied()).collect();
    ctx.report.num_or("restart_ms", stats::median(&restarts), "no restart ran");
    storage_metrics(&mut ctx.report, backing, last, &rounds);
    ctx.report.skip("trickle_fresh_p50_ms", "paced_mem only: this workload has no trickle step");
    ctx.report.skip("sustained_rate_ktuples_s", "paced_mem only: this workload probes one rate");
    let cpu_ns = stats::median(&cpus).map(|us| us * 1e3);
    layers::replay::<J>(ctx, backing);
    layers::budget(&mut ctx.report, backing, cpu_ns, last);
    Ok(())
}

// ---------------------------------------------------------------------
// paced_mem
// ---------------------------------------------------------------------

/// `J.window` on memory storage under three open-loop steps.
fn paced_workload(ctx: &mut Ctx, seconds: f64) -> sa_core::Result<()> {
    let steps: Vec<Step> =
        ctx.params.paced_rates.iter().map(|&rate| Step { rate, secs: seconds / 3.0 }).collect();
    let paced = paced::run::<WindowJob>(ctx, Backing::Mem, &steps)?;
    let sustained = sustained_rate(&mut ctx.report, &paced);
    ctx.note("job", WindowJob::NAME);

    if ctx.tracer.is_none() {
        // R2: the step every healthy build sustains.
        let r2 = &paced.steps[R2];
        let slice_cpu: Vec<f64> = r2
            .slices
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) * 1e6 / (w[1].1 - w[0].1) as f64)
            .collect();
        let report = &mut ctx.report;
        report.num_or("setup_s", stats::median(&paced.setup_s), "no set-up ran");
        report.num(
            "throughput_ktuples_s",
            (r2.consumed_to - r2.consumed_from) as f64 / (r2.to_s - r2.from_s) / 1e3,
        );
        report.num_or("cpu_us_per_tuple", stats::median(&slice_cpu), "no one-second slice at R2");
        report.num("peak_rss_mb", paced.peak_rss_mb);
        open_loop_end_to_end(report, &paced, R2);
        return Ok(());
    }

    layer_metrics::<WindowJob>(ctx, &paced.observed, &paced, R2);
    let report = &mut ctx.report;
    report.num_or(
        "trickle_fresh_p50_ms",
        stats::median(&paced.fresh_ms[0]),
        "no window closed in the trickle step",
    );
    report.num_or("sustained_rate_ktuples_s", sustained, "no step was sustained");
    report.skip("restart_ms", "the open-loop run is not restarted; see the drains");
    for name in STORAGE_METRICS {
        report.skip(name, "memory workload: no Storage backend in the path");
    }
    report.skip("trace.overhead_share", "open loop: throughput is the offered rate either way");
    for (name, _) in catalog::PER_LAYER.iter().filter(|(n, _)| n.starts_with("budget.")) {
        report.skip(name, "the budget table is drawn for the saturated drains");
    }
    layers::replay::<WindowJob>(ctx, Backing::Mem);
    Ok(())
}

/// The highest step that ended with no more backlog than it started
/// with (+1 % of its input) and whose freshness tail met the limit.
fn sustained_rate(report: &mut Report, paced: &Paced) -> Option<f64> {
    let mut best = None;
    for (i, step) in paced.steps.iter().enumerate() {
        let fresh = sorted(&paced.fresh_ms[i]);
        let tail = stats::tail(&fresh).map(|(_, v)| v);
        let kept_up = step.backlog_end <= step.backlog_start + step.appended / 100;
        let sustained = kept_up && tail.is_some_and(|t| t <= FRESH_LIMIT_MS);
        report.note(
            &format!("step{}_{}k", i + 1, step.rate / 1000),
            format!(
                "backlog {}->{} fresh_tail_ms {} samples {} sustained {sustained}",
                step.backlog_start,
                step.backlog_end,
                tail.map_or("none".into(), |t| format!("{t:.1}")),
                fresh.len(),
            ),
        );
        if sustained {
            best = Some(step.rate as f64 / 1e3);
        }
    }
    best
}

// ---------------------------------------------------------------------
// Metric assembly shared by the workloads
// ---------------------------------------------------------------------

/// `samples`, ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    stats::sort(&mut v);
    v
}

/// Freshness of step `step`: the end-to-end metrics every workload takes
/// from its open-loop phase (read latency goes to the notes: on the
/// calibration host it is a per-layer metric, README "What moved").
fn open_loop_end_to_end(report: &mut Report, paced: &Paced, step: usize) {
    let fresh = sorted(&paced.fresh_ms[step]);
    report.num_or("fresh_p50_ms", stats::quantile(&fresh, 0.5), "no result was observed");
    match stats::tail(&fresh) {
        Some((q, v)) => {
            report.num("fresh_tail_ms", v);
            report.note("fresh_tail_percentile", format!("{:.0}", q * 100.0));
        }
        None => report.skip("fresh_tail_ms", "fewer than 20 results observed"),
    }
    report.note("fresh_samples", fresh.len());
    let reads = measured_reads(paced);
    report.note("read_p50_us", stats::quantile(&reads, 0.5).unwrap_or(0.0));
    report.note("read_samples", reads.len());
    let service: Vec<f64> = paced.reads.iter().map(|r| r.service_us).collect();
    report.note("read_service_p50_us", stats::median(&service).unwrap_or(0.0));
    report.note("gen_late_ms_p99", stats::quantile(&sorted(&paced.late_ms), 0.99).unwrap_or(0.0));
}

/// Read latencies (µs, from due time) after the warm-up, ascending.
fn measured_reads(paced: &Paced) -> Vec<f64> {
    let reads: Vec<f64> = paced
        .reads
        .iter()
        .filter(|r| r.due_s >= paced.steps[0].from_s)
        .map(|r| r.latency_us)
        .collect();
    sorted(&reads)
}

/// The per-layer metrics a traced run yields by itself: the engine's
/// snapshot (S), the decorators (D), and the open-loop phase, whose
/// step `step` the raw freshness p99 is taken from.
fn layer_metrics<J: Job>(ctx: &mut Ctx, observed: &Observed, paced: &Paced, step: usize) {
    let clock_ns = ctx.clock_ns;
    let report = &mut ctx.report;
    snapshot_metrics::<J>(report, observed);
    decorator_metrics(report, observed, clock_ns);
    report.num("executor.threads", observed.threads as f64);
    report.num("log.bytes_in", observed.bytes_in as f64);
    report.num("checkpoint.commits", observed.store_commits as f64);
    report.num_or(
        "checkpoint.bytes_per_commit",
        stats::mean(&observed.checkpoint_bytes),
        "no checkpoint was sampled",
    );
    report.num_or("log.append_ns", stats::median(&paced.append_ns), "no append timed");

    // The raw p99s: too noisy on the calibration host to carry a bound.
    let per_key = match paced.fresh_per_key_ms[step].as_slice() {
        [] => sorted(&paced.fresh_ms[step]), // J.sketch: one sample per epoch
        samples => sorted(samples),
    };
    report.num_or(
        "fresh_p99_ms",
        stats::quantile(&per_key, 0.99).filter(|_| per_key.len() >= 1_000),
        "fewer than 1000 results observed",
    );
    let reads = measured_reads(paced);
    report.num_or("read_p50_us", stats::quantile(&reads, 0.5), "no read was issued");
    report.num_or(
        "read_p99_us",
        stats::quantile(&reads, 0.99).filter(|_| reads.len() >= 1_000),
        "fewer than 1000 reads issued",
    );
    let late = sorted(&paced.late_ms);
    report.num_or("gen.late_ms_p99", stats::quantile(&late, 0.99), "no schedule sample");
    report.num("log.backlog_max_records", paced.backlog_max as f64);
    report.num_or(
        "time.watermark_lag_ms_p50",
        stats::median(&paced.wm_lag_ms),
        "the job has no watermark-driven operator",
    );
}

/// Source **S**: the run's own `MetricsSnapshot`.
fn snapshot_metrics<J: Job>(report: &mut Report, observed: &Observed) {
    let snap = &observed.snap;
    let hist = |name: &str| snap.histogram(name).filter(|h| h.count > 0).copied();
    let agg = J::AGG;
    let no_samples = "the run recorded no sample";
    report.num_or("spout.next_us_p50", hist("events.next_us").map(|h| h.p50), no_samples);
    report.num_or("spout.settle_us_p50", hist("events.settle_us").map(|h| h.p50), no_samples);
    let ack = hist("events.ack_latency_us");
    report.num_or("spout.ack_latency_ms_p50", ack.map(|h| h.p50 / 1e3), no_samples);
    report.num_or("spout.ack_latency_ms_p99", ack.map(|h| h.p99 / 1e3), no_samples);
    report.num("spout.replays", snap.replayed_roots as f64);
    // One occupancy sample per 32 shipped batches (the executor's
    // default `latency_sample_every`), so batches ≈ 32 × samples.
    report.num_or(
        "emit.batch_fill_mean",
        hist("events.batch_fill")
            .map(|h| snap.counter("events.emitted") as f64 / (h.count as f64 * 32.0)),
        no_samples,
    );
    let links = || snap.links.values();
    report.num("channel.depth_high_water", links().map(|l| l.high_water).max().unwrap_or(0) as f64);
    report.num("channel.stalls", links().map(|l| l.stalls).sum::<u64>() as f64);
    report.num("channel.stall_ms", links().map(|l| l.stall_ns).sum::<u64>() as f64 / 1e6);
    report.num("acker.roots", snap.acked_roots as f64);
    for what in ["runs", "steals", "parks"] {
        let workers: Vec<u64> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("sched.worker") && k.ends_with(what))
            .map(|(_, v)| *v)
            .collect();
        report.num_or(
            &format!("sched.{what}"),
            (!workers.is_empty()).then(|| workers.iter().sum::<u64>() as f64),
            "thread-per-task scheduler (the default) keeps no such counter",
        );
    }
    let exec = hist(&format!("{agg}.execute_us"));
    report.num_or("operator.execute_us_p50", exec.map(|h| h.p50), no_samples);
    report.num_or("operator.execute_us_p99", exec.map(|h| h.p99), no_samples);
    if agg == WindowJob::AGG {
        let fired = snap.counter(&format!("{agg}.fired"));
        let emitted = snap.counter(&format!("{agg}.emitted"));
        report.num("window.fired", fired as f64);
        report.num("window.late_dropped", snap.counter(&format!("{agg}.dropped_late")) as f64);
        report.num("window.refires", emitted.saturating_sub(fired) as f64);
    } else {
        for name in ["window.fired", "window.late_dropped", "window.refires"] {
            report.skip(name, "the job has no window operator");
        }
    }
    report.num("checkpoint.retries", snap.counter(&format!("{agg}.commit_retries")) as f64);
    report.num_or(
        "serving.epochs",
        snap.gauge(&format!("{}.epoch", J::VIEW)).map(|e| e as f64),
        "the view exported no epoch gauge",
    );
    report.num("alloc.allocs_per_tuple", observed.allocs as f64 / observed.records.max(1) as f64);
}

/// Source **D**: what the update and spout decorators saw.
fn decorator_metrics(report: &mut Report, observed: &Observed, clock_ns: f64) {
    let Some(update) = &observed.update else { return };
    report.num_or("operator.update_ns_per_tuple", update.update_ns, "no update call was timed");
    report.num_or(
        "operator.busy_share",
        update.busy_share,
        "the aggregation tasks were observed too briefly",
    );
    let calls: Vec<f64> = update.calls_per_task.iter().map(|&c| c as f64).collect();
    report.num_or(
        "routing.partition_skew",
        stats::max(&calls).zip(stats::mean(&calls)).map(|(max, mean)| max / mean),
        "no aggregation task ran",
    );
    report.note("update_calls_per_task", format!("{:?}", update.calls_per_task));
    report.note("source_next_ns", observed.source_next_ns.unwrap_or(0.0));
    report.note("clock_pair_ns", clock_ns);
}

const STORAGE_METRICS: &[&str] = &[
    "storage.append_us_p50",
    "storage.sync_ms_p50",
    "storage.sync_ms_p99",
    "storage.fsyncs",
    "storage.bytes_written",
    "storage.write_amp",
    "storage.reopen_ms",
];

/// Source **D**: the `TracedStorage` ledger of the last traced round.
fn storage_metrics(report: &mut Report, backing: Backing, last: &Round, rounds: &[Round]) {
    let Some(ledger) = last.ledger.as_ref().filter(|_| backing == Backing::Disk) else {
        for name in STORAGE_METRICS {
            report.skip(name, "memory workload: no Storage backend in the path");
        }
        return;
    };
    let appends = sorted(&ledger.append_us.lock().expect("ledger poisoned"));
    let syncs = sorted(&ledger.sync_ms.lock().expect("ledger poisoned"));
    report.num_or("storage.append_us_p50", stats::quantile(&appends, 0.5), "no append happened");
    if report.host.storage_kind == "tmpfs" {
        for name in ["storage.sync_ms_p50", "storage.sync_ms_p99"] {
            report.skip(name, "work directory is on tmpfs: fsync does nothing there");
        }
    } else {
        report.num_or("storage.sync_ms_p50", stats::quantile(&syncs, 0.5), "no sync happened");
        report.num_or("storage.sync_ms_p99", stats::quantile(&syncs, 0.99), "no sync happened");
    }
    let written = ledger.bytes_written.load(Ordering::Relaxed);
    report.num("storage.fsyncs", ledger.fsyncs.load(Ordering::Relaxed) as f64);
    report.num("storage.bytes_written", written as f64);
    report.num("storage.write_amp", written as f64 / last.observed.bytes_in.max(1) as f64);
    let reopens: Vec<f64> = rounds.iter().flat_map(|r| r.reopen_ms.iter().copied()).collect();
    report.num_or("storage.reopen_ms", stats::median(&reopens), "no reopen happened");
    report.note("storage_busy_ns", ledger.busy_ns.load(Ordering::Relaxed));
}
