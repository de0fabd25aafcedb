//! Open-loop runs: a producer thread appends to the log on a fixed
//! schedule, stamping creation time as event time, while a reader
//! thread issues point reads on its own schedule and watches epochs.
//! Neither slows down when the engine does; both report how late they
//! ran (`gen.late_ms_p99`).

use crate::drain::{self, Backing, Observed, Stores};
use crate::jobs::{self, Job, Sighting};
use crate::probes::{ProbeSpout, SourceGauge, StorageLedger, UpdateProbe};
use crate::Ctx;
use sa_benchmark::gen::{Draw, Generator, Kind, Rec};
use sa_benchmark::host;
use sa_benchmark::params::FRONTIER_EVERY;
use sa_benchmark::trace::Tracer;
use sa_platform::{Log, Metrics, ViewHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One fixed-rate step of an open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub rate: u64,
    pub secs: f64,
}

impl Step {
    /// Records the step appends: its rate × length, rounded down to the
    /// spout's frontier cadence (see `params::FRONTIER_EVERY`).
    pub fn records(&self) -> u64 {
        let planned = (self.rate as f64 * self.secs) as u64;
        planned - planned % FRONTIER_EVERY
    }
}

/// One appended record and when it was appended (µs after `t0`).
pub struct Appended {
    pub rec: Rec,
    pub at_us: u64,
}

/// What the producer measured for one step.
#[derive(Clone, Debug, Default)]
pub struct StepOut {
    pub rate: u64,
    /// Measured interval (after warm-up), seconds after `t0`.
    pub from_s: f64,
    pub to_s: f64,
    /// Log backlog (`end_offset −` spout position) at both ends of the
    /// whole step, warm-up included.
    pub backlog_start: u64,
    pub backlog_end: u64,
    /// Records appended during the whole step.
    pub appended: u64,
    /// Spout position at both ends of the measured interval.
    pub consumed_from: u64,
    pub consumed_to: u64,
    /// `(engine CPU seconds, records consumed)` at each measured second:
    /// process CPU minus what the producer and the reader threads used.
    pub slices: Vec<(f64, u64)>,
}

/// What the producer thread returns.
struct Produced {
    appended: Vec<Appended>,
    steps: Vec<StepOut>,
    late_ms: Vec<f64>,
    append_ns: Vec<f64>,
    backlog_max: u64,
    bytes_in: u64,
}

/// One timed point read.
pub struct Read {
    /// Seconds after `t0` the read was due.
    pub due_s: f64,
    /// Completion minus due time.
    pub latency_us: f64,
    /// Completion minus actual issue.
    pub service_us: f64,
}

/// What the reader thread returns.
struct Watched {
    reads: Vec<Read>,
    late_ms: Vec<f64>,
    sightings: Vec<Sighting>,
    failed_reads: u64,
    threads_max: usize,
    /// Traced: the aggregation tasks' watermark-lag gauge (event-time
    /// ms), sampled ten times a second.
    wm_lag_ms: Vec<f64>,
}

/// Everything an open-loop run measured.
pub struct Paced {
    pub steps: Vec<StepOut>,
    pub setup_s: Vec<f64>,
    /// Freshness samples (ms) per step, warm-up excluded: one per closed
    /// window (`J.window`: when its last key was served), one per epoch
    /// (`J.sketch`).
    pub fresh_ms: Vec<Vec<f64>>,
    /// Per step, one sample per served (key, window) result: the raw
    /// material of the per-layer `fresh_p99_ms` (empty for `J.sketch`).
    pub fresh_per_key_ms: Vec<Vec<f64>>,
    pub reads: Vec<Read>,
    /// Producer and reader lateness samples together.
    pub late_ms: Vec<f64>,
    pub append_ns: Vec<f64>,
    pub backlog_max: u64,
    /// Traced: the aggregation tasks' watermark-lag gauge, sampled.
    pub wm_lag_ms: Vec<f64>,
    /// Process peak RSS (MB) once the run was over.
    pub peak_rss_mb: f64,
    pub observed: Observed,
}

fn secs_since(t0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64()
}

/// The producer: open loop, one wake-up per millisecond at most.
#[allow(clippy::too_many_arguments)]
fn produce(
    input: &[Draw],
    names: &[String],
    steps: &[Step],
    warmup_s: f64,
    t0: Instant,
    log: &Log,
    gauge: &SourceGauge,
    reader_cpu_ns: &AtomicU64,
    tracer: Option<&Tracer>,
) -> Produced {
    let mut draws = input.iter();
    let mut out = Produced {
        appended: Vec::with_capacity(input.len()),
        steps: Vec::new(),
        late_ms: Vec::new(),
        append_ns: Vec::new(),
        backlog_max: 0,
        bytes_in: 0,
    };
    let backlog =
        |log: &Log| log.end_offset(0).saturating_sub(gauge.emitted.load(Ordering::Relaxed));
    let engine_cpu_s = || {
        let harness_ns = host::thread_cpu_ns() + reader_cpu_ns.load(Ordering::Relaxed);
        host::cpu_seconds() - harness_ns as f64 / 1e9
    };
    let mut step_start_s = 0.0;
    for step in steps {
        let begin = t0 + Duration::from_secs_f64(step_start_s);
        let count = step.records();
        let period = 1.0 / step.rate as f64;
        let mut so = StepOut {
            rate: step.rate,
            from_s: step_start_s + warmup_s.min(step.secs / 2.0),
            to_s: step_start_s + step.secs,
            backlog_start: backlog(log),
            appended: count,
            ..StepOut::default()
        };
        let mut next_slice_s = so.from_s;
        let mut measuring = false;
        let mut i = 0u64;
        while i < count {
            let now = Instant::now();
            let now_s = secs_since(t0, now);
            if now_s >= next_slice_s && now_s < so.to_s {
                let consumed = gauge.emitted.load(Ordering::Relaxed);
                if !measuring {
                    measuring = true;
                    so.consumed_from = consumed;
                }
                so.slices.push((engine_cpu_s(), consumed));
                next_slice_s += 1.0;
            }
            let due = begin + Duration::from_secs_f64(i as f64 * period);
            if due > now {
                std::thread::sleep((due - now).min(Duration::from_millis(1)));
                continue;
            }
            // Everything due by `now` goes out stamped with `now`.
            let now_ms = now.duration_since(t0).as_millis() as u64;
            let at_us = now.duration_since(t0).as_micros() as u64;
            let batch_start = Instant::now();
            let first = i;
            while i < count && begin + Duration::from_secs_f64(i as f64 * period) <= now {
                let Some(draw) = draws.next() else { break };
                let rec = draw.stamp(now_ms);
                let name = &names[rec.key as usize];
                jobs::append(log, name, &rec);
                out.bytes_in += jobs::record_bytes(name);
                out.appended.push(Appended { rec, at_us });
                i += 1;
            }
            let batch_end = Instant::now();
            if let Some(tracer) = tracer {
                tracer.record("producer.append", batch_start, batch_end, i);
            }
            out.append_ns.push((batch_end - batch_start).as_nanos() as f64 / (i - first) as f64);
            out.late_ms.push((now - due).as_secs_f64() * 1e3);
            out.backlog_max = out.backlog_max.max(backlog(log));
        }
        // Hold the step open until its scheduled end.
        let end = t0 + Duration::from_secs_f64(so.to_s);
        if let Some(wait) = end.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        so.consumed_to = gauge.emitted.load(Ordering::Relaxed);
        so.slices.push((engine_cpu_s(), so.consumed_to));
        so.backlog_end = backlog(log);
        out.steps.push(so);
        step_start_s += step.secs;
    }
    out
}

/// The reader: open-loop point reads, timed from their due time, and a
/// look at every epoch it can catch in between.
#[allow(clippy::too_many_arguments)]
fn watch<J: Job>(
    ctx_seed: u64,
    read_rate: u64,
    warmup_s: f64,
    until_s: f64,
    t0: Instant,
    view: &ViewHandle<J::Agg>,
    names: &[String],
    done: &AtomicBool,
    cpu_ns: &AtomicU64,
    traced: Option<(&Metrics, &Tracer)>,
) -> Watched {
    let mut keys = Generator::new(ctx_seed ^ 0x00EA_D5EE);
    let period = 1.0 / read_rate as f64;
    let mut out = Watched {
        reads: Vec::with_capacity((until_s * read_rate as f64) as usize + 1),
        late_ms: Vec::new(),
        sightings: Vec::new(),
        failed_reads: 0,
        threads_max: 0,
        wm_lag_ms: Vec::new(),
    };
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut last_epoch = 0;
    let mut next_sample_s = 0.0;
    let wm_lag_gauge = format!("{}.watermark_lag", J::AGG);
    let mut k = 0u64;
    // Keep watching a little past the schedule: the last windows
    // publish after the producer's last append.
    while !done.load(Ordering::Acquire) {
        let due_s = k as f64 * period;
        if due_s > until_s + 0.5 {
            break;
        }
        let due = t0 + Duration::from_secs_f64(due_s);
        // Sleep, do not spin: a spinning reader would heat the harness
        // CPU (and its SMT sibling, if that is the engine's) for the
        // sake of a per-layer number. The price is that "latency from
        // due time" mostly measures how late this sleep ends.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let key = &names[keys.next(0).key as usize];
        let issued = Instant::now();
        let answer = J::read(view, key);
        let finished = Instant::now();
        if let Some((_, tracer)) = traced {
            tracer.record("reader.get", issued, finished, k);
        }
        if answer.is_none() && due_s > warmup_s && view.epoch() == 0 {
            out.failed_reads += 1;
        }
        out.reads.push(Read {
            due_s,
            latency_us: (finished - due).as_secs_f64() * 1e6,
            service_us: (finished - issued).as_secs_f64() * 1e6,
        });
        if k.is_multiple_of(16) {
            out.late_ms.push((issued - due).as_secs_f64() * 1e3);
            cpu_ns.store(host::thread_cpu_ns(), Ordering::Relaxed);
        }
        k += 1;

        let epoch = view.epoch();
        if epoch != last_epoch {
            last_epoch = epoch;
            let data = view.snapshot();
            let before = out.sightings.len();
            J::sight(&data, &mut seen, &mut out.sightings);
            if let Some((_, tracer)) = traced {
                if out.sightings.len() > before {
                    tracer.record(
                        "serving.publish_observed",
                        data.published,
                        Instant::now(),
                        data.epoch,
                    );
                }
            }
        }
        if let Some((metrics, _)) = traced {
            if due_s >= next_sample_s {
                next_sample_s += 0.1;
                out.threads_max = out.threads_max.max(host::thread_count());
                if let Some(lag) = metrics.snapshot().gauge(&wm_lag_gauge) {
                    out.wm_lag_ms.push(lag as f64);
                }
            }
        }
    }
    out
}

/// One open-loop run of `J` over `steps`, checked against a reference
/// built from exactly the records the producer appended.
pub fn run<J: Job>(ctx: &mut Ctx, backing: Backing, steps: &[Step]) -> sa_core::Result<Paced> {
    let dir = drain::fresh_dir(ctx, "paced")?;
    let ledger = ctx.tracer.as_ref().map(|_| Arc::new(StorageLedger::default()));
    let total_s: f64 = steps.iter().map(|s| s.secs).sum();

    // --- Set-up, several times over: generate the schedule's input,
    //     open the stores, compile. The last one is used. ---
    let mut setup_s = Vec::new();
    let mut built = None;
    for attempt in 0..ctx.params.setup_repeats {
        drop(built.take()); // close the previous stores before reopening
        let start = Instant::now();
        let mut generator = Generator::new(ctx.seed);
        let planned: u64 = steps.iter().map(Step::records).sum();
        let input: Vec<Draw> = (0..planned).map(|_| generator.draw()).collect();
        let sub = drain::fresh_dir(ctx, &format!("paced/s{attempt}"))?;
        let Stores { log, store } = drain::open(ctx, backing, &sub, ledger.as_ref())?;
        let gauge = Arc::new(SourceGauge::default());
        gauge.keep_alive.store(true, Ordering::Release);
        let probe = ctx.tracer.as_ref().map(|t| UpdateProbe::new(t.clone()));
        let source = Box::new(
            ProbeSpout::new(jobs::log_spout(&log, &store), gauge.clone(), ctx.tracer.clone())
                .sampling(&store, format!("{}/0", J::AGG)),
        );
        let compiled = J::compile(&store, source, probe.clone())?;
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((input, log, store, gauge, probe, compiled));
    }
    let (input, log, store, gauge, probe, compiled) = built.expect("setup_repeats >= 1");
    if let Some(ledger) = &ledger {
        ledger.reset();
    }

    // --- The run: engine on this thread, producer and reader beside. ---
    let view = compiled.view();
    let metrics = compiled.metrics().clone();
    let allocs_before = metrics.snapshot().allocs;
    let names = Generator::new(ctx.seed).names().to_vec();
    let done = AtomicBool::new(false);
    let reader_cpu_ns = AtomicU64::new(0);
    let tracer = ctx.tracer.clone();
    let (seed, params) = (ctx.seed, ctx.params);
    let t0 = Instant::now();
    let (result, produced, watched) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            host::pin_current_thread(host::HARNESS_CPU);
            let out = produce(
                &input,
                &names,
                steps,
                params.warmup_s,
                t0,
                &log,
                &gauge,
                &reader_cpu_ns,
                tracer.as_deref(),
            );
            gauge.keep_alive.store(false, Ordering::Release);
            out
        });
        let reader = scope.spawn(|| {
            host::pin_current_thread(host::HARNESS_CPU);
            let traced = tracer.as_deref().map(|t| (&metrics, t));
            watch::<J>(
                seed,
                params.read_rate,
                params.warmup_s,
                total_s,
                t0,
                &view,
                &names,
                &done,
                &reader_cpu_ns,
                traced,
            )
        });
        let result = compiled.run(jobs::executor_config());
        done.store(true, Ordering::Release);
        (
            result,
            producer.join().expect("producer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let result = result?;
    let snap = result.metrics.snapshot();

    // --- Reference and checks. ---
    let mut reference = J::Reference::default();
    for a in &produced.appended {
        J::fold(&mut reference, &a.rec, &names[a.rec.key as usize]);
    }
    let records = produced.appended.len() as u64;
    ctx.report.attempted +=
        records + watched.reads.len() as u64 + watched.sightings.len() as u64 + 1;
    ctx.count_engine_failures(&snap, result.clean_shutdown, J::AGG);
    ctx.report.failed += watched.failed_reads;
    if gauge.emitted.load(Ordering::Relaxed) != records {
        ctx.fail(format!("source emitted {} of {records}", gauge.emitted.load(Ordering::Relaxed)));
    }
    if let Err(why) = J::check(&reference, &names, &view, &result, &snap, true) {
        ctx.fail(format!("open-loop run: {why}"));
    }
    let inconsistent = watched.sightings.iter().filter(|s| !J::consistent(&reference, s)).count();
    if inconsistent > 0 {
        ctx.report.failed += inconsistent as u64 - 1;
        ctx.fail(format!("{inconsistent} observed results disagree with the reference"));
    }
    let too_late = produced.appended.iter().filter(|a| a.rec.kind == Kind::TooLate).count();
    ctx.note("open_loop_too_late_records", too_late);

    // --- Freshness: publish instant minus the instant the producer's
    //     clock read the window's end (J.window) or appended the newest
    //     covered record (J.sketch). ---
    let mut fresh_ms: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
    let mut fresh_per_key_ms: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
    let mut complete: Vec<HashMap<u64, f64>> = vec![HashMap::new(); steps.len()];
    for sighting in &watched.sightings {
        let (ready_s, published) = match sighting {
            Sighting::Window { served, published, .. } => (served.end as f64 / 1e3, *published),
            Sighting::Sketch { covers, published, .. } => {
                let Some(a) = covers.checked_sub(1).and_then(|i| produced.appended.get(i as usize))
                else {
                    continue;
                };
                (a.at_us as f64 / 1e6, *published)
            }
        };
        let step = produced.steps.iter().position(|s| (s.from_s..s.to_s).contains(&ready_s));
        if let Some(i) = step {
            let ms = (secs_since(t0, published) - ready_s) * 1e3;
            match sighting {
                // A window is fresh once its last key is served.
                Sighting::Window { served, .. } => {
                    fresh_per_key_ms[i].push(ms);
                    let latest = complete[i].entry(served.end).or_insert(ms);
                    *latest = latest.max(ms);
                }
                Sighting::Sketch { .. } => fresh_ms[i].push(ms),
            }
        }
    }
    for (per_epoch, per_window) in fresh_ms.iter_mut().zip(complete) {
        if !per_window.is_empty() {
            *per_epoch = per_window.into_values().collect();
        }
    }
    drop(result);
    let observed = Observed {
        // The spout counts threads once, early; the reader kept watching.
        threads: watched.threads_max,
        ..Observed::collect(
            ctx,
            snap,
            allocs_before,
            records,
            produced.bytes_in,
            &store,
            &gauge,
            probe.as_deref(),
        )
    };

    drop((log, store));
    let _ = std::fs::remove_dir_all(&dir);

    let mut late_ms = produced.late_ms;
    late_ms.extend(watched.late_ms);
    Ok(Paced {
        steps: produced.steps,
        setup_s,
        fresh_ms,
        fresh_per_key_ms,
        reads: watched.reads,
        late_ms,
        append_ns: produced.append_ns,
        backlog_max: produced.backlog_max,
        wm_lag_ms: watched.wm_lag_ms,
        peak_rss_mb: host::peak_rss_mb(),
        observed,
    })
}
