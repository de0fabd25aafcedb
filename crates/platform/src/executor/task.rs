//! The one task shell: what every task — spout or bolt — knows about
//! its run ([`TaskCtx`]) and the supervisor its user code runs under
//! ([`Supervisor`]).
//!
//! A spout task and a bolt task differ only in what a restart rebuilds
//! (a factory-declared bolt is rebuilt from its checkpoint; a spout and
//! an instance bolt resume in place) and in what an escalated task does
//! next (a spout stops, a bolt drains its inbox as a zombie until
//! `Terminate`). Chaos injection, panic isolation, the restart budget,
//! backoff, the restart metrics and the escalation message exist once,
//! here.

use super::Run;
use crate::metrics::{CounterHandle, HistogramHandle};
use crate::supervise::{panic_message, RestartDecision, RestartPolicy, RestartTracker};
use sa_core::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One task's view of the run, built once per slot.
pub(crate) struct TaskCtx {
    pub(crate) run: Arc<Run>,
    /// The component every counter, sink key and error message is
    /// attributed to.
    pub(crate) name: String,
    /// Task index within the component.
    pub(crate) task: usize,
    /// Global task id: the watermark source stamped on this task's
    /// markers, and a spout's ack-root prefix.
    pub(crate) id: u32,
    /// Per-task seed (edge ids, drops, chaos draws, sampler phase).
    pub(crate) seed: u64,
    /// Supervision policy for this component's tasks.
    pub(crate) restart: RestartPolicy,
    /// Run after this task applies acks/fails/releases for the roots
    /// of spout task `spout` (a global id): bumps that spout's ack
    /// sequence and wakes it.
    pub(crate) on_ack: Arc<dyn Fn(u32) + Send + Sync>,
}

/// Run `f` under `catch_unwind`, turning a panic into its message.
pub(crate) fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// One task's supervision: chaos injection, restart budget, backoff,
/// restart metrics and escalation.
pub(crate) struct Supervisor {
    tracker: RestartTracker,
    /// Chaos: probability that one unit of work panics.
    panic_prob: f64,
    /// Chaos RNG for injected panics.
    rng: SplitMix64,
    panics: CounterHandle,
    restarts: CounterHandle,
    /// Restart duration (backoff sleep + rebuild), sampled runs only.
    restart_us: Option<HistogramHandle>,
}

impl Supervisor {
    /// `rng_seed` keys the chaos draws (each task kind salts its own).
    pub(crate) fn new(ctx: &TaskCtx, rng_seed: u64) -> Self {
        let metrics = &ctx.run.metrics;
        Self {
            tracker: RestartTracker::new(ctx.restart.clone()),
            panic_prob: ctx.run.config.faults.panic_prob_for(&ctx.name),
            rng: SplitMix64::new(rng_seed),
            panics: metrics.register(&format!("{}.panics", ctx.name)),
            restarts: metrics.register(&format!("{}.restarts", ctx.name)),
            restart_us: (ctx.run.config.latency_sample_every > 0)
                .then(|| metrics.register_histogram(&format!("{}.restart_us", ctx.name))),
        }
    }

    /// One unit of user work (`next_tuple`, `execute`): the chaos draw,
    /// then [`isolate`]. An injected panic fires *before* `f` runs, so
    /// the input was not applied and its replay is not a duplicate.
    pub(crate) fn work<T>(&mut self, f: impl FnOnce() -> T) -> Result<T, String> {
        if self.panic_prob > 0.0 && self.rng.bernoulli(self.panic_prob) {
            return Err("injected chaos panic (FaultPlan)".to_string());
        }
        isolate(f)
    }

    /// Account one panic against the restart budget. Within it: back
    /// off, `rebuild`, count the restart and return `true`. Past it, or
    /// when `rebuild` fails: record the run's first failure, abort the
    /// run and return `false` — the caller retires the task.
    pub(crate) fn on_panic(
        &mut self,
        ctx: &TaskCtx,
        kind: &str,
        why: &str,
        rebuild: impl FnOnce() -> Result<(), String>,
    ) -> bool {
        let run = &ctx.run;
        self.panics.add(1);
        run.metrics.task_panic();
        let why = match self.tracker.on_panic(run.start.elapsed()) {
            RestartDecision::Restart(backoff) => {
                // The restart clock includes the backoff sleep — it is
                // the user-visible recovery latency.
                let t0 = Instant::now();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                match rebuild() {
                    Ok(()) => {
                        self.restarts.add(1);
                        run.metrics.task_restart();
                        if let Some(h) = &self.restart_us {
                            h.record(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        return true;
                    }
                    Err(e) => format!("restart rebuild failed: {e}"),
                }
            }
            RestartDecision::Escalate => why.to_string(),
        };
        {
            let mut slot = run.failure.lock().expect("failure slot lock poisoned");
            if slot.is_none() {
                *slot = Some(format!(
                    "{kind} '{}' task {} escalated: restart budget exhausted \
                     ({} restarts in the last {:?}): {why}",
                    ctx.name,
                    ctx.task,
                    self.tracker.restarts_in_window(run.start.elapsed()),
                    self.tracker.policy().window,
                ));
            }
        }
        run.metrics.escalated();
        run.abort.store(true, Ordering::Relaxed);
        run.unclean.store(true, Ordering::Relaxed);
        false
    }
}
