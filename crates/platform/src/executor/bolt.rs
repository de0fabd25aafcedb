//! Re-entrant bolt core: message-at-a-time processing state for one
//! bolt task, with its supervision, held-ack ledger and watermark
//! forwarding. The runtime drives it from whichever thread runs the
//! task's activation — the slot's own thread under the dedicated
//! driver, the pool worker that claimed it under the pool.

use super::emit::EmitCtx;
use super::{sink_slot, Msg, Route, Semantics, Sink, SinkSlot};
use crate::acker::Acker;
use crate::metrics::{CounterHandle, GaugeHandle, HistogramHandle, Metrics, Sampler};
use crate::supervise::{panic_message, RestartDecision, RestartPolicy, RestartTracker};
use crate::time::WatermarkMerger;
use crate::topology::{Bolt, BoltBuilder, OutputCollector};
use crate::tuple::Tuple;
use sa_core::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a bolt task needs from the executor, one per slot;
/// `name` is the component every counter, sink key and error message
/// is attributed to.
pub(crate) struct WorkerCtx {
    pub(crate) name: String,
    pub(crate) routes: Vec<Route>,
    pub(crate) acker: Arc<Mutex<Acker>>,
    pub(crate) semantics: Semantics,
    pub(crate) metrics: Metrics,
    pub(crate) sink: Sink,
    pub(crate) drop_prob: f64,
    /// Chaos: link-delay injection for this component's sends.
    pub(crate) delay: Option<(f64, Duration)>,
    /// Chaos: probability that one `execute` call panics.
    pub(crate) panic_prob: f64,
    /// Supervision policy for this component's tasks.
    pub(crate) restart: RestartPolicy,
    /// Escalation: topology-wide abort flag + first-failure slot.
    pub(crate) abort: Arc<AtomicBool>,
    pub(crate) failure: Arc<Mutex<Option<String>>>,
    /// Run epoch: the injectable clock for restart-window accounting.
    pub(crate) run_start: Instant,
    pub(crate) seed: u64,
    pub(crate) batch_size: usize,
    pub(crate) batch_linger: Duration,
    pub(crate) sample_every: u32,
    /// Every upstream task id (pre-seeds the watermark merger: an
    /// input never heard from blocks the merge).
    pub(crate) upstream_ids: Vec<u32>,
    /// Whether the event-time layer is on for this run.
    pub(crate) watermarks: bool,
    /// Bumped after this task applies acks/fails/releases, so idle
    /// spouts blocked on ack progress wake immediately.
    pub(crate) on_ack: Arc<dyn Fn() + Send + Sync>,
}

/// A batch's ack traffic, applied under one acker lock.
enum AckOp {
    /// `ack(root, input.id ⊕ new edges)`.
    Ack(u64, u64),
    /// Explicit failure of a root.
    Fail(u64),
}

/// Per-task processing state + supervision, driven by `handle_msg` /
/// `idle` from the task's activation.
pub(crate) struct BoltCore {
    /// Task index within the component (error messages, labels).
    idx: usize,
    bolt: Box<dyn Bolt>,
    /// Rebuilds the bolt on supervised restart (factory-declared bolts
    /// recover from their checkpoint; `None` resumes in place).
    factory: Option<BoltBuilder>,
    /// Restart-budget accounting for this task.
    tracker: RestartTracker,
    /// Held acks: `(root, ack value)` per input whose effect is not
    /// yet durable (`OutputCollector::hold_ack`). Drained as acks on
    /// release, as fails on restart-from-checkpoint or escalation.
    held: Vec<(u64, u64)>,
    /// Escalated: drop everything until `Terminate` (the task must
    /// keep draining or bounded upstreams would deadlock).
    zombie: bool,
    /// Chaos RNG for injected panics.
    panic_rng: SplitMix64,
    panics: CounterHandle,
    restarts: CounterHandle,
    /// Restart duration (backoff sleep + rebuild), sampled runs only.
    restart_us: Option<HistogramHandle>,
    /// Whether data arrived since the last `on_idle` call.
    idle_dirty: bool,
    pub(crate) emit: EmitCtx,
    executed: CounterHandle,
    /// Sampled `execute` latency.
    exec_us: Option<HistogramHandle>,
    sampler: Sampler,
    pub(crate) done: bool,
    /// This task's watermark-source id (stamped on forwarded markers).
    my_id: u32,
    /// Min-across-inputs merge state (event-time runs only).
    merger: Option<WatermarkMerger>,
    /// Max event time seen in delivered data (watermark-lag gauge).
    max_et: u64,
    /// Tuples emitted from `on_watermark` (event-time runs only).
    fired: Option<CounterHandle>,
    /// Tuples diverted to the late side output.
    dropped_late: CounterHandle,
    /// Current merged watermark / its lag behind `max_et`.
    wm_gauge: Option<GaugeHandle>,
    lag_gauge: Option<GaugeHandle>,
    /// Pre-resolved terminal-sink slot for the late side output (the
    /// `"{component}.late"` key is interned once at spawn).
    late_slot: SinkSlot,
}

impl BoltCore {
    /// `idx` is the task's index within the component, `my_id` its
    /// global watermark-source id.
    pub(crate) fn new(
        idx: usize,
        my_id: u32,
        mut bolt: Box<dyn Bolt>,
        factory: Option<BoltBuilder>,
        ctx: &WorkerCtx,
    ) -> Self {
        bolt.register_metrics(&ctx.metrics, &ctx.name);
        Self {
            idx,
            tracker: RestartTracker::new(ctx.restart.clone()),
            held: Vec::new(),
            zombie: false,
            panic_rng: SplitMix64::new(ctx.seed ^ 0xB017 ^ (idx as u64) << 32),
            panics: ctx.metrics.register(&format!("{}.panics", ctx.name)),
            restarts: ctx.metrics.register(&format!("{}.restarts", ctx.name)),
            restart_us: (ctx.sample_every > 0)
                .then(|| ctx.metrics.register_histogram(&format!("{}.restart_us", ctx.name))),
            idle_dirty: false,
            emit: EmitCtx::new(
                ctx.routes.clone(),
                ctx.name.clone(),
                &ctx.metrics,
                ctx.sink.clone(),
                ctx.seed,
                ctx.drop_prob,
                ctx.delay,
                ctx.batch_size,
                ctx.batch_linger,
                ctx.sample_every,
            ),
            executed: ctx.metrics.register(&format!("{}.executed", ctx.name)),
            exec_us: (ctx.sample_every > 0)
                .then(|| ctx.metrics.register_histogram(&format!("{}.execute_us", ctx.name))),
            // Phase-staggered per task (seeds differ): sibling tasks
            // sample different events, so hits on the shared sketch
            // don't collide.
            sampler: Sampler::with_phase(ctx.sample_every, ctx.seed as u32),
            done: false,
            my_id,
            merger: ctx.watermarks.then(|| WatermarkMerger::new(ctx.upstream_ids.iter().copied())),
            max_et: 0,
            fired: ctx.watermarks.then(|| ctx.metrics.register(&format!("{}.fired", ctx.name))),
            dropped_late: ctx.metrics.register(&format!("{}.dropped_late", ctx.name)),
            wm_gauge: ctx
                .watermarks
                .then(|| ctx.metrics.register_gauge(&format!("{}.watermark", ctx.name))),
            lag_gauge: ctx
                .watermarks
                .then(|| ctx.metrics.register_gauge(&format!("{}.watermark_lag", ctx.name))),
            late_slot: sink_slot(&ctx.sink, &format!("{}.late", ctx.name)),
            bolt,
            factory,
        }
    }

    /// Whether no acks are parked waiting for a durable commit.
    pub(crate) fn held_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Process one delivered message. Sets `self.done` on `Terminate`.
    pub(crate) fn handle_msg(&mut self, msg: Msg, ctx: &WorkerCtx) {
        if self.zombie {
            // Escalated: drain and discard (upstreams may be blocked
            // on our bounded queue), only honouring Terminate.
            if matches!(msg, Msg::Terminate) {
                self.done = true;
            }
            return;
        }
        match msg {
            Msg::Data(batch) => {
                self.executed.add(batch.len() as u64);
                self.idle_dirty = true;
                if self.merger.is_some() {
                    for t in &batch {
                        if let Some(et) = t.event_time {
                            self.max_et = self.max_et.max(et);
                        }
                    }
                }
                let mut acks: Vec<AckOp> = Vec::new();
                for t in &batch {
                    if self.zombie {
                        // Escalated mid-batch: the rest of the batch
                        // is dropped (trees fail via the timeout).
                        break;
                    }
                    // Chaos panics fire BEFORE `execute`, so the input
                    // was not applied and its replay is not a
                    // duplicate. A genuine mid-`execute` panic may
                    // leave an instance bolt half-updated — factory
                    // bolts discard that state on rebuild.
                    let injected = ctx.panic_prob > 0.0 && self.panic_rng.bernoulli(ctx.panic_prob);
                    let outcome = if injected {
                        Err("injected chaos panic (FaultPlan)".to_string())
                    } else {
                        let t0 = self.sampler.hit().then(Instant::now);
                        let bolt = &mut self.bolt;
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            let mut out = OutputCollector::new();
                            bolt.execute(t, &mut out);
                            out
                        }));
                        match run {
                            Ok(out) => {
                                if let (Some(t0), Some(exec_us)) = (t0, &self.exec_us) {
                                    exec_us.record(t0.elapsed().as_secs_f64() * 1e6);
                                }
                                Ok(out)
                            }
                            Err(payload) => Err(panic_message(&*payload)),
                        }
                    };
                    match outcome {
                        Ok(out) => self.handle_emissions(t, out, ctx, &mut acks),
                        Err(why) => {
                            // Fail the input's tree (replayed by the
                            // spout), then supervise the task.
                            if ctx.semantics == Semantics::AtLeastOnce && t.root != 0 {
                                acks.push(AckOp::Fail(t.root));
                            }
                            self.supervise(ctx, &why);
                        }
                    }
                }
                if !acks.is_empty() {
                    // One lock acquisition settles the whole batch.
                    {
                        let mut acker = ctx.acker.lock().unwrap();
                        for op in acks {
                            match op {
                                AckOp::Ack(root, val) => {
                                    acker.ack(root, val);
                                }
                                AckOp::Fail(root) => acker.fail(root),
                            }
                        }
                    }
                    (ctx.on_ack)();
                }
                self.emit.flush_if_lingering();
            }
            Msg::Watermark { source, wm, idle } => {
                let advanced = self.merger.as_mut().and_then(|m| m.update(source, wm, idle));
                if let Some(new_wm) = advanced {
                    if let Some(out) = self.guarded(ctx, |b, o| b.on_watermark(new_wm, o)) {
                        if let Some(fired) = &self.fired {
                            fired.add(out.emitted.len() as u64);
                        }
                        // Watermark firings have no input to anchor
                        // to; they ride unanchored, like flush output.
                        self.handle_control_out(out, ctx);
                        if let Some(g) = &self.wm_gauge {
                            g.set(new_wm);
                        }
                        if let Some(g) = &self.lag_gauge {
                            g.set(self.max_et.saturating_sub(new_wm));
                        }
                    }
                    // Forward as our own marker (even when the
                    // callback panicked — watermarks are control
                    // flow) — flushing first so it stays behind
                    // everything we just emitted.
                    self.emit.broadcast_watermark(self.my_id, new_wm, false);
                }
            }
            Msg::Rescale => {
                // A shard-table phase change is in flight: drive the
                // idle hook unconditionally (no dirtiness gate) so a
                // sharded bolt observes the table — acknowledging a
                // quiesce or adopting the installed assignment — even
                // if it was parked with no pending input.
                if let Some(out) = self.guarded(ctx, |b, o| b.on_idle(o)) {
                    self.handle_control_out(out, ctx);
                }
                self.emit.flush_all();
            }
            Msg::Flush => {
                if let Some(out) = self.guarded(ctx, |b, o| b.flush(o)) {
                    self.handle_control_out(out, ctx);
                }
                self.emit.flush_all();
            }
            Msg::Terminate => {
                self.emit.flush_all();
                self.done = true;
            }
        }
    }

    /// The idle hook: when the task saw data since the last call (or
    /// still holds acks from a failed commit), let the bolt commit and
    /// release, then ship partial batches. Supervised like every other
    /// callback.
    pub(crate) fn idle(&mut self, ctx: &WorkerCtx) {
        if !self.zombie && (self.idle_dirty || !self.held.is_empty()) {
            self.idle_dirty = false;
            if let Some(out) = self.guarded(ctx, |b, o| b.on_idle(o)) {
                self.handle_control_out(out, ctx);
            }
        }
        self.emit.flush_all();
    }

    /// Run one bolt callback under `catch_unwind`; on panic, supervise
    /// (restart or escalate) and return `None`.
    fn guarded<F>(&mut self, ctx: &WorkerCtx, call: F) -> Option<OutputCollector>
    where
        F: FnOnce(&mut dyn Bolt, &mut OutputCollector),
    {
        let mut out = OutputCollector::new();
        let bolt = &mut *self.bolt;
        match catch_unwind(AssertUnwindSafe(|| call(bolt, &mut out))) {
            Ok(()) => Some(out),
            Err(payload) => {
                self.supervise(ctx, &panic_message(&*payload));
                None
            }
        }
    }

    /// Account one panic against the task's restart budget: back off and
    /// restart (rebuilding factory bolts from their checkpoint), or
    /// escalate to topology failure.
    fn supervise(&mut self, ctx: &WorkerCtx, why: &str) {
        self.panics.add(1);
        ctx.metrics.task_panic();
        match self.tracker.on_panic(ctx.run_start.elapsed()) {
            RestartDecision::Restart(backoff) => {
                // The restart clock includes the backoff sleep — it is
                // the user-visible recovery latency.
                let t0 = Instant::now();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                if let Some(build) = self.factory.as_mut() {
                    match build() {
                        Ok(mut fresh) => {
                            fresh.register_metrics(&ctx.metrics, &ctx.name);
                            self.bolt = fresh;
                            // Inputs the dead incarnation applied but
                            // never persisted: fail them so the spout
                            // replays (the recovered checkpoint dedups
                            // whatever *was* persisted).
                            self.fail_held(ctx);
                        }
                        Err(e) => {
                            self.escalate(ctx, &format!("restart rebuild failed: {e}"));
                            return;
                        }
                    }
                }
                self.restarts.add(1);
                ctx.metrics.task_restart();
                if let Some(h) = &self.restart_us {
                    h.record(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            RestartDecision::Escalate => self.escalate(ctx, why),
        }
    }

    /// Budget exhausted: record the first failure, flip the abort flag,
    /// and turn this task into a draining zombie.
    fn escalate(&mut self, ctx: &WorkerCtx, why: &str) {
        ctx.metrics.escalated();
        {
            let mut slot = ctx.failure.lock().unwrap();
            if slot.is_none() {
                *slot = Some(format!(
                    "bolt '{}' task {} escalated: restart budget exhausted \
                     ({} restarts in the last {:?}): {why}",
                    ctx.name,
                    self.idx,
                    self.tracker.restarts_in_window(ctx.run_start.elapsed()),
                    self.tracker.policy().window,
                ));
            }
        }
        ctx.abort.store(true, Ordering::Relaxed);
        self.zombie = true;
        self.fail_held(ctx);
    }

    /// Fail every held ack (the inputs will be replayed).
    fn fail_held(&mut self, ctx: &WorkerCtx) {
        if self.held.is_empty() {
            return;
        }
        {
            let mut acker = ctx.acker.lock().unwrap();
            for (root, _) in self.held.drain(..) {
                acker.fail(root);
            }
        }
        (ctx.on_ack)();
    }

    /// Apply a control-path collector (`flush` / `on_watermark` /
    /// `on_idle`): emissions ride unanchored, late tuples divert to the
    /// side output, and a release drains the held acks.
    fn handle_control_out(&mut self, mut out: OutputCollector, ctx: &WorkerCtx) {
        self.route_late(std::mem::take(&mut out.late), ctx);
        for mut e in out.emitted {
            e.root = 0;
            self.emit.push(&e, false);
        }
        if out.abandon {
            // The bolt discarded uncommitted state (rescale quiesce):
            // replay the held inputs, exactly like a restart.
            self.fail_held(ctx);
        }
        if out.release && !self.held.is_empty() {
            {
                let mut acker = ctx.acker.lock().unwrap();
                for (root, val) in self.held.drain(..) {
                    acker.ack(root, val);
                }
            }
            (ctx.on_ack)();
        }
    }

    fn handle_emissions(
        &mut self,
        input: &Tuple,
        mut out: OutputCollector,
        ctx: &WorkerCtx,
        acks: &mut Vec<AckOp>,
    ) {
        self.route_late(std::mem::take(&mut out.late), ctx);
        let anchored = ctx.semantics == Semantics::AtLeastOnce && input.root != 0;
        if out.abandon {
            // Uncommitted state was discarded mid-stream (rescale
            // quiesce observed on the execute path): replay the held
            // inputs.
            for (root, _) in self.held.drain(..) {
                acks.push(AckOp::Fail(root));
            }
        }
        if out.release {
            // A durable commit covered every held input: ack them all.
            for (root, val) in self.held.drain(..) {
                acks.push(AckOp::Ack(root, val));
            }
        }
        if out.failed {
            if anchored {
                acks.push(AckOp::Fail(input.root));
            }
            return;
        }
        let mut xor_new = 0u64;
        for mut e in out.emitted {
            e.root = input.root;
            e.lineage = input.lineage;
            // Unstamped outputs inherit the input's event time. `None`
            // is the explicit "unset" marker — an epoch-0 stamp set by
            // the bolt is a real timestamp and survives untouched.
            if e.event_time.is_none() {
                e.event_time = input.event_time;
            }
            xor_new ^= self.emit.push(&e, anchored);
        }
        if anchored {
            if out.hold && !out.release {
                // Not yet durable: park the ack until the bolt releases
                // (or fails/restarts, which replays it).
                self.held.push((input.root, input.id ^ xor_new));
            } else {
                acks.push(AckOp::Ack(input.root, input.id ^ xor_new));
            }
        }
    }

    /// Deliver late-side-output tuples to the run's `"{component}.late"`
    /// sink and count them. Late tuples are rare by construction, so
    /// this path takes the sink lock directly rather than batching.
    fn route_late(&self, late: Vec<Tuple>, _ctx: &WorkerCtx) {
        if late.is_empty() {
            return;
        }
        self.dropped_late.add(late.len() as u64);
        self.late_slot.lock().unwrap().extend(late);
    }
}
