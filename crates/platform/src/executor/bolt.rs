//! Re-entrant bolt core: message-at-a-time processing state for one
//! bolt task, with its held-ack ledger and watermark forwarding. The
//! runtime drives it from whichever thread runs the task's activation —
//! the slot's own thread under the dedicated driver, the pool worker
//! that claimed it under the pool. Supervision is the shared
//! [`Supervisor`]; what is bolt-specific is that a restart rebuilds a
//! factory-declared bolt from its checkpoint (failing its held acks),
//! and that an escalated task turns into a draining zombie.

use super::emit::EmitCtx;
use super::task::{isolate, Supervisor, TaskCtx};
use super::{decode_root, sink_slot, BoltTask, Msg, Route, Semantics, SinkSlot};
use crate::metrics::{CounterHandle, GaugeHandle, HistogramHandle, Sampler};
use crate::time::WatermarkMerger;
use crate::topology::{Bolt, BoltBuilder, OutputCollector};
use crate::tuple::Tuple;
use std::time::Instant;

/// One unit of ack traffic, applied by [`apply_acks`].
enum AckOp {
    /// `ack(root, input.id ⊕ new edges)`.
    Ack(u64, u64),
    /// Explicit failure of a root.
    Fail(u64),
}

/// Per-task processing state + supervision, driven by `handle_msg` /
/// `idle` from the task's activation.
pub(crate) struct BoltCore {
    ctx: TaskCtx,
    sup: Supervisor,
    bolt: Box<dyn Bolt>,
    /// Rebuilds the bolt on supervised restart (factory-declared bolts
    /// recover from their checkpoint; `None` resumes in place).
    factory: Option<BoltBuilder>,
    /// Held acks: `(root, ack value)` per input whose effect is not
    /// yet durable (`OutputCollector::hold_ack`). Drained as acks on
    /// release, as fails on restart-from-checkpoint or escalation.
    held: Vec<(u64, u64)>,
    /// Escalated: drop everything until `Terminate` (the task must
    /// keep draining or bounded upstreams would deadlock).
    zombie: bool,
    /// Whether data arrived since the last `on_idle` call.
    idle_dirty: bool,
    pub(crate) emit: EmitCtx,
    executed: CounterHandle,
    /// Sampled `execute` latency.
    exec_us: Option<HistogramHandle>,
    sampler: Sampler,
    pub(crate) done: bool,
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
    /// `upstream_ids` are every upstream task's global id: they pre-seed
    /// the watermark merger (an input never heard from blocks the merge).
    pub(crate) fn new(
        task: BoltTask,
        routes: Vec<Route>,
        upstream_ids: &[u32],
        ctx: TaskCtx,
    ) -> Self {
        let BoltTask { mut bolt, factory } = task;
        let (metrics, name) = (&ctx.run.metrics, &ctx.name);
        let watermarks = ctx.run.config.watermarks.is_some();
        let sample_every = ctx.run.config.latency_sample_every;
        bolt.register_metrics(metrics, name);
        Self {
            sup: Supervisor::new(&ctx, ctx.seed ^ 0xB017 ^ (ctx.task as u64) << 32),
            held: Vec::new(),
            zombie: false,
            idle_dirty: false,
            emit: EmitCtx::new(routes, &ctx),
            executed: metrics.register(&format!("{name}.executed")),
            exec_us: (sample_every > 0)
                .then(|| metrics.register_histogram(&format!("{name}.execute_us"))),
            // Phase-staggered per task (seeds differ): sibling tasks
            // sample different events, so hits on the shared sketch
            // don't collide.
            sampler: Sampler::with_phase(sample_every, ctx.seed as u32),
            done: false,
            merger: watermarks.then(|| WatermarkMerger::new(upstream_ids.iter().copied())),
            max_et: 0,
            fired: watermarks.then(|| metrics.register(&format!("{name}.fired"))),
            dropped_late: metrics.register(&format!("{name}.dropped_late")),
            wm_gauge: watermarks.then(|| metrics.register_gauge(&format!("{name}.watermark"))),
            lag_gauge: watermarks.then(|| metrics.register_gauge(&format!("{name}.watermark_lag"))),
            late_slot: sink_slot(&ctx.run.sink, &format!("{name}.late")),
            bolt,
            factory,
            ctx,
        }
    }

    /// Whether no acks are parked waiting for a durable commit.
    pub(crate) fn held_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Process one delivered message. Sets `self.done` on `Terminate`.
    pub(crate) fn handle_msg(&mut self, msg: Msg) {
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
                    // A genuine mid-`execute` panic may leave an
                    // instance bolt half-updated — factory bolts
                    // discard that state on rebuild.
                    let t0 = self.sampler.hit().then(Instant::now);
                    let outcome = self.sup.work(|| {
                        let mut out = OutputCollector::new();
                        self.bolt.execute(t, &mut out);
                        out
                    });
                    match outcome {
                        Ok(out) => {
                            if let (Some(t0), Some(exec_us)) = (t0, &self.exec_us) {
                                exec_us.record(t0.elapsed().as_secs_f64() * 1e6);
                            }
                            self.handle_emissions(t, out, &mut acks);
                        }
                        Err(why) => {
                            // Fail the input's tree (replayed by the
                            // spout), then supervise the task.
                            if self.anchored(t) {
                                acks.push(AckOp::Fail(t.root));
                            }
                            self.supervise(&why);
                        }
                    }
                }
                apply_acks(&self.ctx, acks);
                self.emit.flush_if_lingering();
            }
            Msg::Watermark { source, wm } => {
                let advanced = self.merger.as_mut().and_then(|m| m.update(source, wm));
                if let Some(new_wm) = advanced {
                    if let Some(out) = self.guarded(|b, o| b.on_watermark(new_wm, o)) {
                        if let Some(fired) = &self.fired {
                            fired.add(out.emitted.len() as u64);
                        }
                        // Watermark firings have no input to anchor
                        // to; they ride unanchored, like flush output.
                        self.handle_control_out(out);
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
                    self.emit.broadcast_watermark(self.ctx.id, new_wm);
                }
            }
            Msg::Rescale => {
                // A shard-table phase change is in flight: drive the
                // idle hook unconditionally (no dirtiness gate) so a
                // sharded bolt observes the table — acknowledging a
                // quiesce or adopting the installed assignment — even
                // if it was parked with no pending input.
                if let Some(out) = self.guarded(|b, o| b.on_idle(o)) {
                    self.handle_control_out(out);
                }
                self.emit.flush_all();
            }
            Msg::Flush => {
                if let Some(out) = self.guarded(|b, o| b.flush(o)) {
                    self.handle_control_out(out);
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
    /// still holds acks from a deferred or failed commit), let the bolt
    /// commit and release, then ship partial batches. Supervised like
    /// every other callback.
    pub(crate) fn idle(&mut self) {
        if !self.zombie && (self.idle_dirty || !self.held.is_empty()) {
            self.idle_dirty = false;
            if let Some(out) = self.guarded(|b, o| b.on_idle(o)) {
                self.handle_control_out(out);
            }
        }
        self.emit.flush_all();
    }

    /// Whether `input` belongs to a tracked ack tree.
    fn anchored(&self, input: &Tuple) -> bool {
        self.ctx.run.config.semantics == Semantics::AtLeastOnce && input.root != 0
    }

    /// Run one control callback (`flush` / `on_watermark` / `on_idle`)
    /// isolated; on panic, supervise (restart or escalate) and return
    /// `None`.
    fn guarded<F>(&mut self, call: F) -> Option<OutputCollector>
    where
        F: FnOnce(&mut dyn Bolt, &mut OutputCollector),
    {
        let outcome = isolate(|| {
            let mut out = OutputCollector::new();
            call(&mut *self.bolt, &mut out);
            out
        });
        match outcome {
            Ok(out) => Some(out),
            Err(why) => {
                self.supervise(&why);
                None
            }
        }
    }

    /// Hand one panic to the supervisor. A restart rebuilds a factory
    /// bolt from its checkpoint; escalation turns this task into a
    /// draining zombie. Either way, inputs the dead incarnation applied
    /// but never persisted are failed so the spout replays them (the
    /// recovered checkpoint dedups whatever *was* persisted).
    fn supervise(&mut self, why: &str) {
        let restarted = self.sup.on_panic(&self.ctx, "bolt", why, || {
            if let Some(build) = self.factory.as_mut() {
                let mut fresh = build().map_err(|e| e.to_string())?;
                fresh.register_metrics(&self.ctx.run.metrics, &self.ctx.name);
                self.bolt = fresh;
                settle_held(&mut self.held, &self.ctx, false);
            }
            Ok(())
        });
        if !restarted {
            self.zombie = true;
            settle_held(&mut self.held, &self.ctx, false);
        }
    }

    /// Apply a control-path collector (`flush` / `on_watermark` /
    /// `on_idle`): emissions ride unanchored, late tuples divert to the
    /// side output, and a release drains the held acks.
    fn handle_control_out(&mut self, mut out: OutputCollector) {
        self.route_late(std::mem::take(&mut out.late));
        for mut e in out.emitted {
            e.root = 0;
            self.emit.push(&e, false);
        }
        if out.abandon {
            // The bolt discarded uncommitted state (rescale quiesce):
            // replay the held inputs, exactly like a restart.
            settle_held(&mut self.held, &self.ctx, false);
        }
        if out.release {
            settle_held(&mut self.held, &self.ctx, true);
        }
    }

    fn handle_emissions(&mut self, input: &Tuple, mut out: OutputCollector, acks: &mut Vec<AckOp>) {
        self.route_late(std::mem::take(&mut out.late));
        let anchored = self.anchored(input);
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
    fn route_late(&self, late: Vec<Tuple>) {
        if late.is_empty() {
            return;
        }
        self.dropped_late.add(late.len() as u64);
        self.late_slot.lock().unwrap().extend(late);
    }
}

/// Settle every held ack: ack them (a durable commit covered them) or
/// fail them (the inputs will be replayed).
fn settle_held(held: &mut Vec<(u64, u64)>, ctx: &TaskCtx, ack: bool) {
    let op = |(root, val)| if ack { AckOp::Ack(root, val) } else { AckOp::Fail(root) };
    apply_acks(ctx, held.drain(..).map(op));
}

/// The one path ack traffic takes: each run of ops for the same spout
/// is applied under one lock of that spout's acker (never two held at
/// once), then that spout alone is woken.
fn apply_acks(ctx: &TaskCtx, ops: impl IntoIterator<Item = AckOp>) {
    let spout_of = |op: &AckOp| match *op {
        AckOp::Ack(root, _) | AckOp::Fail(root) => decode_root(root).0,
    };
    let mut ops = ops.into_iter().peekable();
    while let Some(spout) = ops.peek().map(spout_of) {
        {
            let mut acker = ctx.run.acks(spout).acker.lock().expect("acker lock poisoned");
            while let Some(op) = ops.next_if(|op| spout_of(op) == spout) {
                match op {
                    AckOp::Ack(root, val) => {
                        acker.ack(root, val);
                    }
                    AckOp::Fail(root) => acker.fail(root),
                }
            }
        }
        (ctx.on_ack)(spout);
    }
}
