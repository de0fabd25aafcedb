//! Re-entrant spout core: one `step()` = one iteration of the classic
//! spout loop, so the same code drives a dedicated thread
//! (`Scheduling::ThreadPerTask`) or a pool activation that
//! must yield between steps (`Scheduling::WorkStealing`). Every
//! produced tuple is routed straight to the downstream inboxes; the
//! spout supervises only its own `next_tuple`, through the shared
//! [`Supervisor`]: a restart resumes the same instance in place, and an
//! escalated spout stops.

use super::emit::EmitCtx;
use super::task::{Supervisor, TaskCtx};
use super::{encode_root, Route, Semantics};
use crate::metrics::{CounterHandle, HistogramHandle, Sampler};
use crate::time::{WatermarkConfig, WatermarkGen};
use crate::topology::Spout;
use crate::tuple::{tuple_of, Tuple};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Spout-side poison-tuple bookkeeping: replay counts per message and
/// the dead-letter output they overflow into.
struct Quarantine {
    max_replays: Option<u32>,
    /// Failures observed per spout-local message id.
    counts: HashMap<u64, u32>,
    /// Terminal-sink key (`"{spout}.dlq"`).
    key: String,
    dlq: CounterHandle,
}

/// Spout-side watermark state (only built when the policy is on).
struct SpoutWm {
    gen: WatermarkGen,
    cfg: WatermarkConfig,
    /// Emissions since the last broadcast attempt.
    since_emit: usize,
}

/// The spout loop's histogram handles (instrumented runs only).
struct SpoutObs {
    /// Sampled `next_tuple` latency (only calls that yielded a tuple).
    next_us: HistogramHandle,
    /// Sampled end-to-end latency: spout emission → root fully acked.
    ack_us: HistogramHandle,
    /// Duration of each acker settle visit (registration + drain).
    settle_us: HistogramHandle,
}

/// What one `step()` did — the scheduler decides what happens next.
pub(crate) enum SpoutStep {
    /// Produced a tuple (or recovered from a panic): call again soon.
    Progress,
    /// Source exhausted for now. `seen` is this spout's ack-progress
    /// sequence snapshotted *before* the final settle — a runner that
    /// re-checks it before going dormant cannot miss an ack that landed
    /// in between.
    Idle { seen: u64 },
    /// Terminal: clean finish, shutdown timeout, kill, or escalation.
    Done,
}

/// The spout state machine. `step()` is one iteration of the classic
/// spout loop; an activation runs a slice of them.
pub(crate) struct SpoutCore {
    spout: Box<dyn Spout>,
    pub(crate) ctx: TaskCtx,
    sup: Supervisor,
    emit: EmitCtx,
    obs: Option<SpoutObs>,
    quarantine: Quarantine,
    next_sampler: Sampler,
    ack_sampler: Sampler,
    local_auto: u64,
    // Fresh ack-tree root per emission: replays get a new tree, so stale
    // acks from an earlier attempt cannot corrupt it (Storm assigns new
    // root ids on re-emission for the same reason). `in_flight` maps
    // live roots back to the spout's stable message id, plus the
    // emission timestamp for sampled roots (ack-latency tracking).
    root_counter: u64,
    in_flight: HashMap<u64, (u64, Option<Instant>)>,
    // Root registrations accumulated since the last acker visit, in
    // mint order; applied in one lock acquisition per batch rather than
    // one per tuple.
    pending_inits: Vec<(u64, u64)>,
    since_settle: usize,
    // Stall clock: time since the spout last made progress (an
    // emission, or a root settling). Only a full `shutdown_timeout` of
    // NO progress marks the run unclean — wall-clock age alone must
    // not, or long trickle-input runs get falsely flagged while roots
    // are still settling.
    exhausted_at: Option<Instant>,
    wm: Option<SpoutWm>,
    finished_clean: bool,
    done: bool,
}

impl SpoutCore {
    pub(crate) fn new(spout: Box<dyn Spout>, routes: Vec<Route>, ctx: TaskCtx) -> Self {
        let (config, metrics, name) = (&ctx.run.config, &ctx.run.metrics, &ctx.name);
        let sample_every = config.latency_sample_every;
        let obs = (sample_every > 0).then(|| SpoutObs {
            next_us: metrics.register_histogram(&format!("{name}.next_us")),
            ack_us: metrics.register_histogram(&format!("{name}.ack_latency_us")),
            settle_us: metrics.register_histogram(&format!("{name}.settle_us")),
        });
        let quarantine = Quarantine {
            max_replays: config.max_replays,
            counts: HashMap::new(),
            key: format!("{name}.dlq"),
            dlq: metrics.register(&format!("{name}.dlq")),
        };
        let wm = config.watermarks.clone().map(|cfg| SpoutWm {
            gen: WatermarkGen::new(cfg.bound),
            cfg,
            since_emit: 0,
        });
        Self {
            spout,
            sup: Supervisor::new(&ctx, ctx.seed ^ 0xFA17),
            emit: EmitCtx::new(routes, &ctx),
            obs,
            quarantine,
            next_sampler: Sampler::new(sample_every),
            ack_sampler: Sampler::new(sample_every),
            local_auto: 0,
            root_counter: 0,
            in_flight: HashMap::new(),
            pending_inits: Vec::new(),
            since_settle: 0,
            exhausted_at: None,
            wm,
            finished_clean: false,
            done: false,
            ctx,
        }
    }

    /// Run up to `budget` steps, stopping early on idle or done, so one
    /// activation cannot monopolize a pool worker.
    pub(crate) fn run_slice(&mut self, budget: usize) -> SpoutStep {
        for _ in 0..budget {
            match self.step() {
                SpoutStep::Progress => {}
                stop => return stop,
            }
        }
        SpoutStep::Progress
    }

    /// One iteration of the spout loop. Never blocks beyond supervised
    /// restart backoff and downstream backpressure.
    fn step(&mut self) -> SpoutStep {
        if self.done {
            return SpoutStep::Done;
        }
        let run = &self.ctx.run;
        if run.killed() || run.abort.load(Ordering::Relaxed) {
            // Crash (stop dead: buffered partial batches are lost in
            // flight, in-flight trees never settle), or another task
            // escalated (stop feeding the topology so the coordinator
            // can drain it and report the failure).
            run.unclean.store(true, Ordering::Relaxed);
            self.done = true;
            return SpoutStep::Done;
        }
        // Settle acks/fails destined for this spout — once per batch (or
        // on idle), not once per tuple.
        if self.semantics() == Semantics::AtLeastOnce && self.since_settle >= self.emit.batch_size {
            self.since_settle = 0;
            self.settle();
        }
        self.emit.flush_if_lingering();
        // A crashing `next_tuple` is supervised — backoff and retry with
        // the same instance — not a dead topology.
        let t0 = self.next_sampler.hit().then(Instant::now);
        let produced = match self.sup.work(|| self.spout.next_tuple()) {
            Ok(produced) => produced,
            Err(why) => {
                if self.sup.on_panic(&self.ctx, "spout", &why, || Ok(())) {
                    return SpoutStep::Progress;
                }
                self.done = true;
                return SpoutStep::Done;
            }
        };
        match produced {
            Some(t) => {
                if let (Some(t0), Some(obs)) = (t0, &self.obs) {
                    obs.next_us.record(t0.elapsed().as_secs_f64() * 1e6);
                }
                self.process(t);
                SpoutStep::Progress
            }
            None => self.idle_step(),
        }
    }

    fn semantics(&self) -> Semantics {
        self.ctx.run.config.semantics
    }

    /// Route one produced tuple downstream.
    fn process(&mut self, mut t: Tuple) {
        self.exhausted_at = None;
        self.since_settle += 1;
        // The spout's own message id (stable across replays) arrives in
        // `root`; it becomes the tuple's lineage.
        let local = if t.root != 0 {
            t.root
        } else {
            self.local_auto += 1;
            self.local_auto
        };
        t.lineage = local;
        match self.semantics() {
            Semantics::AtMostOnce => {
                t.root = 0;
                self.emit.push(&t, false);
            }
            Semantics::AtLeastOnce => {
                self.root_counter += 1;
                let root = encode_root(self.ctx.id, self.root_counter);
                t.root = root;
                let born = self.ack_sampler.hit().then(Instant::now);
                self.in_flight.insert(root, (local, born));
                let xor = self.emit.push(&t, true);
                self.pending_inits.push((root, xor));
            }
        }
        let mut adv = None;
        if let Some(w) = self.wm.as_mut() {
            if let Some(et) = t.event_time {
                w.gen.observe(et);
            }
            w.since_emit += 1;
            if w.since_emit >= w.cfg.emit_every {
                w.since_emit = 0;
                adv = w.gen.advance();
            }
        }
        if let Some(new_wm) = adv {
            self.emit.broadcast_watermark(self.ctx.id, new_wm);
        }
    }

    /// The exhausted branch: flush, settle, and decide between clean
    /// finish, stall timeout, and parking.
    fn idle_step(&mut self) -> SpoutStep {
        // Snapshot the sequence BEFORE settling: an ack landing after
        // this point bumps the sequence, and the runner's re-check of
        // `seen` re-activates the slot instead of sleeping on missed
        // progress.
        let seen = self.ctx.run.acks(self.ctx.id).seq.load(Ordering::Acquire);
        // Idle: ship partial batches and settle before deciding.
        self.emit.flush_all();
        let mut progressed = 0;
        if self.semantics() == Semantics::AtLeastOnce {
            self.since_settle = 0;
            progressed = self.settle();
        }
        let done = match self.semantics() {
            Semantics::AtMostOnce => true,
            Semantics::AtLeastOnce => self.spout.pending() == 0,
        };
        if done {
            self.finished_clean = true;
            self.finish();
            self.done = true;
            return SpoutStep::Done;
        }
        if progressed > 0 {
            // Roots settled: the run is draining, not stuck.
            self.exhausted_at = None;
        }
        let started = *self.exhausted_at.get_or_insert_with(Instant::now);
        if started.elapsed() > self.ctx.run.config.shutdown_timeout {
            self.ctx.run.unclean.store(true, Ordering::Relaxed);
            self.finish();
            self.done = true;
            return SpoutStep::Done;
        }
        SpoutStep::Idle { seen }
    }

    /// Terminal flush: final partial batches and the end-of-stream
    /// watermark.
    fn finish(&mut self) {
        self.emit.flush_all();
        if self.finished_clean && self.wm.is_some() {
            // End of stream: promise "no more data, ever" so every
            // pending window downstream fires before the flush phase.
            // (FIFO order puts this marker ahead of the coordinator's
            // `Flush`, which is only sent after spouts are joined.)
            self.emit.broadcast_watermark(self.ctx.id, u64::MAX);
        }
    }

    /// One visit to this spout's acker: register accumulated roots,
    /// expire stale trees, and route completions/failures back into the
    /// spout. Returns the number of roots that settled (acked, failed,
    /// or quarantined) — the shutdown loop's progress signal.
    fn settle(&mut self) -> u64 {
        let obs = self.obs.as_ref();
        let visit_start = obs.map(|_| Instant::now());
        let (completed, failed) = {
            let acks = self.ctx.run.acks(self.ctx.id);
            let mut acker = acks.acker.lock().expect("acker lock poisoned");
            for (root, xor) in self.pending_inits.drain(..) {
                acker.init(root, xor);
            }
            acker.expire(self.ctx.run.config.ack_timeout);
            (acker.take_completed(), acker.take_failed())
        };
        let mut settled = 0u64;
        for root in completed {
            if let Some((local, born)) = self.in_flight.remove(&root) {
                self.spout.ack(local);
                self.quarantine.counts.remove(&local);
                self.ctx.run.metrics.root_acked();
                settled += 1;
                if let (Some(obs), Some(born)) = (obs, born) {
                    obs.ack_us.record(born.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        for root in failed {
            if let Some((local, _)) = self.in_flight.remove(&root) {
                self.ctx.run.metrics.root_failed();
                let replays = self.quarantine.counts.entry(local).or_insert(0);
                *replays += 1;
                if self.quarantine.max_replays.is_some_and(|max| *replays > max) {
                    // Poison: its replay budget is spent. Retire the
                    // message from the spout and divert it (or an
                    // id-only stub) to the dead-letter output.
                    self.quarantine.counts.remove(&local);
                    let mut t =
                        self.spout.quarantine(local).unwrap_or_else(|| tuple_of([local as i64]));
                    t.lineage = local;
                    t.root = 0;
                    self.ctx.run.metrics.root_quarantined();
                    self.quarantine.dlq.add(1);
                    super::sink_slot(&self.ctx.run.sink, &self.quarantine.key)
                        .lock()
                        .unwrap()
                        .push(t);
                } else if self.spout.fail(local) {
                    // Replay is the spout's decision: only count one
                    // when the spout actually requeued the message.
                    self.ctx.run.metrics.root_replayed();
                }
                settled += 1;
            }
        }
        if let (Some(obs), Some(visit_start)) = (obs, visit_start) {
            obs.settle_us.record(visit_start.elapsed().as_secs_f64() * 1e6);
        }
        settled
    }
}
