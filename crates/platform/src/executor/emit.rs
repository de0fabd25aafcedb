//! Per-task emission state: routing, batching, linger, terminal sink.

use super::task::TaskCtx;
use super::{fields_task, sink_slot, Msg, Route, SinkSlot};
use crate::metrics::{CounterHandle, HistogramHandle, Metrics, Sampler};
use crate::topology::Grouping;
use crate::tuple::{Batch, Tuple};
use sa_core::rng::SplitMix64;
use std::time::{Duration, Instant};

/// Per-task emission state: routes plus one pending batch per
/// downstream task. Tuples are routed (and edge ids assigned, drops
/// injected, counters bumped) at `push` time; the channel send happens
/// when the target's buffer reaches `batch_size` or on `flush_all`.
pub(crate) struct EmitCtx {
    routes: Vec<Route>,
    /// `buffers[route][target]` = batch under construction.
    buffers: Vec<Vec<Batch>>,
    shuffle_counters: Vec<usize>,
    rng: SplitMix64,
    drop_prob: f64,
    pub(crate) batch_size: usize,
    batch_linger: Duration,
    /// When the oldest currently-buffered tuple was pushed. `None`
    /// whenever nothing is buffered — stale timestamps here would make
    /// `flush_if_lingering` force-flush fresh partial batches forever.
    pub(crate) oldest: Option<Instant>,
    /// Tuples currently sitting in route buffers + `sink_buf`; `oldest`
    /// is cleared when this drains to zero.
    pub(crate) buffered: usize,
    emitted: CounterHandle,
    /// Occupancy of shipped batches (tuples per batch), recorded for
    /// sampled sends. `None` when instrumentation is off.
    batch_fill: Option<HistogramHandle>,
    /// Every-Nth gate for `batch_fill`, phase-staggered per task so
    /// sibling tasks don't contend on the shared sketch in lockstep.
    fill_sampler: Sampler,
    metrics: Metrics,
    /// Pre-resolved terminal-sink slot: the entry key was hashed and
    /// interned ONCE at construction, so a sink drain locks only this
    /// slot — no map lookup, no `String` clone per flush.
    sink_slot: SinkSlot,
    /// Pending terminal-sink appends (terminal components only).
    sink_buf: Vec<Tuple>,
}

impl EmitCtx {
    pub(crate) fn new(routes: Vec<Route>, ctx: &TaskCtx) -> Self {
        let (run, component) = (&*ctx.run, &ctx.name);
        let sample_every = run.config.latency_sample_every;
        // Registration interns the name once; `format!` never runs on
        // the emit path again.
        let emitted = run.metrics.register(&format!("{component}.emitted"));
        let batch_fill = (sample_every > 0)
            .then(|| run.metrics.register_histogram(&format!("{component}.batch_fill")));
        let buffers = routes.iter().map(|r| vec![Vec::new(); r.senders.len()]).collect();
        Self {
            shuffle_counters: vec![0; routes.len()],
            buffers,
            routes,
            rng: SplitMix64::new(ctx.seed),
            drop_prob: run.config.faults.drop_for(component).unwrap_or(0.0),
            batch_size: run.config.batch_size.max(1),
            batch_linger: run.config.batch_linger,
            oldest: None,
            buffered: 0,
            emitted,
            batch_fill,
            fill_sampler: Sampler::with_phase(sample_every, ctx.seed as u32),
            metrics: run.metrics.clone(),
            sink_slot: sink_slot(&run.sink, component),
            sink_buf: Vec::new(),
        }
    }

    /// Route one tuple into the per-target buffers, assigning fresh edge
    /// ids. Returns the XOR of all new edge ids (for ack bookkeeping).
    pub(crate) fn push(&mut self, tuple: &Tuple, track: bool) -> u64 {
        if self.routes.is_empty() {
            // Terminal component: collect into the sink, batched.
            self.sink_buf.push(tuple.clone());
            self.emitted.add(1);
            self.buffered += 1;
            if self.sink_buf.len() >= self.batch_size {
                self.flush_sink();
            } else {
                self.oldest.get_or_insert_with(Instant::now);
            }
            return 0;
        }
        let mut xor = 0u64;
        let mut dropped = 0u64;
        let mut pushed = 0u64;
        for ri in 0..self.routes.len() {
            let fanout = self.routes[ri].senders.len();
            let (lo, hi) = match &self.routes[ri].grouping {
                // Replay-stable: a message re-emitted after a restart
                // carries the lineage of its first attempt, so it
                // returns to the task whose dedup tokens know it (a
                // round-robin counter restarts at 0 and would hand it
                // to a sibling, which applies it a second time).
                // Consecutive source ids still alternate evenly.
                Grouping::Shuffle if tuple.lineage != 0 => {
                    let i = (tuple.lineage % fanout as u64) as usize;
                    (i, i)
                }
                Grouping::Shuffle => {
                    let i = self.shuffle_counters[ri] % fanout;
                    self.shuffle_counters[ri] += 1;
                    (i, i)
                }
                Grouping::Fields(fields) => {
                    // Rescalable downstream: consult the live shard
                    // table (group → current owner); static otherwise.
                    let i = match &self.routes[ri].shard {
                        Some(table) => {
                            table.task_of(crate::rescale::key_group(tuple, fields)).min(fanout - 1)
                        }
                        None => fields_task(tuple, fields, fanout),
                    };
                    (i, i)
                }
                Grouping::Global => (0, 0),
                Grouping::All => (0, fanout - 1),
            };
            for t in lo..=hi {
                let mut msg = tuple.clone();
                let edge = self.rng.next_u64() | 1;
                msg.id = edge;
                if track {
                    xor ^= edge;
                }
                pushed += 1;
                if self.drop_prob > 0.0 && self.rng.bernoulli(self.drop_prob) {
                    // Link failure: the message is lost in flight. Its
                    // edge id stays in the ack tree so the timeout will
                    // replay the root.
                    dropped += 1;
                    continue;
                }
                let buf = &mut self.buffers[ri][t];
                buf.push(msg);
                self.buffered += 1;
                if buf.len() >= self.batch_size {
                    let batch = std::mem::take(buf);
                    self.buffered -= batch.len();
                    if self.fill_sampler.hit() {
                        if let Some(fill) = &self.batch_fill {
                            fill.record(batch.len() as f64);
                        }
                    }
                    // Blocking send = backpressure in bounded mode.
                    let _ = self.routes[ri].senders[t].send(Msg::Data(batch));
                    if self.buffered == 0 {
                        self.oldest = None;
                    }
                } else {
                    self.oldest.get_or_insert_with(Instant::now);
                }
            }
        }
        self.emitted.add(pushed);
        if dropped > 0 {
            self.metrics.links_dropped(dropped);
        }
        xor
    }

    /// Ship every non-empty buffer (called on idle, linger expiry, and
    /// before the task parks or exits).
    pub(crate) fn flush_all(&mut self) {
        for ri in 0..self.routes.len() {
            for t in 0..self.buffers[ri].len() {
                if self.buffers[ri][t].is_empty() {
                    continue;
                }
                let batch = std::mem::take(&mut self.buffers[ri][t]);
                if self.fill_sampler.hit() {
                    if let Some(fill) = &self.batch_fill {
                        fill.record(batch.len() as f64);
                    }
                }
                let _ = self.routes[ri].senders[t].send(Msg::Data(batch));
            }
        }
        if !self.sink_buf.is_empty() {
            self.flush_sink();
        }
        self.buffered = 0;
        self.oldest = None;
    }

    fn flush_sink(&mut self) {
        let drained = std::mem::take(&mut self.sink_buf);
        if drained.is_empty() {
            return;
        }
        self.buffered -= drained.len();
        if self.fill_sampler.hit() {
            if let Some(fill) = &self.batch_fill {
                fill.record(drained.len() as f64);
            }
        }
        if self.buffered == 0 {
            // Last pending buffer drained: reset the linger clock, or
            // every later `flush_if_lingering` would force-flush fresh
            // partial batches off this stale timestamp.
            self.oldest = None;
        }
        self.sink_slot.lock().unwrap().extend(drained);
    }

    /// Flush partial batches whose oldest tuple has out-waited the
    /// linger budget.
    pub(crate) fn flush_if_lingering(&mut self) {
        if self.oldest.is_some_and(|t| t.elapsed() >= self.batch_linger) {
            self.flush_all();
        }
    }

    /// Broadcast a watermark marker to every downstream task (markers
    /// are control messages: they go to ALL tasks regardless of
    /// grouping, and bypass drop injection). Buffered data is flushed
    /// first so the marker cannot overtake tuples it covers — FIFO
    /// channel order does the rest.
    pub(crate) fn broadcast_watermark(&mut self, source: u32, wm: u64) {
        self.flush_all();
        for route in &self.routes {
            for s in &route.senders {
                let _ = s.send(Msg::Watermark { source, wm });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;
    use crate::executor::{ExecutorConfig, Run};
    use crate::supervise::RestartPolicy;
    use crate::tuple::tuple_of;
    use std::sync::Arc;

    const LINGER: Duration = Duration::from_millis(40);

    /// Task 0 of `name` over a fresh run: batches of 4, a 40 ms linger.
    fn task_ctx(name: &str, sample_every: u32) -> TaskCtx {
        let config = ExecutorConfig {
            batch_size: 4,
            batch_linger: LINGER,
            latency_sample_every: sample_every,
            ..Default::default()
        };
        TaskCtx {
            run: Arc::new(Run::new(config, Metrics::new(), &[])),
            name: name.into(),
            task: 0,
            id: 0,
            seed: 1,
            restart: RestartPolicy::default(),
            on_ack: Arc::new(|_| {}),
        }
    }

    /// Regression (PR 3): a full terminal-sink batch must reset the
    /// linger clock. Pre-fix, `flush_sink` left `oldest` at the drained
    /// batch's timestamp, so every later `flush_if_lingering` call
    /// force-flushed fresh partial buffers for the rest of the run —
    /// silently defeating batching.
    #[test]
    fn sink_batch_flush_resets_linger_clock() {
        let ctx = task_ctx("sink", 32);
        let sink = &ctx.run.sink;
        let mut emit = EmitCtx::new(vec![], &ctx);
        for i in 0..4i64 {
            emit.push(&tuple_of([i]), false);
        }
        assert_eq!(sink.lock().unwrap()["sink"].lock().unwrap().len(), 4, "full batch must flush");
        assert!(emit.oldest.is_none(), "stale linger timestamp survived a full sink flush");
        // Wait out the *old* batch's linger budget, then buffer one
        // fresh tuple: it must NOT be force-flushed off the stale clock.
        std::thread::sleep(LINGER + Duration::from_millis(20));
        emit.push(&tuple_of([99i64]), false);
        emit.flush_if_lingering();
        assert_eq!(
            sink.lock().unwrap()["sink"].lock().unwrap().len(),
            4,
            "fresh partial batch was spuriously force-flushed"
        );
    }

    /// Same bug class on routed links: a full batch shipped from `push`
    /// must clear the clock once nothing remains buffered.
    #[test]
    fn full_batch_send_resets_linger_clock() {
        let (tx, rx) = channel::<Msg>(None);
        let route = Route { grouping: Grouping::Shuffle, senders: vec![tx], shard: None };
        let mut emit = EmitCtx::new(vec![route], &task_ctx("b", 0));
        for i in 0..4i64 {
            emit.push(&tuple_of([i]), false);
        }
        assert!(emit.oldest.is_none(), "stale linger timestamp survived a full batch send");
        assert_eq!(emit.buffered, 0);
        assert!(matches!(rx.try_recv(), Ok(Msg::Data(b)) if b.len() == 4));
    }
}
