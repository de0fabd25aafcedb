//! The runtime: maps a topology onto OS threads and channels.
//!
//! A "cluster" here is a set of OS threads (workers) connected by
//! channels (links); DESIGN.md §2 argues why the semantics under study
//! — groupings, acking, replay, backpressure — are preserved by this
//! substitution. There is **one runtime** (`runtime.rs`): every task
//! lives in a slot with an inbox, and one activation function runs a
//! slot against its pending input. Two *drivers* map slots onto
//! threads ([`crate::Scheduling`], see DESIGN.md §9), which is how the
//! Storm→Heron redesign the paper describes is reproduced:
//!
//! * [`Scheduling::ThreadPerTask`] (Heron): every slot owns a thread
//!   that sleeps on the slot between activations; inboxes are
//!   **bounded** by [`ExecutorConfig::channel_capacity`], so a full
//!   inbox blocks its producers — natural backpressure.
//! * [`Scheduling::WorkStealing`]: a fixed pool of N workers (Samza /
//!   Flink style) sharing one FIFO run queue, on whose condvar idle
//!   workers park. Inboxes are **unbounded**; with fewer workers than tasks this is Storm's
//!   "tasks multiplexed over shared workers and a complex set of
//!   queues" configuration that motivated Heron.
//!
//! Either way a task is exactly one slot with one inbox, so every hop
//! between two components is a channel hop and every task is acked and
//! watermarked by the same code (`BoltCore` / `SpoutCore`). Both kinds
//! see the run through one `TaskCtx` (a per-task view of the shared
//! `Run`: config, metrics, sink, one acker per spout task, stop flags)
//! and run their user code under one `Supervisor` (chaos injection,
//! panic isolation, restart budget, escalation; `task.rs`).
//!
//! # The fast path
//!
//! Links carry [`Batch`]es of rows, not single tuples, and nothing
//! else: emitters buffer per downstream task and ship a full
//! `Vec<Tuple>` when [`ExecutorConfig::batch_size`] is reached, or when
//! the linger/idle policy flushes a partial batch. Tuple payloads are
//! `Arc`-interned, so an `All`-grouped fan-out clone is a refcount bump
//! (DESIGN.md §10). Routing still happens per tuple
//! (fields grouping hashes every tuple), but channel synchronisation,
//! terminal-sink locking, and acker locking are paid **once per
//! batch**. Metrics on this path are pre-registered
//! [`crate::metrics::CounterHandle`]s — the per-tuple cost is one relaxed atomic add;
//! no `format!`, no map lookup, no mutex (see `metrics.rs`).
//!
//! # Self-instrumentation
//!
//! The executor observes itself with the repo's own synopses
//! (`metrics.rs` module docs): per-component execute latency, spout
//! `next_tuple` latency, end-to-end ack latency, and acker settle time
//! flow into GK quantile histograms under **sampled recording** —
//! [`ExecutorConfig::latency_sample_every`] gates the clock reads so
//! the hot loop usually pays one branch. Batch occupancy
//! (`{component}.batch_fill`) is sampled the same way, once per Nth
//! shipped batch; samplers are phase-staggered across a component's
//! tasks so hits on the shared sketch never line up in lockstep. And
//! every bolt's input queues share a [`crate::channel::LinkStats`]
//! gauge (`{component}.input`): live depth, high-water mark, and
//! backpressure stalls (count + blocked nanoseconds in bounded
//! `send`). The pool adds per-worker scheduler counters
//! (`sched.worker{i}.{runs,parks}`). Set
//! `latency_sample_every = 0` to disable the latency layer and run
//! bare.

mod bolt;
mod emit;
mod runtime;
mod spout;
mod task;

use crate::acker::Acker;
use crate::channel::Sender;
use crate::metrics::Metrics;
use crate::supervise::{FaultPlan, RestartPolicy};
use crate::time::WatermarkConfig;
use crate::topology::{
    Bolt, BoltBuilder, BoltSource, ComponentDecl, ComponentKind, Grouping, Scheduling, Spout,
    TopologyBuilder,
};
use crate::tuple::{Batch, Tuple};
use sa_core::{Result, SaError, TopologyError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Delivery guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// Fire-and-forget: no acking, lost tuples stay lost (S4-style).
    AtMostOnce,
    /// Storm's XOR-ack protocol: failed/timed-out trees are replayed by
    /// the spout. Exactly-once is built on top of this by bolts that
    /// deduplicate through [`crate::checkpoint::CheckpointStore`].
    AtLeastOnce,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Task→thread driver: a dedicated thread per task over bounded
    /// inboxes (default), or a fixed pool of workers sharing one run
    /// queue over unbounded ones.
    pub scheduling: Scheduling,
    /// Delivery guarantee.
    pub semantics: Semantics,
    /// Inbox capacity (in messages: data batches and control markers
    /// alike) under [`Scheduling::ThreadPerTask`]:
    /// a producer that finds its consumer's inbox full blocks until it
    /// drains (backpressure). Pool inboxes are unbounded.
    pub channel_capacity: usize,
    /// Tuples per link batch. 1 = ship every tuple immediately (the
    /// pre-batching behaviour); larger values amortise channel and
    /// acker synchronisation across the batch.
    pub batch_size: usize,
    /// How long a partial batch may sit in an emit buffer before the
    /// producer force-flushes it, bounding latency under trickle input.
    /// (Producers also flush whenever they go idle, so this only
    /// matters for tasks that stay busy without filling a batch.)
    pub batch_linger: Duration,
    /// Wall-clock age after which a pending tuple tree is failed and
    /// replayed (Storm's message timeout).
    pub ack_timeout: Duration,
    /// How long a spout may sit idle **without progress** (no emission,
    /// no settled root) before the run is declared unclean. Progress of
    /// any kind — a new tuple, an ack, a fail — resets the clock, so
    /// slow trickle runs are not killed by wall-clock age alone.
    pub shutdown_timeout: Duration,
    /// Sampled-recording rate of the latency instrumentation: one in
    /// this many events gets a clock read + histogram insert. `0`
    /// disables latency histograms, batch-occupancy stats, and link
    /// gauges entirely (bare fast path). Default 32 — measured overhead
    /// is within a few percent (experiment T2.D).
    pub latency_sample_every: u32,
    /// Event-time watermark policy. `None` (the default) disables the
    /// event-time layer entirely: no markers flow, `Bolt::on_watermark`
    /// never fires, and the data path is unchanged. `Some` turns spouts
    /// into watermark generators and bolts into min-merging forwarders
    /// (see `time.rs` module docs).
    pub watermarks: Option<WatermarkConfig>,
    /// RNG seed (edge ids, drop injection).
    pub seed: u64,
    /// Default restart policy for every task; components override it
    /// with `SpoutHandle::restart` / `BoltHandle::restart`. The default
    /// grants a generous budget — [`RestartPolicy::none`] restores the
    /// pre-supervision "first panic fails the topology" behaviour.
    pub restart: RestartPolicy,
    /// Replays granted to one spout message before it is quarantined to
    /// the `"{spout}.dlq"` dead-letter output instead of being replayed
    /// again. `None` (default) replays forever.
    pub max_replays: Option<u32>,
    /// Chaos plan: injected panics, per-component link drops and the
    /// crash switch ([`FaultPlan::kill_switch`]). (Storage faults apply
    /// separately, through [`FaultPlan::wrap_storage`].) Empty by
    /// default.
    pub faults: FaultPlan,
    /// Live-rescaling controller. When set, `Fields` routes into
    /// components with a registered [`crate::rescale::ShardTable`]
    /// consult the table's live assignment (instead of the static
    /// ring→task map), and the executor registers every component's
    /// input senders with the controller so
    /// [`crate::rescale::RescaleController::resize`] can reach parked
    /// tasks. `None` (default): fully static routing, zero overhead.
    pub rescale: Option<crate::rescale::RescaleController>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            scheduling: Scheduling::ThreadPerTask,
            semantics: Semantics::AtLeastOnce,
            channel_capacity: 1024,
            batch_size: 64,
            batch_linger: Duration::from_millis(2),
            ack_timeout: Duration::from_secs(5),
            shutdown_timeout: Duration::from_secs(10),
            latency_sample_every: 32,
            watermarks: None,
            seed: 0xD15C0,
            restart: RestartPolicy::default(),
            max_replays: None,
            faults: FaultPlan::default(),
            rescale: None,
        }
    }
}

/// What a run returns.
#[derive(Debug)]
pub struct RunResult {
    /// Tuples emitted by *terminal* bolts (no downstream subscribers),
    /// keyed by component name.
    pub outputs: HashMap<String, Vec<Tuple>>,
    /// Runtime metrics (read with [`Metrics::snapshot`]).
    pub metrics: Metrics,
    /// False when the shutdown timeout expired with trees still pending.
    pub clean_shutdown: bool,
}

pub(crate) enum Msg {
    /// A run of tuples for one task: the only payload a link carries.
    Data(Batch),
    /// In-band watermark marker: the task identified by `source`
    /// promises no tuple with `event_time < wm` will follow on this
    /// link. Markers ride the same FIFO channels as data — senders
    /// flush their emit buffers first, so a marker can never overtake
    /// tuples it covers.
    Watermark {
        source: u32,
        wm: u64,
    },
    /// Rescale kick: a shard-table phase change is in flight for this
    /// component. Wakes parked tasks and drives the idle hook so
    /// sharded bolts observe the new table promptly (harmless no-op
    /// for everything else).
    Rescale,
    Flush,
    Terminate,
}

/// One downstream subscription of a component.
#[derive(Clone)]
pub(crate) struct Route {
    pub(crate) grouping: Grouping,
    pub(crate) senders: Vec<Sender<Msg>>,
    /// Live group→task assignment for `Fields` routes into a rescalable
    /// component; `None` routes through the static ring→task map.
    pub(crate) shard: Option<crate::rescale::ShardTable>,
}

/// One terminal-sink entry, pre-resolved at task spawn so the hot flush
/// path locks only its own slot — no map lookup, no key clone, and no
/// contention between components that share the run-wide sink.
pub(crate) type SinkSlot = Arc<Mutex<Vec<Tuple>>>;

pub(crate) type Sink = Mutex<HashMap<String, SinkSlot>>;

/// Intern `key`'s slot in the run sink (build-time only).
pub(crate) fn sink_slot(sink: &Sink, key: &str) -> SinkSlot {
    sink.lock().unwrap().entry(key.to_string()).or_default().clone()
}

/// Combined hash of a tuple's grouped fields. Per-field hashes are
/// mix-combined, not raw-XORed, and the result passes through `mix64`
/// once more: a raw XOR cancels identical per-field hashes (duplicated
/// indices, repeated values), piling low-entropy keys onto one group.
/// Tuples missing every grouped field share one (well-defined) "null
/// key" hash, as fields grouping requires.
pub(crate) fn fields_hash(tuple: &Tuple, fields: &[usize]) -> u64 {
    let mut h = 0u64;
    for &f in fields {
        if let Some(v) = tuple.get(f) {
            h = sa_core::hash::mix64(h ^ v.hash64().rotate_left(f as u32));
        }
    }
    sa_core::hash::mix64(h)
}

/// Task index for a fields grouping. Routes through the key-group ring
/// (`hash → group → contiguous range of tasks`, see [`crate::rescale`])
/// rather than `hash % fanout` directly, so a key's placement is a
/// function of its *group* at every parallelism: keys sharing a group
/// always co-locate, and this static map agrees exactly with a
/// [`crate::rescale::ShardTable`] running at `active == fanout`.
pub(crate) fn fields_task(tuple: &Tuple, fields: &[usize], fanout: usize) -> usize {
    crate::rescale::task_of_group(crate::rescale::group_of_hash(fields_hash(tuple, fields)), fanout)
}

const ROOT_SHIFT: u32 = 48;

/// Ack-tree root: the emitting spout task's global id above
/// `ROOT_SHIFT`, its local counter below.
pub(crate) fn encode_root(spout_id: u32, local: u64) -> u64 {
    ((spout_id as u64 + 1) << ROOT_SHIFT) | (local & ((1 << ROOT_SHIFT) - 1))
}

pub(crate) fn decode_root(root: u64) -> (u32, u64) {
    (((root >> ROOT_SHIFT) - 1) as u32, root & ((1 << ROOT_SHIFT) - 1))
}

/// One bolt task as materialized before spawn: the live instance plus
/// the factory that rebuilds it on supervised restart (present only
/// for bolts declared via factories/builders).
pub(crate) struct BoltTask {
    pub(crate) bolt: Box<dyn Bolt>,
    pub(crate) factory: Option<BoltBuilder>,
}

/// One spout task's acker and its ack-progress sequence.
#[derive(Default)]
pub(crate) struct SpoutAcks {
    pub(crate) acker: Mutex<Acker>,
    /// Bumped after acks/fails for this spout's roots are applied, so
    /// the spout about to go dormant can tell that progress landed
    /// since it last settled.
    pub(crate) seq: AtomicU64,
}

/// What the whole run owns, shared by every task through its
/// [`task::TaskCtx`]. Built once.
pub(crate) struct Run {
    pub(crate) config: ExecutorConfig,
    pub(crate) metrics: Metrics,
    pub(crate) sink: Sink,
    /// One acker per spout task, indexed by global task id (`None` for
    /// a bolt task): the spout id in every root names the acker it
    /// settles in.
    ackers: Vec<Option<SpoutAcks>>,
    pub(crate) unclean: AtomicBool,
    /// Escalation: the first task to exhaust its restart budget records
    /// why in `failure` and flips `abort`; spouts then stop (like
    /// `kill`) and the run drains before the error surfaces.
    pub(crate) abort: AtomicBool,
    pub(crate) failure: Mutex<Option<String>>,
    /// Run epoch: the clock restart windows are counted on.
    pub(crate) start: Instant,
}

impl Run {
    /// `spout_tasks[id]` says whether global task `id` is a spout task.
    pub(crate) fn new(config: ExecutorConfig, metrics: Metrics, spout_tasks: &[bool]) -> Self {
        Self {
            config,
            metrics,
            sink: Mutex::new(HashMap::new()),
            ackers: spout_tasks.iter().map(|&spout| spout.then(SpoutAcks::default)).collect(),
            unclean: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            start: Instant::now(),
        }
    }

    /// The acker of spout task `spout` (a global task id).
    pub(crate) fn acks(&self, spout: u32) -> &SpoutAcks {
        self.ackers[spout as usize].as_ref().expect("roots are minted by spout tasks")
    }

    /// Whether the plan's crash switch ([`FaultPlan::kill_switch`])
    /// fired.
    pub(crate) fn killed(&self) -> bool {
        self.config.faults.kill.as_ref().is_some_and(|k| k.load(Ordering::Relaxed))
    }
}

/// Everything the runtime needs, prepared once: validated component
/// declarations (instances extracted), task ids, the topological order
/// the shutdown protocol walks, and the shared run state.
pub(crate) struct RunCore {
    pub(crate) run: Arc<Run>,
    /// Component declarations with their instances moved out into
    /// `built` / `spouts` (metadata — name, parallelism, inputs,
    /// restart, kind discriminant — remains).
    pub(crate) decls: Vec<ComponentDecl>,
    pub(crate) built: HashMap<String, Vec<BoltTask>>,
    pub(crate) spouts: HashMap<String, Vec<Box<dyn Spout>>>,
    pub(crate) task_ids: HashMap<String, Vec<u32>>,
    pub(crate) upstream_ids: HashMap<String, Vec<u32>>,
    pub(crate) order: Vec<String>,
}

impl RunCore {
    /// The restart policy governing `decl` (component override or the
    /// run default).
    pub(crate) fn restart_for(&self, decl: &ComponentDecl) -> RestartPolicy {
        decl.restart.clone().unwrap_or_else(|| self.run.config.restart.clone())
    }

    /// Surface an escalated failure, or hand back the terminal sink.
    pub(crate) fn conclude(self) -> Result<RunResult> {
        let run = &self.run;
        if let Some(why) = run.failure.lock().expect("failure slot lock poisoned").take() {
            return Err(SaError::Platform(why));
        }
        // Pre-resolved slots exist for every terminal/late/dlq key the
        // run *could* have used; only keys that saw tuples surface.
        let outputs = std::mem::take(&mut *run.sink.lock().expect("sink lock poisoned"))
            .into_iter()
            .map(|(k, slot)| (k, std::mem::take(&mut *slot.lock().unwrap())))
            .filter(|(_, v)| !v.is_empty())
            .collect();
        Ok(RunResult {
            outputs,
            metrics: run.metrics.clone(),
            clean_shutdown: !run.unclean.load(Ordering::Relaxed),
        })
    }
}

/// Run a topology to completion: spouts drain, trees settle (or the
/// shutdown timeout fires), bolts flush in topological order.
///
/// Validation runs first — wiring mistakes surface as
/// [`SaError::Topology`] before any thread spawns.
pub fn run_topology(builder: TopologyBuilder, config: ExecutorConfig) -> Result<RunResult> {
    run_topology_with(builder, config, Metrics::new())
}

/// [`run_topology`] against a caller-supplied [`Metrics`] registry, so
/// the run's counters land next to metrics registered *outside* the
/// topology (e.g. a [`crate::ServingView`]'s `query_us`/`epoch`
/// instruments share the snapshot with the executor's throughput
/// accounting — the compiled-query path in [`crate::query`] relies on
/// this).
pub fn run_topology_with(
    builder: TopologyBuilder,
    config: ExecutorConfig,
    metrics: Metrics,
) -> Result<RunResult> {
    builder.validate()?;
    let order = topo_order(&builder)?;

    // --- Event-time source ids: every task (spout or bolt) gets a
    //     global id so watermark markers identify their sender, and
    //     each bolt pre-seeds its merger with every upstream task id
    //     (an input it has never heard from must block the merge). ---
    let mut task_ids: HashMap<String, Vec<u32>> = HashMap::new();
    let mut spout_tasks: Vec<bool> = Vec::new();
    for c in &builder.components {
        let ids = (0..c.parallelism)
            .map(|_| {
                spout_tasks.push(!c.is_bolt());
                spout_tasks.len() as u32 - 1
            })
            .collect();
        task_ids.insert(c.name.clone(), ids);
    }
    let mut upstream_ids: HashMap<String, Vec<u32>> = HashMap::new();
    for c in &builder.components {
        let mut ids: Vec<u32> =
            c.inputs.iter().flat_map(|(up, _)| task_ids[up].iter().copied()).collect();
        ids.sort_unstable();
        ids.dedup(); // double-subscribed upstreams must not double-block
        upstream_ids.insert(c.name.clone(), ids);
    }

    let mut decls: Vec<ComponentDecl> = builder.components;

    // --- Materialize bolt tasks (and extract spout instances) before
    //     spawning anything: a factory whose initial build fails aborts
    //     the run cleanly. ---
    let mut built: HashMap<String, Vec<BoltTask>> = HashMap::new();
    let mut spouts: HashMap<String, Vec<Box<dyn Spout>>> = HashMap::new();
    for decl in decls.iter_mut() {
        match decl.kind {
            ComponentKind::Spout(ref mut instances) => {
                spouts.insert(decl.name.clone(), std::mem::take(instances));
            }
            ComponentKind::Bolt(ref mut sources) => {
                let mut tasks = Vec::with_capacity(sources.len());
                for (i, src) in std::mem::take(sources).into_iter().enumerate() {
                    match src {
                        BoltSource::Instance(bolt) => tasks.push(BoltTask { bolt, factory: None }),
                        BoltSource::Factory(mut build) => {
                            let bolt = build().map_err(|e| {
                                SaError::Platform(format!(
                                    "bolt '{}' task {i} factory failed at startup: {e}",
                                    decl.name
                                ))
                            })?;
                            tasks.push(BoltTask { bolt, factory: Some(build) });
                        }
                    }
                }
                built.insert(decl.name.clone(), tasks);
            }
        }
    }

    let core = RunCore {
        run: Arc::new(Run::new(config, metrics, &spout_tasks)),
        decls,
        built,
        spouts,
        task_ids,
        upstream_ids,
        order,
    };
    runtime::run(core)
}

fn topo_order(builder: &TopologyBuilder) -> Result<Vec<String>> {
    let mut indeg: HashMap<&str, usize> = HashMap::new();
    let mut down: HashMap<&str, Vec<&str>> = HashMap::new();
    for c in &builder.components {
        indeg.entry(c.name.as_str()).or_insert(0);
        for (up, _) in &c.inputs {
            *indeg.entry(c.name.as_str()).or_insert(0) += 1;
            down.entry(up.as_str()).or_default().push(c.name.as_str());
        }
    }
    let mut queue: Vec<&str> = indeg.iter().filter(|(_, &d)| d == 0).map(|(&n, _)| n).collect();
    queue.sort(); // determinism
    let mut order = Vec::new();
    while let Some(n) = queue.pop() {
        order.push(n.to_string());
        for &d in down.get(n).into_iter().flatten() {
            let e = indeg.get_mut(d).unwrap();
            *e -= 1;
            if *e == 0 {
                queue.push(d);
            }
        }
    }
    if order.len() != builder.components.len() {
        return Err(TopologyError::Cycle.into());
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple_of;

    /// Regression (PR 3): fields grouping must spread sequential and
    /// low-entropy keys. Pre-fix the per-field hashes were raw-XORed —
    /// a duplicated field index cancelled to `h = 0` for every tuple,
    /// piling 100% of the stream onto task 0.
    #[test]
    fn fields_grouping_spreads_sequential_and_low_entropy_keys() {
        let fanout = 4;
        let n = 4000usize;
        let fair = n / fanout;
        for (label, fields) in [("single field", vec![0usize]), ("duplicated index", vec![0, 0])] {
            let mut counts = vec![0usize; fanout];
            for i in 0..n {
                counts[fields_task(&tuple_of([i as i64]), &fields, fanout)] += 1;
            }
            for &c in &counts {
                assert!(
                    c >= fair / 2 && c <= fair * 2,
                    "{label}: sequential integer keys skewed: {counts:?}"
                );
            }
        }
    }

    /// Missing-field tuples share one well-defined "null key" task —
    /// constant routing is required for grouping correctness, but the
    /// choice must be stable.
    #[test]
    fn fields_grouping_missing_fields_route_consistently() {
        let fanout = 4;
        let first = fields_task(&tuple_of([1i64]), &[7], fanout);
        for i in 2..100i64 {
            assert_eq!(fields_task(&tuple_of([i]), &[7], fanout), first);
        }
    }
}
