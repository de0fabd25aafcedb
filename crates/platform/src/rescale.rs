//! Live rescaling: key-group sharding, state migration, autoscaling.
//!
//! Heron and Samza scale a stateful operator by partitioning its
//! keyspace into a **fixed ring of key-groups** and assigning each task
//! a contiguous range of groups — never individual keys. State is
//! checkpointed *per key-group*, so changing the parallelism is a remap
//! of whole groups: the new owner restores each migrated group from the
//! shared [`crate::CheckpointStore`], and a scale-down merges groups with the
//! synopsis's own [`sa_core::Merge`] — state is never split. This
//! module brings that design to the topology runtime (DESIGN.md §12):
//!
//! * [`key_group`] / [`task_of_group`] — the ring. `Fields` routing
//!   everywhere goes *through* the ring (`hash → group → task`), so a
//!   key's group is parallelism-independent and co-grouped keys always
//!   travel together.
//! * [`ShardTable`] — one component's live group→task assignment:
//!   lock-free reads on the routing hot path, epoch-versioned installs.
//! * [`RescaleController`] — the migration protocol. `resize` quiesces
//!   the component (every task drops uncommitted state, abandons its
//!   held acks for replay, and acknowledges the quiesce generation),
//!   installs the new assignment, and resumes: replayed tuples route to
//!   the new owners, which restore the migrated groups from the store.
//!   Exactly-once is preserved because uncommitted effects are replayed
//!   and committed effects are deduplicated per group key.
//! * [`Shard`] — one task's seat at the table. Sharding is a property
//!   of the one operator shell, not a wrapper around it:
//!   [`crate::operator::Checkpointed::sharded`] keeps one checkpointed
//!   slot per owned group under the task-agnostic `"{base}@g{group}"`.
//! * [`Autoscaler`] — a policy loop over [`crate::MetricsSnapshot`]
//!   signals (input-queue depth, backpressure stall ns, `execute_us`
//!   p99) that widens a component under load and drains it after,
//!   surfaced through `Query::parallelism(Parallelism::Auto { .. })`.
//!
//! Live rescaling requires [`crate::Semantics::AtLeastOnce`]: the
//! quiesce window rejects in-flight tuples and relies on replay to
//! redeliver them to the new owners.

use crate::channel::Sender;
use crate::executor::Msg;
use crate::metrics::{GaugeHandle, Metrics, MetricsSnapshot};
use crate::tuple::Tuple;
use sa_core::{Result, SaError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Size of the key-group ring. Every `Fields`-grouped key hashes to one
/// of these groups for the lifetime of the topology; parallelism only
/// changes how the groups are *assigned*, never which group a key is
/// in. 128 bounds useful parallelism (tasks beyond 128 would own no
/// groups) while keeping per-group checkpoint overhead small.
pub const KEY_GROUPS: usize = 128;

/// The key-group of a combined field hash.
#[inline]
pub fn group_of_hash(h: u64) -> usize {
    (h % KEY_GROUPS as u64) as usize
}

/// The task owning `group` at parallelism `active`: contiguous ranges
/// (`⌊group·active/KEY_GROUPS⌋`), so neighbouring groups co-locate and
/// a rescale moves whole range boundaries, not scattered groups.
#[inline]
pub fn task_of_group(group: usize, active: usize) -> usize {
    debug_assert!(group < KEY_GROUPS);
    (group * active.max(1)) / KEY_GROUPS
}

/// The key-group of a tuple under a fields grouping — the same
/// mix-combined hash the routing layer uses, so a sharded task and the
/// emitter that routed to it always agree on the group.
#[inline]
pub fn key_group(tuple: &Tuple, fields: &[usize]) -> usize {
    group_of_hash(crate::executor::fields_hash(tuple, fields))
}

/// The checkpoint key of `base`'s state for one key-group. Deliberately
/// task-agnostic: any task that comes to own the group restores it from
/// the same key, which is the whole migration mechanism.
pub fn group_key(base: &str, group: usize) -> String {
    format!("{base}@g{group}")
}

#[derive(Debug)]
struct TableInner {
    slots: usize,
    active: AtomicUsize,
    /// Version of the installed assignment; bumped by every install.
    epoch: AtomicU64,
    /// Non-zero while a quiesce is in flight: the generation tasks must
    /// acknowledge. Readers treat any non-zero value as "reject input".
    quiesce: AtomicU64,
    /// Monotonic generation source (never reused, even across aborted
    /// rescales — a task that acked an aborted generation must still
    /// see the next one as new).
    gen: AtomicU64,
    /// Task indices that acknowledged the current quiesce generation.
    /// Table-side on purpose: a panic-rebuilt bolt loses its local
    /// "already acked" memory, and a bolt-side flag would let it ack
    /// twice and release the install barrier early.
    acked: Mutex<HashSet<usize>>,
    /// Lifetime counters (surfaced as metrics when bound).
    rescales: AtomicU64,
    migrations: AtomicU64,
}

/// One component's live group→task assignment. Cheap to clone (shared
/// `Arc`); reads on the routing hot path are two relaxed atomic loads.
#[derive(Clone, Debug)]
pub struct ShardTable {
    inner: Arc<TableInner>,
}

impl ShardTable {
    /// A table over `slots` task slots, initially `active` of them live.
    pub fn new(slots: usize, active: usize) -> Self {
        let slots = slots.max(1);
        let active = active.clamp(1, slots);
        Self {
            inner: Arc::new(TableInner {
                slots,
                active: AtomicUsize::new(active),
                epoch: AtomicU64::new(0),
                quiesce: AtomicU64::new(0),
                gen: AtomicU64::new(0),
                acked: Mutex::new(HashSet::new()),
                rescales: AtomicU64::new(0),
                migrations: AtomicU64::new(0),
            }),
        }
    }

    /// Total task slots (the compiled parallelism ceiling).
    pub fn slots(&self) -> usize {
        self.inner.slots
    }

    /// Currently active tasks.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Version of the installed assignment.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// The in-flight quiesce generation (0 = stable).
    pub fn quiesce_gen(&self) -> u64 {
        self.inner.quiesce.load(Ordering::SeqCst)
    }

    /// The task owning `group` under the current assignment.
    pub fn task_of(&self, group: usize) -> usize {
        task_of_group(group, self.active())
    }

    /// Whether `task` owns `group` under the current assignment.
    pub fn owns(&self, group: usize, task: usize) -> bool {
        self.task_of(group) == task
    }

    /// `task`'s seat at this table, sharding by the key-group of
    /// `fields` (the fields-grouping the component is wired with).
    pub fn shard(&self, task: usize, fields: Vec<usize>) -> Shard {
        Shard { table: self.clone(), task, fields, seen_epoch: self.epoch(), acked_gen: 0 }
    }

    /// Groups moved across all completed rescales.
    pub fn migrated_groups(&self) -> u64 {
        self.inner.migrations.load(Ordering::SeqCst)
    }

    /// Completed rescales.
    pub fn rescales(&self) -> u64 {
        self.inner.rescales.load(Ordering::SeqCst)
    }

    /// Open a new quiesce generation and return it.
    fn begin_quiesce(&self) -> u64 {
        let gen = self.inner.gen.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.acked.lock().unwrap().clear();
        self.inner.quiesce.store(gen, Ordering::SeqCst);
        gen
    }

    /// Record `task`'s acknowledgement of quiesce generation `gen`.
    /// Idempotent per (task, generation) — restarts cannot double-ack.
    pub(crate) fn ack_quiesce(&self, task: usize, gen: u64) {
        if self.quiesce_gen() == gen {
            self.inner.acked.lock().unwrap().insert(task);
        }
    }

    fn acks(&self) -> usize {
        self.inner.acked.lock().unwrap().len()
    }

    /// Publish a new active count under `gen` and lift the quiesce.
    fn install(&self, active: usize, gen: u64) {
        let old = self.active();
        let moved =
            (0..KEY_GROUPS).filter(|&g| task_of_group(g, old) != task_of_group(g, active)).count();
        self.inner.migrations.fetch_add(moved as u64, Ordering::SeqCst);
        self.inner.rescales.fetch_add(1, Ordering::SeqCst);
        self.inner.active.store(active, Ordering::SeqCst);
        self.inner.epoch.store(gen, Ordering::SeqCst);
        self.inner.quiesce.store(0, Ordering::SeqCst);
        self.inner.acked.lock().unwrap().clear();
    }

    /// Abandon an in-flight quiesce without installing (timeout path).
    /// Tasks that already dropped their state are in the same state as
    /// after a crash: replay re-drives the uncommitted part, and the
    /// unchanged assignment is published as a new epoch so they restore
    /// the committed part.
    fn abort_quiesce(&self) {
        self.inner.epoch.store(self.quiesce_gen(), Ordering::SeqCst);
        self.inner.quiesce.store(0, Ordering::SeqCst);
        self.inner.acked.lock().unwrap().clear();
    }
}

#[derive(Default)]
struct ControllerInner {
    tables: Mutex<HashMap<String, ShardTable>>,
    senders: Mutex<HashMap<String, Vec<Sender<Msg>>>>,
    gauges: Mutex<HashMap<String, GaugeHandle>>,
    /// Serializes `resize` calls: one migration at a time, per
    /// controller, keeps the quiesce barrier unambiguous.
    resize_lock: Mutex<()>,
}

/// The migration protocol driver. Clone-cheap handle; create it before
/// building the topology, register per-component [`ShardTable`]s with
/// [`RescaleController::table`], hand the clone to
/// [`crate::ExecutorConfig::rescale`], and call
/// [`RescaleController::resize`] (directly or via an [`Autoscaler`])
/// while the topology runs.
#[derive(Clone, Default)]
pub struct RescaleController {
    inner: Arc<ControllerInner>,
}

/// How long [`RescaleController::resize`] waits for every task to
/// acknowledge the quiesce before aborting it.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(5);

impl std::fmt::Debug for RescaleController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RescaleController")
            .field("components", &self.inner.tables.lock().unwrap().keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl RescaleController {
    /// A controller with no components registered yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) the shard table for `component`, compiled
    /// with `slots` task slots and `active` initially live.
    pub fn table(&self, component: &str, slots: usize, active: usize) -> ShardTable {
        self.inner
            .tables
            .lock()
            .unwrap()
            .entry(component.to_string())
            .or_insert_with(|| ShardTable::new(slots, active))
            .clone()
    }

    /// The shard table registered for `component`, if any.
    pub fn table_of(&self, component: &str) -> Option<ShardTable> {
        self.inner.tables.lock().unwrap().get(component).cloned()
    }

    /// Current active parallelism of `component`.
    pub fn active(&self, component: &str) -> Option<usize> {
        self.table_of(component).map(|t| t.active())
    }

    /// Executor hook: remember every task's input sender so `resize`
    /// can kick parked tasks into observing the quiesce.
    pub(crate) fn register_senders(&self, component: &str, senders: Vec<Sender<Msg>>) {
        self.inner.senders.lock().unwrap().insert(component.to_string(), senders);
    }

    /// Executor hook: surface each sharded component's live parallelism
    /// as a `rescale.{component}.active` gauge.
    pub(crate) fn bind(&self, metrics: &Metrics) {
        let tables = self.inner.tables.lock().unwrap();
        let mut gauges = self.inner.gauges.lock().unwrap();
        for (name, table) in tables.iter() {
            let g = metrics.register_gauge(&format!("rescale.{name}.active"));
            g.set(table.active() as u64);
            gauges.insert(name.clone(), g);
        }
    }

    /// Rescale `component` to `active` tasks (clamped to `1..=slots`).
    ///
    /// Protocol: open a quiesce generation; kick every task
    /// (`Msg::Rescale` rides the normal input channels, so parked
    /// tasks wake); each task drops its uncommitted group state,
    /// abandons its held acks (failing them for replay), and
    /// acknowledges; once every live task has acknowledged, the new
    /// assignment is installed and replay re-drives the rejected
    /// in-flight tuples to their new owners, which restore migrated
    /// groups from the checkpoint store. If acknowledgements do not
    /// arrive within 5 s (component not running, or shutting down), the
    /// quiesce is aborted and an error returned.
    ///
    /// Returns the new active count (which may equal the old one).
    pub fn resize(&self, component: &str, active: usize) -> Result<usize> {
        let _serial = self.inner.resize_lock.lock().unwrap();
        let table = self.table_of(component).ok_or_else(|| {
            SaError::Platform(format!("rescale: no shard table registered for '{component}'"))
        })?;
        let active = active.clamp(1, table.slots());
        if active == table.active() {
            return Ok(active);
        }
        let gen = table.begin_quiesce();
        let senders: Vec<Sender<Msg>> =
            self.inner.senders.lock().unwrap().get(component).cloned().unwrap_or_default();
        let mut expected = 0usize;
        for s in &senders {
            if s.send(Msg::Rescale).is_ok() {
                expected += 1;
            }
        }
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        while table.acks() < expected {
            if Instant::now() > deadline {
                table.abort_quiesce();
                return Err(SaError::Platform(format!(
                    "rescale '{component}': quiesce timed out with {}/{} acks",
                    table.acks(),
                    expected
                )));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        table.install(active, gen);
        if let Some(g) = self.inner.gauges.lock().unwrap().get(component) {
            g.set(active as u64);
        }
        Ok(active)
    }
}

/// One task's seat in a sharded component: the [`ShardTable`] that
/// governs it, the task's index, the fields whose hash picks a tuple's
/// key-group, and the quiesce generation and epoch the task last
/// reacted to. Built by [`ShardTable::shard`] and handed to
/// [`crate::operator::Checkpointed::sharded`], which keeps one
/// checkpointed slot per owned group under [`group_key`] and speaks
/// the migration protocol against the table at the top of every
/// callback.
#[derive(Debug)]
pub struct Shard {
    pub(crate) table: ShardTable,
    pub(crate) task: usize,
    pub(crate) fields: Vec<usize>,
    pub(crate) seen_epoch: u64,
    pub(crate) acked_gen: u64,
}

impl Shard {
    /// Whether this task owns `group` under the current assignment.
    pub(crate) fn owns(&self, group: usize) -> bool {
        self.table.owns(group, self.task)
    }
}

/// Scaling policy for an [`Autoscaler`]: bounds, the signals that
/// trigger widening, and the patience required before draining.
#[derive(Clone, Debug)]
pub struct AutoPolicy {
    /// Parallelism floor.
    pub min: usize,
    /// Parallelism ceiling (the compiled slot count).
    pub max: usize,
    /// Sampling cadence of [`Autoscaler::run_until`].
    pub interval: Duration,
    /// Scale up when the component's input-queue depth (batches)
    /// reaches this.
    pub up_depth: u64,
    /// Scale up when backpressure stalls accumulate more than this many
    /// blocked nanoseconds between two ticks.
    pub up_stall_ns: u64,
    /// A tick is "calm" when depth is at or below this.
    pub down_depth: u64,
    /// Consecutive calm ticks before scaling down one step.
    pub calm_ticks: u32,
    /// Minimum ticks between any two scaling actions.
    pub cooldown_ticks: u32,
}

impl Default for AutoPolicy {
    fn default() -> Self {
        Self {
            min: 1,
            max: 4,
            interval: Duration::from_millis(50),
            up_depth: 64,
            up_stall_ns: 50_000_000,
            down_depth: 8,
            calm_ticks: 6,
            cooldown_ticks: 4,
        }
    }
}

/// One autoscaler observation (kept for offline analysis).
#[derive(Clone, Copy, Debug)]
pub struct AutoTick {
    /// Active tasks after this tick's decision.
    pub active: usize,
    /// Input-queue depth (batches) at the tick.
    pub depth: u64,
    /// `execute_us` p99 at the tick (0 when unsampled).
    pub p99_us: u64,
}

/// Signal-driven scaling loop for one sharded component. Drive it from
/// its own thread with [`Autoscaler::run_until`], or call
/// [`Autoscaler::tick`] from an existing sampling loop.
pub struct Autoscaler {
    ctl: RescaleController,
    component: String,
    metrics: Metrics,
    policy: AutoPolicy,
    ticks_since_action: u32,
    calm: u32,
    last_stall_ns: u64,
    /// Every observation, in tick order.
    pub ticks: Vec<AutoTick>,
    /// Widest parallelism reached.
    pub peak: usize,
    /// Completed scale-up actions.
    pub scale_ups: u32,
    /// Completed scale-down actions.
    pub scale_downs: u32,
}

impl Autoscaler {
    /// An autoscaler for `component`, reading `metrics` and resizing
    /// through `ctl`.
    pub fn new(
        ctl: RescaleController,
        component: &str,
        metrics: Metrics,
        policy: AutoPolicy,
    ) -> Self {
        let peak = ctl.active(component).unwrap_or(policy.min);
        Self {
            ctl,
            component: component.to_string(),
            metrics,
            policy,
            ticks_since_action: u32::MAX,
            calm: 0,
            last_stall_ns: 0,
            ticks: Vec::new(),
            peak,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Sample once and maybe act. Returns the new active count when a
    /// rescale happened.
    pub fn tick(&mut self) -> Option<usize> {
        let snap: MetricsSnapshot = self.metrics.snapshot();
        let link = snap.link(&format!("{}.input", self.component));
        let depth = link.as_ref().map_or(0, |l| l.depth);
        let stall_ns = link.as_ref().map_or(0, |l| l.stall_ns);
        let stall_delta = stall_ns.saturating_sub(self.last_stall_ns);
        self.last_stall_ns = stall_ns;
        let p99_us =
            snap.histogram(&format!("{}.execute_us", self.component)).map_or(0, |h| h.p99 as u64);
        let active = self.ctl.active(&self.component).unwrap_or(self.policy.min);
        self.ticks_since_action = self.ticks_since_action.saturating_add(1);

        let mut resized = None;
        let pressured = depth >= self.policy.up_depth || stall_delta >= self.policy.up_stall_ns;
        if pressured {
            self.calm = 0;
            if active < self.policy.max && self.ticks_since_action > self.policy.cooldown_ticks {
                if let Ok(n) = self.ctl.resize(&self.component, active + 1) {
                    if n != active {
                        self.scale_ups += 1;
                        self.ticks_since_action = 0;
                        resized = Some(n);
                    }
                }
            }
        } else if depth <= self.policy.down_depth {
            self.calm += 1;
            if active > self.policy.min
                && self.calm >= self.policy.calm_ticks
                && self.ticks_since_action > self.policy.cooldown_ticks
            {
                if let Ok(n) = self.ctl.resize(&self.component, active - 1) {
                    if n != active {
                        self.scale_downs += 1;
                        self.ticks_since_action = 0;
                        self.calm = 0;
                        resized = Some(n);
                    }
                }
            }
        } else {
            self.calm = 0;
        }
        let active = resized.unwrap_or(active);
        self.peak = self.peak.max(active);
        self.ticks.push(AutoTick { active, depth, p99_us });
        resized
    }

    /// Tick at the policy interval until `stop` flips true.
    pub fn run_until(&mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            self.tick();
            std::thread::sleep(self.policy.interval);
        }
    }

    /// Current active parallelism of the governed component.
    pub fn active(&self) -> usize {
        self.ctl.active(&self.component).unwrap_or(self.policy.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::operator::{OperatorConfig, SynopsisBolt};
    use crate::topology::{Bolt, OutputCollector};
    use crate::tuple::{tuple_of, Value};
    use sa_sketches::heavy_hitters::SpaceSaving;

    #[test]
    fn ring_is_contiguous_and_covers_all_tasks() {
        for active in 1..=KEY_GROUPS {
            let mut seen = vec![false; active];
            let mut last = 0;
            for g in 0..KEY_GROUPS {
                let t = task_of_group(g, active);
                assert!(t < active, "group {g} → task {t} out of range at active={active}");
                assert!(t >= last, "assignment not contiguous at group {g}");
                last = t;
                seen[t] = true;
            }
            assert!(seen.iter().all(|&s| s), "some task owns no group at active={active}");
        }
    }

    #[test]
    fn groups_never_split_across_parallelism_changes() {
        // Keys sharing a group must share a task at EVERY parallelism.
        for g in 0..KEY_GROUPS {
            for p in 1..=16 {
                let t = task_of_group(g, p);
                assert_eq!(t, task_of_group(g, p), "deterministic");
                assert!(t < p);
            }
        }
    }

    #[test]
    fn shard_table_quiesce_barrier_dedups_acks() {
        let table = ShardTable::new(4, 2);
        let gen = table.begin_quiesce();
        assert_eq!(table.quiesce_gen(), gen);
        table.ack_quiesce(0, gen);
        table.ack_quiesce(0, gen); // restart double-ack: idempotent
        assert_eq!(table.acks(), 1);
        table.ack_quiesce(1, gen);
        assert_eq!(table.acks(), 2);
        table.install(4, gen);
        assert_eq!(table.active(), 4);
        assert_eq!(table.epoch(), gen);
        assert_eq!(table.quiesce_gen(), 0);
        assert!(table.migrated_groups() > 0);
    }

    #[test]
    fn aborted_generation_is_never_reused() {
        let table = ShardTable::new(4, 2);
        let g1 = table.begin_quiesce();
        table.ack_quiesce(0, g1);
        table.abort_quiesce();
        let g2 = table.begin_quiesce();
        assert!(g2 > g1, "a task that acked the aborted gen must see the new one as fresh");
        assert_eq!(table.acks(), 0);
    }

    #[test]
    fn resize_without_running_topology_installs_directly() {
        let ctl = RescaleController::new();
        let table = ctl.table("agg", 4, 1);
        assert_eq!(ctl.resize("agg", 3).unwrap(), 3);
        assert_eq!(table.active(), 3);
        assert_eq!(ctl.resize("agg", 99).unwrap(), 4, "clamped to slots");
        assert!(ctl.resize("ghost", 2).is_err());
    }

    /// A controller built by `default()` waits for a task that
    /// acknowledges the quiesce late instead of aborting at once.
    #[test]
    fn default_controller_waits_for_a_late_quiesce_ack() {
        let ctl = RescaleController::default();
        let table = ctl.table("agg", 4, 1);
        let (tx, rx) = crate::channel::channel(None);
        ctl.register_senders("agg", vec![tx]);
        let task = {
            let table = table.clone();
            std::thread::spawn(move || {
                assert!(matches!(rx.recv(), Ok(Msg::Rescale)), "the task is kicked");
                std::thread::sleep(Duration::from_millis(20));
                table.ack_quiesce(0, table.quiesce_gen());
            })
        };
        assert_eq!(ctl.resize("agg", 2).unwrap(), 2);
        task.join().unwrap();
        assert_eq!(table.active(), 2);
    }

    type Counter = SynopsisBolt<SpaceSaving<String>, fn(&Tuple, &mut SpaceSaving<String>)>;

    fn count_word(t: &Tuple, s: &mut SpaceSaving<String>) {
        if let Some(w) = t.get(0).and_then(Value::as_str) {
            s.insert(w.to_string());
        }
    }

    fn counting_group_bolt(table: &ShardTable, task: usize, store: &CheckpointStore) -> Counter {
        let cfg = OperatorConfig { checkpoint_every: 2, ..OperatorConfig::default() };
        let count = count_word as fn(&Tuple, &mut SpaceSaving<String>);
        SynopsisBolt::with_config("kg", store, SpaceSaving::<String>::new(64).unwrap(), count, cfg)
            .and_then(|bolt| bolt.sharded(table.shard(task, vec![0])))
            .unwrap()
    }

    fn lineage(tuple: Tuple, root: u64, id: u64) -> Tuple {
        let mut t = tuple;
        t.root = root;
        t.id = id;
        t.lineage = id;
        t
    }

    #[test]
    fn key_group_bolt_routes_fails_unowned_and_flushes_migrated_state() {
        let store = CheckpointStore::new();
        let table = ShardTable::new(2, 1);
        let mut t0 = counting_group_bolt(&table, 0, &store);

        // Feed keys until task 0 has applied a few groups.
        let mut id = 1u64;
        for i in 0..40u64 {
            let t = lineage(tuple_of([format!("k{i}")]), id, id);
            let mut out = OutputCollector::new();
            t0.execute(&t, &mut out);
            assert!(!out.failed, "task 0 owns everything at active=1");
            id += 1;
        }
        assert!(t0.states().len() > 1, "keys spread across groups");
        // Commit the tail so every group is durable.
        let mut out = OutputCollector::new();
        t0.on_idle(&mut out);
        assert!(out.release, "idle commit releases the ledger");

        // Rescale 1 → 2 through the quiesce protocol.
        let gen = table.begin_quiesce();
        let mut out = OutputCollector::new();
        t0.on_idle(&mut out); // observes the quiesce, acks
        assert_eq!(table.acks(), 1);
        table.install(2, gen);
        assert_eq!(t0.states().len(), 0, "quiesce dropped in-memory groups");

        // Task 0 now rejects tuples owned by task 1.
        let mut t1 = counting_group_bolt(&table, 1, &store);
        let mut seen_reroute = false;
        for i in 0..40u64 {
            let t = lineage(tuple_of([format!("k{i}")]), id, id);
            let g = key_group(&t, &[0]);
            let mut out = OutputCollector::new();
            if table.owns(g, 0) {
                t0.execute(&t, &mut out);
                assert!(!out.failed);
            } else {
                let mut wrong = OutputCollector::new();
                t0.execute(&t, &mut wrong);
                assert!(wrong.failed, "unowned group must be failed for re-routing");
                seen_reroute = true;
                t1.execute(&t, &mut out);
                assert!(!out.failed);
            }
            id += 1;
        }
        assert!(seen_reroute);

        // Flush both: every group's counts surface exactly once, and
        // migrated-but-untouched groups are restored from the store.
        let mut f0 = OutputCollector::new();
        t0.flush(&mut f0);
        let mut f1 = OutputCollector::new();
        t1.flush(&mut f1);
        let mut merged = SpaceSaving::<String>::new(64).unwrap();
        let mut parts = 0;
        for t in f0.emitted.iter().chain(f1.emitted.iter()) {
            if let Some(bytes) = t.get(1).and_then(Value::as_bytes) {
                let mut part = SpaceSaving::<String>::new(64).unwrap();
                use sa_core::{Merge, Synopsis};
                part.restore(bytes).unwrap();
                merged.merge(&part).unwrap();
                parts += 1;
            }
        }
        assert!(parts > 0);
        for i in 0..40u64 {
            assert_eq!(merged.estimate(&format!("k{i}")), 2, "k{i} applied once per round");
        }
    }

    /// Two keys living in different key-groups.
    fn keys_in_two_groups() -> (String, String) {
        let group = |k: &String| key_group(&tuple_of([k.clone()]), &[0]);
        let a = "k0".to_string();
        let b = (1..).map(|i| format!("k{i}")).find(|k| group(k) != group(&a)).unwrap();
        (a, b)
    }

    /// The flattened shell's ack rule: cadence is per slot, but the
    /// task's held acks are released only once *no* slot is dirty.
    #[test]
    fn held_acks_release_only_when_every_slot_is_durable() {
        let store = CheckpointStore::new();
        let table = ShardTable::new(1, 1);
        let mut bolt = counting_group_bolt(&table, 0, &store); // cadence: 2 per slot
        let (a, b) = keys_in_two_groups();
        let mut flags = Vec::new();
        for (id, key) in [&a, &b, &a, &b].into_iter().enumerate() {
            let mut out = OutputCollector::new();
            bolt.execute(&lineage(tuple_of([key.clone()]), id as u64 + 1, id as u64 + 1), &mut out);
            flags.push((out.hold, out.release));
        }
        // a, b: below cadence. Second a: its slot commits, b's is still
        // dirty → hold. Second b: the last dirty slot commits → release.
        assert_eq!(flags, [(true, false), (true, false), (true, false), (false, true)]);
    }

    /// A commit writes only the slots that have pending ids: touching
    /// two key-groups bumps the store version of exactly those two
    /// `"{base}@g{g}"` keys.
    #[test]
    fn a_commit_touches_only_the_dirty_groups_keys() {
        let store = CheckpointStore::new();
        let table = ShardTable::new(1, 1);
        let mut bolt = counting_group_bolt(&table, 0, &store);
        let mut id = 0u64;
        let mut feed = |bolt: &mut Counter, key: &str| {
            id += 1;
            bolt.execute(
                &lineage(tuple_of([key.to_string()]), id, id),
                &mut OutputCollector::new(),
            );
        };
        for i in 0..40 {
            feed(&mut bolt, &format!("k{i}"));
        }
        bolt.on_idle(&mut OutputCollector::new());
        let versions = |store: &CheckpointStore| -> Vec<Option<u64>> {
            (0..KEY_GROUPS).map(|g| store.get(&group_key("kg", g)).map(|(v, _)| v)).collect()
        };
        let before = versions(&store);
        let (a, b) = keys_in_two_groups();
        feed(&mut bolt, &a);
        feed(&mut bolt, &b);
        bolt.on_idle(&mut OutputCollector::new());
        let after = versions(&store);
        let bumped: Vec<usize> = (0..KEY_GROUPS).filter(|&g| before[g] != after[g]).collect();
        let mut touched = vec![key_group(&tuple_of([a]), &[0]), key_group(&tuple_of([b]), &[0])];
        touched.sort_unstable();
        assert_eq!(bumped, touched);
    }

    /// Regression: a window group migrated by a rescale must fire on
    /// its new owner even if no tuple reaches it there — the new owner
    /// restores every owned group when it adopts the epoch, not lazily
    /// on the group's first tuple.
    #[test]
    fn migrated_idle_window_group_fires_on_its_new_owner() {
        use crate::window::{WindowBolt, WindowConfig, WindowSpec};
        let store = CheckpointStore::new();
        let table = ShardTable::new(2, 1);
        let task = |task: usize| {
            let cfg = WindowConfig::new(WindowSpec::Tumbling { size: 10 }, vec![0]);
            let count = count_word as fn(&Tuple, &mut SpaceSaving<String>);
            WindowBolt::new("kw", &store, SpaceSaving::<String>::new(8).unwrap(), cfg, count)
                .and_then(|bolt| bolt.sharded(table.shard(task, vec![0])))
                .unwrap()
        };
        let (mut t0, mut t1) = (task(0), task(1));
        // A key whose group moves to task 1 at parallelism 2.
        let group = |k: &String| key_group(&tuple_of([k.clone()]), &[0]);
        let key = (0..).map(|i| format!("k{i}")).find(|k| task_of_group(group(k), 2) == 1).unwrap();
        for id in 1..=3u64 {
            let t = lineage(tuple_of([key.clone()]).at(5), id, id);
            t0.execute(&t, &mut OutputCollector::new());
        }
        let mut out = OutputCollector::new();
        t0.on_idle(&mut out);
        assert!(out.release, "the window state is durable");

        let gen = table.begin_quiesce();
        t0.on_idle(&mut OutputCollector::new());
        t1.on_idle(&mut OutputCollector::new());
        assert_eq!(table.acks(), 2);
        table.install(2, gen);

        // No post-rescale traffic for the key: task 1 only goes idle
        // (adopting the epoch) and sees the watermark pass the window.
        let mut out = OutputCollector::new();
        t1.on_idle(&mut out);
        t1.on_watermark(10, &mut out);
        assert_eq!(out.emitted.len(), 1, "the migrated window fires on its new owner");
        let fired = &out.emitted[0];
        assert_eq!(fired.get(0).unwrap().as_str(), Some(key.as_str()));
        assert_eq!(
            (fired.get(1).unwrap().as_int(), fired.get(2).unwrap().as_int()),
            (Some(0), Some(10))
        );
    }

    #[test]
    fn autoscaler_scales_on_installed_tables_without_senders() {
        // No running topology: resize installs immediately, so the
        // policy loop's decisions are observable synchronously.
        let ctl = RescaleController::new();
        ctl.table("agg", 4, 1);
        let metrics = Metrics::new();
        let policy = AutoPolicy { calm_ticks: 2, cooldown_ticks: 0, ..AutoPolicy::default() };
        let mut auto = Autoscaler::new(ctl.clone(), "agg", metrics.clone(), policy);
        // Depth gauge absent → calm ticks → stays at min.
        for _ in 0..4 {
            auto.tick();
        }
        assert_eq!(auto.active(), 1);
        // Pressure: register a deep link.
        let link = metrics.register_link("agg.input");
        for _ in 0..200 {
            link.on_send();
        }
        auto.tick();
        auto.tick();
        assert!(auto.active() > 1, "depth pressure widens the component");
        let widened = auto.active();
        // Drain: depth back to zero → calm ticks → scale down.
        for _ in 0..200 {
            link.on_recv_n(1);
        }
        for _ in 0..12 {
            auto.tick();
        }
        assert!(auto.active() < widened, "calm ticks drain the component");
        assert!(auto.scale_ups >= 1 && auto.scale_downs >= 1);
        assert!(!auto.ticks.is_empty());
    }
}
