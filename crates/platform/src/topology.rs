//! Topology model: spouts, bolts, groupings — Storm's abstractions,
//! which the rest of Table 2's systems refine. Tuples flow between
//! components as rows, one [`Bolt::execute`] call each.

use crate::supervise::RestartPolicy;
use crate::tuple::Tuple;
use sa_core::TopologyError;

/// Message routing between components (Storm's stream groupings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Grouping {
    /// Spread evenly across the downstream tasks: by the tuple's
    /// lineage (the source message id, stable across replays, so a
    /// replayed message returns to the task whose dedup state knows
    /// it), round-robin for tuples that carry none.
    Shuffle,
    /// Hash of the named field indices: same key → same task (the
    /// grouping that makes stateful aggregation correct).
    Fields(Vec<usize>),
    /// Everything to task 0.
    Global,
    /// Replicate to every task.
    All,
}

/// Which driver maps the runtime's task slots onto OS threads. Both
/// run the same activation code over the same wiring; they differ in
/// who runs an activation and in whether inboxes are bounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// Heron-style: one dedicated OS thread per task, sleeping on its
    /// slot between activations. Inboxes hold
    /// `ExecutorConfig::channel_capacity` batches, so a slow task
    /// blocks its producers (backpressure). Topology width dictates
    /// thread count, and a `parallelism(N)` hint multiplies threads.
    /// The default: it has the lowest end-to-end latency tail
    /// (DESIGN.md §9 records the numbers).
    #[default]
    ThreadPerTask,
    /// A fixed pool of workers sharing one FIFO run queue; the
    /// schedulable unit is "run this operator task on its pending
    /// input". Idle workers park on the queue's condvar. Inboxes are
    /// unbounded (a pool worker must never block in `send`), so with
    /// fewer workers than tasks this is also the Storm-style "tasks
    /// multiplexed over shared workers and unbounded queues" arm of
    /// the paper's Table 2. The name is historical: the pool once gave
    /// each worker a deque and let idle workers steal (DESIGN.md §9).
    WorkStealing {
        /// Worker threads in the pool. `0` = `available_parallelism`.
        workers: usize,
    },
}

impl Scheduling {
    /// The effective pool size: resolves `workers: 0` to the host's
    /// available parallelism; at least 1 for a pool, 0 for
    /// thread-per-task (which has none).
    pub fn worker_count(&self) -> usize {
        match self {
            Scheduling::ThreadPerTask => 0,
            Scheduling::WorkStealing { workers: 0 } => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
            Scheduling::WorkStealing { workers } => *workers,
        }
    }
}

/// A data source. Implementations must be `Send` — each spout task runs
/// on its own thread.
pub trait Spout: Send {
    /// Produce the next tuple, or `None` when (currently) exhausted.
    /// Exhaustion is not terminal: the runtime polls again until the
    /// shutdown condition is met, so replaying spouts can re-emit.
    fn next_tuple(&mut self) -> Option<Tuple>;

    /// The runtime confirms full processing of the tuple rooted here
    /// (at-least-once mode only).
    fn ack(&mut self, _root: u64) {}

    /// The runtime reports a failed/timed-out tuple; reliable spouts
    /// re-emit it. Return `true` iff the tuple was requeued for replay —
    /// the runtime counts a replay only when the spout says one will
    /// happen (an unreliable spout that drops failures returns `false`).
    fn fail(&mut self, _root: u64) -> bool {
        false
    }

    /// Whether every emitted tuple has been fully settled (used for
    /// clean shutdown in at-least-once mode).
    fn pending(&self) -> usize {
        0
    }

    /// The runtime quarantines this message: its replay budget
    /// (`ExecutorConfig::max_replays`) is exhausted, so it must be
    /// *retired* from the spout's pending set — not requeued — and its
    /// body (if reproducible) returned for the `"{spout}.dlq"`
    /// dead-letter output. Implementations that track `pending` MUST
    /// drop the message here or clean shutdown will wait on it forever.
    /// The default (for stateless spouts) retires nothing and sends an
    /// id-only stub to the DLQ.
    fn quarantine(&mut self, _root: u64) -> Option<Tuple> {
        None
    }
}

/// Emission interface handed to bolts.
pub struct OutputCollector {
    /// Tuples emitted during this `execute` call.
    pub(crate) emitted: Vec<Tuple>,
    /// Tuples diverted to the late side output (arrived after their
    /// window's allowed lateness expired). The runtime collects these
    /// under `"{component}.late"` instead of the normal downstream
    /// routes, and bumps the component's dropped-late counter.
    pub(crate) late: Vec<Tuple>,
    /// Whether the input tuple was explicitly failed.
    pub(crate) failed: bool,
    /// Defer the input's ack until a later `release_acks`.
    pub(crate) hold: bool,
    /// Ack every input held by this task since the last release.
    pub(crate) release: bool,
    /// Fail every input held by this task (replay instead of ack).
    pub(crate) abandon: bool,
}

impl OutputCollector {
    pub(crate) fn new() -> Self {
        Self {
            emitted: Vec::new(),
            late: Vec::new(),
            failed: false,
            hold: false,
            release: false,
            abandon: false,
        }
    }

    /// Emit a tuple anchored to the current input (its lineage joins the
    /// ack tree; a replay of the root will re-drive it).
    pub fn emit(&mut self, tuple: Tuple) {
        self.emitted.push(tuple);
    }

    /// Divert a tuple to the late side output: it skips the normal
    /// downstream routes and lands in the run's `"{component}.late"`
    /// sink, counted by the `{component}.dropped_late` metric.
    pub fn emit_late(&mut self, tuple: Tuple) {
        self.late.push(tuple);
    }

    /// Mark the input tuple as failed: the root will be replayed in
    /// at-least-once mode.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Defer the input's ack: the runtime holds it until
    /// [`OutputCollector::release_acks`] (or fails it for replay if the
    /// task restarts from a checkpoint first). Stateful exactly-once
    /// bolts hold each input until its effect is durably committed, so
    /// a mid-run restart replays exactly the uncommitted suffix.
    pub fn hold_ack(&mut self) {
        self.hold = true;
    }

    /// Ack every input this task is holding — call after a durable
    /// commit has covered them (the current input is acked too, not
    /// held, when both flags would apply).
    pub fn release_acks(&mut self) {
        self.release = true;
    }

    /// Fail every input this task is holding, forcing their replay —
    /// the voluntary twin of the restart-from-checkpoint path. A bolt
    /// that discards uncommitted state (e.g. when surrendering its
    /// key-groups during a live rescale, see [`crate::rescale`]) calls
    /// this so the discarded effects are re-driven to whichever task
    /// owns them next; checkpoint dedup absorbs any replays of inputs
    /// that *were* already durable.
    pub fn abandon_held(&mut self) {
        self.abandon = true;
    }
}

/// A processing node. `Send` — each task runs on a worker thread.
/// Links deliver rows, so [`Bolt::execute`] is the only data entry
/// point; the other hooks are control callbacks.
pub trait Bolt: Send {
    /// Process one input tuple, emitting any number of outputs.
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector);

    /// Called when the topology is draining; bolts may emit final
    /// aggregates.
    fn flush(&mut self, _out: &mut OutputCollector) {}

    /// Called when this task's event-time watermark advances (only in
    /// topologies run with `ExecutorConfig::watermarks` set). `wm` is
    /// the new merged watermark: no tuple with `event_time < wm` will
    /// be delivered to `execute` again. Windowed operators fire here.
    fn on_watermark(&mut self, _wm: u64, _out: &mut OutputCollector) {}

    /// Called (best-effort, possibly repeatedly) when the task's input
    /// queue has drained. Bolts that hold acks
    /// ([`OutputCollector::hold_ack`]) use this to commit pending state
    /// and release them, so upstream spouts can settle and shut down
    /// cleanly.
    fn on_idle(&mut self, _out: &mut OutputCollector) {}

    /// Hook for bolt-owned counters: called with the worker's metrics
    /// registry and the component name when the task is spawned, and
    /// again after every supervised rebuild. Same-name registrations
    /// share cells, so parallel tasks aggregate into one counter.
    /// Default: no bolt-owned metrics.
    fn register_metrics(&mut self, _metrics: &crate::metrics::Metrics, _component: &str) {}
}

/// Blanket impl so closures can be used as stateless bolts.
impl<F> Bolt for F
where
    F: FnMut(&Tuple, &mut OutputCollector) + Send,
{
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
        self(input, out)
    }
}

/// Constructor for one bolt task. The executor calls it once at spawn
/// and again on every supervised restart — a checkpointed bolt built
/// here recovers its state from the store each time, which is what
/// makes mid-run restart-from-checkpoint work.
pub type BoltBuilder = Box<dyn FnMut() -> sa_core::Result<Box<dyn Bolt>> + Send>;

/// How one bolt task is obtained (and re-obtained after a panic).
pub(crate) enum BoltSource {
    /// A pre-built instance; supervised restarts resume it in place
    /// (its in-memory state survives, nothing is rebuilt).
    Instance(Box<dyn Bolt>),
    /// A rebuildable task; supervised restarts construct a fresh bolt,
    /// which recovers from its checkpoint.
    Factory(BoltBuilder),
}

/// The normalised form every [`TopologyBuilder::set_bolt`] argument
/// lowers to: one task source per declared parallelism slot. Construct
/// via [`BoltFactory::instances`] / [`BoltFactory::builders`], or hand
/// `set_bolt` a `Vec<Box<dyn Bolt>>` / `Vec<BoltBuilder>` directly —
/// both convert through [`IntoBoltFactory`].
pub struct BoltFactory {
    pub(crate) sources: Vec<BoltSource>,
}

impl BoltFactory {
    /// Tasks from pre-built instances: supervised restarts resume each
    /// task *in place* (in-memory state survives the panic).
    pub fn instances(bolts: Vec<Box<dyn Bolt>>) -> Self {
        Self { sources: bolts.into_iter().map(BoltSource::Instance).collect() }
    }

    /// Tasks from per-task constructors: the executor calls each
    /// builder at spawn AND on every supervised restart, so a
    /// checkpointed bolt ([`crate::operator::SynopsisBolt`],
    /// [`crate::window::WindowBolt`]) rebuilt here recovers through its
    /// checkpoint + replay path mid-run.
    pub fn builders(builders: Vec<BoltBuilder>) -> Self {
        Self { sources: builders.into_iter().map(BoltSource::Factory).collect() }
    }

    /// Number of task slots this factory declares.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when no task slots were supplied (always rejected by
    /// `set_bolt`).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// Conversion accepted by the unified [`TopologyBuilder::set_bolt`]:
/// plain instance vectors, builder vectors, and explicit
/// [`BoltFactory`] values all register through the same entry point.
pub trait IntoBoltFactory {
    /// Lower into the normalised per-task source list.
    fn into_factory(self) -> BoltFactory;
}

impl IntoBoltFactory for BoltFactory {
    fn into_factory(self) -> BoltFactory {
        self
    }
}

impl IntoBoltFactory for Vec<Box<dyn Bolt>> {
    fn into_factory(self) -> BoltFactory {
        BoltFactory::instances(self)
    }
}

impl IntoBoltFactory for Vec<BoltBuilder> {
    fn into_factory(self) -> BoltFactory {
        BoltFactory::builders(self)
    }
}

/// One component (spout or bolt) declaration.
pub(crate) struct ComponentDecl {
    pub name: String,
    pub parallelism: usize,
    pub kind: ComponentKind,
    /// (upstream component name, grouping).
    pub inputs: Vec<(String, Grouping)>,
    /// Per-component override of `ExecutorConfig::restart`.
    pub restart: Option<RestartPolicy>,
    /// Declared output field names, when the component opted in via
    /// `output_fields`. Lets `validate` range-check downstream
    /// fields-groupings at build time.
    pub schema: Option<Vec<String>>,
}

pub(crate) enum ComponentKind {
    Spout(Vec<Box<dyn Spout>>),
    Bolt(Vec<BoltSource>),
}

impl ComponentDecl {
    pub(crate) fn is_bolt(&self) -> bool {
        matches!(self.kind, ComponentKind::Bolt(_))
    }
}

/// Declarative topology builder (Storm's `TopologyBuilder`).
///
/// ```
/// use sa_platform::{TopologyBuilder, Grouping, Tuple};
/// use sa_platform::topology::vec_spout;
/// use sa_platform::tuple::tuple_of;
///
/// let mut tb = TopologyBuilder::new();
/// tb.set_spout("words", vec![vec_spout(vec![tuple_of(["a"]), tuple_of(["b"])])]);
/// tb.set_bolt("noop", vec![Box::new(|t: &Tuple, out: &mut sa_platform::OutputCollector| {
///     out.emit(t.clone());
/// }) as Box<dyn sa_platform::Bolt>])
///   .shuffle("words");
/// ```
#[derive(Default)]
pub struct TopologyBuilder {
    pub(crate) components: Vec<ComponentDecl>,
}

/// Handle returned by [`TopologyBuilder::set_spout`], mirroring
/// [`BoltHandle`] so both declaration forms read fluently. Spouts take
/// no inputs, so the handle only exposes identity.
pub struct SpoutHandle<'a> {
    decl: &'a mut ComponentDecl,
}

impl<'a> SpoutHandle<'a> {
    /// The declared component name.
    pub fn name(&self) -> &str {
        &self.decl.name
    }

    /// The number of task instances declared.
    pub fn parallelism(&self) -> usize {
        self.decl.parallelism
    }

    /// Override the run-wide [`RestartPolicy`]
    /// (`ExecutorConfig::restart`) for this component's tasks.
    pub fn restart(self, policy: RestartPolicy) -> SpoutHandle<'a> {
        self.decl.restart = Some(policy);
        self
    }

    /// Declare the spout's output schema (field names, by position).
    /// Once declared, [`TopologyBuilder::validate`] rejects any
    /// downstream fields-grouping that names an index outside it.
    pub fn output_fields<S: Into<String>>(
        self,
        fields: impl IntoIterator<Item = S>,
    ) -> SpoutHandle<'a> {
        self.decl.schema = Some(fields.into_iter().map(Into::into).collect());
        self
    }
}

/// Handle for wiring a bolt's inputs.
pub struct BoltHandle<'a> {
    decl: &'a mut ComponentDecl,
}

impl<'a> BoltHandle<'a> {
    /// Subscribe with shuffle grouping.
    pub fn shuffle(self, upstream: &str) -> BoltHandle<'a> {
        self.decl.inputs.push((upstream.to_string(), Grouping::Shuffle));
        self
    }

    /// Subscribe with fields (hash) grouping on the given field indices.
    pub fn fields(self, upstream: &str, fields: Vec<usize>) -> BoltHandle<'a> {
        self.decl.inputs.push((upstream.to_string(), Grouping::Fields(fields)));
        self
    }

    /// Subscribe with global grouping.
    pub fn global(self, upstream: &str) -> BoltHandle<'a> {
        self.decl.inputs.push((upstream.to_string(), Grouping::Global));
        self
    }

    /// Subscribe with all (broadcast) grouping.
    pub fn all(self, upstream: &str) -> BoltHandle<'a> {
        self.decl.inputs.push((upstream.to_string(), Grouping::All));
        self
    }

    /// Override the run-wide [`RestartPolicy`]
    /// (`ExecutorConfig::restart`) for this component's tasks.
    pub fn restart(self, policy: RestartPolicy) -> BoltHandle<'a> {
        self.decl.restart = Some(policy);
        self
    }

    /// Declare the bolt's output schema (field names, by position).
    /// Once declared, [`TopologyBuilder::validate`] rejects any
    /// downstream fields-grouping that names an index outside it.
    pub fn output_fields<S: Into<String>>(
        self,
        fields: impl IntoIterator<Item = S>,
    ) -> BoltHandle<'a> {
        self.decl.schema = Some(fields.into_iter().map(Into::into).collect());
        self
    }
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a spout; parallelism = number of instances supplied.
    /// Returns a handle, symmetric with [`TopologyBuilder::set_bolt`].
    pub fn set_spout(&mut self, name: &str, instances: Vec<Box<dyn Spout>>) -> SpoutHandle<'_> {
        assert!(!instances.is_empty(), "need at least one spout instance");
        self.components.push(ComponentDecl {
            name: name.to_string(),
            parallelism: instances.len(),
            kind: ComponentKind::Spout(instances),
            inputs: Vec::new(),
            restart: None,
            schema: None,
        });
        SpoutHandle { decl: self.components.last_mut().unwrap() }
    }

    /// Declare a bolt; parallelism = number of task sources supplied.
    /// Returns a handle to wire its inputs.
    ///
    /// The one registration entry point: accepts anything convertible
    /// via [`IntoBoltFactory`] —
    ///
    /// * `Vec<Box<dyn Bolt>>` — pre-built instances; supervised
    ///   restarts resume each task *in place* (state kept);
    /// * `Vec<BoltBuilder>` — per-task constructors, re-invoked on
    ///   every supervised restart so checkpointed bolts recover through
    ///   their checkpoint + replay path;
    /// * an explicit [`BoltFactory`] (what both of the above lower to).
    pub fn set_bolt(&mut self, name: &str, bolts: impl IntoBoltFactory) -> BoltHandle<'_> {
        let factory = bolts.into_factory();
        assert!(!factory.is_empty(), "need at least one bolt instance");
        self.declare_bolt(name, factory.sources)
    }

    fn declare_bolt(&mut self, name: &str, sources: Vec<BoltSource>) -> BoltHandle<'_> {
        self.components.push(ComponentDecl {
            name: name.to_string(),
            parallelism: sources.len(),
            kind: ComponentKind::Bolt(sources),
            inputs: Vec::new(),
            restart: None,
            schema: None,
        });
        BoltHandle { decl: self.components.last_mut().unwrap() }
    }

    /// Validate the wiring: every input references a declared component,
    /// no self-loops, spouts have no inputs, names are unique, and every
    /// fields-grouping stays inside its upstream's declared schema
    /// (components without an `output_fields` declaration are exempt).
    ///
    /// The schema check matters because a fields-grouping on an absent
    /// index does not fail at runtime — the missing field simply
    /// contributes nothing to the routing hash, silently degenerating
    /// the partitioning (worst case: every key lands on one task).
    /// Build-time rejection is the only place the mistake is visible.
    ///
    /// `run_topology` calls this automatically; problems surface as
    /// typed [`TopologyError`] variants inside
    /// [`SaError::Topology`](sa_core::SaError::Topology).
    pub fn validate(&self) -> sa_core::Result<()> {
        let mut names = std::collections::HashSet::new();
        for c in &self.components {
            if !names.insert(c.name.as_str()) {
                return Err(TopologyError::DuplicateComponent(c.name.clone()).into());
            }
        }
        let arity: std::collections::HashMap<&str, usize> = self
            .components
            .iter()
            .filter_map(|c| c.schema.as_ref().map(|s| (c.name.as_str(), s.len())))
            .collect();
        for c in &self.components {
            for (up, grouping) in &c.inputs {
                if up == &c.name {
                    return Err(TopologyError::SelfLoop(c.name.clone()).into());
                }
                if !names.contains(up.as_str()) {
                    return Err(TopologyError::UnknownUpstream {
                        component: c.name.clone(),
                        upstream: up.clone(),
                    }
                    .into());
                }
                if let (Grouping::Fields(fields), Some(&arity)) = (grouping, arity.get(up.as_str()))
                {
                    if let Some(&field) = fields.iter().find(|&&f| f >= arity) {
                        return Err(TopologyError::FieldOutOfRange {
                            component: c.name.clone(),
                            upstream: up.clone(),
                            field,
                            arity,
                        }
                        .into());
                    }
                }
            }
            if matches!(c.kind, ComponentKind::Spout(_)) && !c.inputs.is_empty() {
                return Err(TopologyError::SpoutWithInputs(c.name.clone()).into());
            }
        }
        Ok(())
    }
}

/// A simple spout over a fixed vector, with reliable-replay support:
/// failed tuples are re-queued, acked tuples are retired.
pub struct VecSpout {
    queue: std::collections::VecDeque<(u64, Tuple)>,
    in_flight: std::collections::HashMap<u64, Tuple>,
    next_seq: u64,
    /// Total re-emissions performed (diagnostic).
    pub replays: u64,
}

impl VecSpout {
    /// A spout that will emit the given tuples (once each, plus replays).
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let queue: std::collections::VecDeque<(u64, Tuple)> =
            tuples.into_iter().enumerate().map(|(i, t)| (i as u64 + 1, t)).collect();
        let next_seq = queue.len() as u64 + 1;
        Self { queue, in_flight: std::collections::HashMap::new(), next_seq, replays: 0 }
    }
}

/// Boxed [`VecSpout`] constructor (the common case in tests/examples).
pub fn vec_spout(tuples: Vec<Tuple>) -> Box<dyn Spout> {
    Box::new(VecSpout::new(tuples))
}

impl Spout for VecSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let (seq, mut t) = self.queue.pop_front()?;
        t.root = seq;
        self.in_flight.insert(seq, t.clone());
        self.next_seq = self.next_seq.max(seq + 1);
        Some(t)
    }

    fn ack(&mut self, root: u64) {
        self.in_flight.remove(&root);
    }

    fn fail(&mut self, root: u64) -> bool {
        if let Some(t) = self.in_flight.remove(&root) {
            self.replays += 1;
            self.queue.push_back((root, t));
            true
        } else {
            false
        }
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.queue.len()
    }

    fn quarantine(&mut self, root: u64) -> Option<Tuple> {
        if let Some(t) = self.in_flight.remove(&root) {
            return Some(t);
        }
        // Defensive: a message already requeued for replay.
        let pos = self.queue.iter().position(|(seq, _)| *seq == root)?;
        self.queue.remove(pos).map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple_of;

    #[test]
    fn builder_validates_wiring() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("s", vec![vec_spout(vec![])]);
        tb.set_bolt("b", vec![Box::new(|_: &Tuple, _: &mut OutputCollector| {}) as Box<dyn Bolt>])
            .shuffle("s");
        assert!(tb.validate().is_ok());
    }

    #[test]
    fn builder_rejects_unknown_upstream() {
        let mut tb = TopologyBuilder::new();
        tb.set_bolt("b", vec![Box::new(|_: &Tuple, _: &mut OutputCollector| {}) as Box<dyn Bolt>])
            .shuffle("ghost");
        assert!(matches!(
            tb.validate(),
            Err(sa_core::SaError::Topology(TopologyError::UnknownUpstream { .. }))
        ));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("x", vec![vec_spout(vec![])]);
        tb.set_spout("x", vec![vec_spout(vec![])]);
        assert!(matches!(
            tb.validate(),
            Err(sa_core::SaError::Topology(TopologyError::DuplicateComponent(n))) if n == "x"
        ));
    }

    #[test]
    fn builder_rejects_fields_grouping_outside_declared_schema() {
        // Regression: before build-time schema validation, grouping on a
        // field the upstream never emits silently degenerated routing
        // (the absent index contributes nothing to the hash).
        let mut tb = TopologyBuilder::new();
        tb.set_spout("tweets", vec![vec_spout(vec![])]).output_fields(["user", "tag"]);
        tb.set_bolt("agg", vec![noop_bolt()]).fields("tweets", vec![2]);
        match tb.validate() {
            Err(sa_core::SaError::Topology(TopologyError::FieldOutOfRange {
                component,
                upstream,
                field,
                arity,
            })) => {
                assert_eq!((component.as_str(), upstream.as_str()), ("agg", "tweets"));
                assert_eq!((field, arity), (2, 2));
            }
            other => panic!("expected FieldOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn fields_grouping_inside_declared_schema_passes() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("tweets", vec![vec_spout(vec![])]).output_fields(["user", "tag"]);
        tb.set_bolt("agg", vec![noop_bolt()]).fields("tweets", vec![0, 1]);
        assert!(tb.validate().is_ok());
    }

    #[test]
    fn undeclared_schema_stays_unchecked() {
        // Opt-in: components that never declared output_fields keep the
        // old permissive behaviour.
        let mut tb = TopologyBuilder::new();
        tb.set_spout("tweets", vec![vec_spout(vec![])]);
        tb.set_bolt("agg", vec![noop_bolt()]).fields("tweets", vec![7]);
        assert!(tb.validate().is_ok());
    }

    #[test]
    fn bolt_schema_checks_downstream_groupings_too() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("s", vec![vec_spout(vec![])]);
        tb.set_bolt("mid", vec![noop_bolt()]).shuffle("s").output_fields(["key"]);
        tb.set_bolt("sink", vec![noop_bolt()]).fields("mid", vec![1]);
        assert!(matches!(
            tb.validate(),
            Err(sa_core::SaError::Topology(TopologyError::FieldOutOfRange { field: 1, .. }))
        ));
    }

    #[test]
    fn set_bolt_accepts_builders_and_factories() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("s", vec![vec_spout(vec![])]);
        let builders: Vec<BoltBuilder> =
            vec![Box::new(|| Ok(noop_bolt())), Box::new(|| Ok(noop_bolt()))];
        let h = tb.set_bolt("built", builders);
        h.shuffle("s");
        tb.set_bolt("wrapped", BoltFactory::instances(vec![noop_bolt()])).shuffle("s");
        assert!(tb.validate().is_ok());
        assert_eq!(tb.components[1].parallelism, 2);
    }

    fn noop_bolt() -> Box<dyn Bolt> {
        Box::new(|_: &Tuple, _: &mut OutputCollector| {})
    }

    #[test]
    fn spout_handle_reports_identity() {
        let mut tb = TopologyBuilder::new();
        let h = tb.set_spout("s", vec![vec_spout(vec![]), vec_spout(vec![])]);
        assert_eq!(h.name(), "s");
        assert_eq!(h.parallelism(), 2);
    }

    #[test]
    fn vec_spout_replays_failures() {
        let mut s = VecSpout::new(vec![tuple_of(["a"]), tuple_of(["b"])]);
        let t1 = s.next_tuple().unwrap();
        let _t2 = s.next_tuple().unwrap();
        assert_eq!(s.pending(), 2);
        s.ack(t1.root);
        assert_eq!(s.pending(), 1);
        assert!(s.fail(2), "requeued failure must report a replay");
        assert!(!s.fail(999), "unknown root must not report a replay");
        assert_eq!(s.replays, 1);
        let replayed = s.next_tuple().unwrap();
        assert_eq!(replayed.root, 2);
        s.ack(2);
        assert_eq!(s.pending(), 0);
        assert!(s.next_tuple().is_none());
    }

    #[test]
    fn vec_spout_quarantine_retires_the_message() {
        let mut s = VecSpout::new(vec![tuple_of(["poison"]), tuple_of(["fine"])]);
        let t1 = s.next_tuple().unwrap();
        let body = s.quarantine(t1.root).expect("in-flight message surrendered");
        assert_eq!(body.get(0).unwrap().as_str(), Some("poison"));
        assert_eq!(s.pending(), 1, "quarantined message left the pending set");
        assert!(!s.fail(t1.root), "a quarantined message cannot be replayed");
        assert!(s.quarantine(999).is_none());
        // A message sitting in the replay queue is also reachable.
        let t2 = s.next_tuple().unwrap();
        s.fail(t2.root);
        assert!(s.quarantine(t2.root).is_some());
        assert_eq!(s.pending(), 0);
    }
}
