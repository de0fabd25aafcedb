//! The declarative continuous-query front door.
//!
//! The paper's product surface is a *query* over a stream — "trending
//! hashtags", "p99 latency per minute" — not a hand-wired bolt graph.
//! [`Query`] is the declarative plan builder; [`AggQuery::serve`] names
//! the continuously-updated result view; `compile` lowers the plan into
//! a validated [`TopologyBuilder`] topology plus an epoch-swapped
//! [`ServingView`] the running topology publishes into:
//!
//! ```text
//! Query::from("tweets")              spout: caller-provided sources
//!   .key_by(vec![0])                 fields-grouping on the key
//!   .window(tumbling(60))            WindowBolt (else SynopsisBolt)
//!   .aggregate(SpaceSaving::new(k)?, |t, s| ...)
//!   .serve("trending")               MergeServe/WindowServe → ServingView
//! ```
//!
//! ## Compilation rules
//!
//! * **Partitioned aggregation.** `parallelism` [`SynopsisBolt`] tasks
//!   (one checkpoint key each, `"{view}.agg/{task}"`), subscribed with
//!   a fields grouping on `key_by` (shuffle when no key is declared).
//!   With a `window(...)` clause the tasks are [`WindowBolt`]s
//!   (`"{view}.win/{task}"`) and the executor's watermark layer is
//!   enabled at `run` time if the caller's config didn't already.
//!   Both are one operator shell ([`Checkpointed`]): a `Fixed` task
//!   keeps its state in one slot under that key; a
//!   [`Parallelism::Auto`] task is the same shell sharded by key-group,
//!   one slot per owned group under `"{view}.agg@g{group}"`.
//! * **Serving.** A single serve bolt (named after the view) collects
//!   the partitions' durable partials — `emit_on_commit` streams each
//!   successful checkpoint downstream, so a whole-stream view only ever
//!   reflects state a crash cannot roll back, and `checkpoint_every`
//!   sets its freshness — merges them ([`sa_core`]'s
//!   [`sa_core::Merge`] contract), and publishes epochs into the
//!   [`ServingView`]. A windowed view serves fired windows instead: they
//!   leave the task on the watermark, before the commit that covers
//!   their inputs, so the watermark sets its freshness. That is safe
//!   because a restart re-fires identical windows from the checkpoint
//!   plus the replay. Readers hold a [`ViewHandle`] and query while
//!   the topology runs; `{view}.query_us` / `{view}.epoch` land in the
//!   run's [`crate::MetricsSnapshot`] via [`run_topology_with`].
//! * **Validation.** Compiled components declare output schemas, so
//!   [`TopologyBuilder::validate`] range-checks every grouping of the
//!   generated wiring; a `source_fields` declaration extends the check
//!   to the caller's `key_by` indices.
//!
//! Every Table-1 summary is admissible as the aggregate: the bound is
//! [`sa_core::Aggregator`] (checkpointable + mergeable + cloneable),
//! which is blanket-implemented for all of them.

use crate::checkpoint::CheckpointStore;
use crate::executor::{run_topology_with, ExecutorConfig, RunResult};
use crate::metrics::{CounterHandle, Metrics};
use crate::operator::{merge_partials, Checkpointed, OperatorConfig, OperatorState, SynopsisBolt};
use crate::rescale::{AutoPolicy, Autoscaler, RescaleController, Shard};
use crate::serving::{EpochData, QueryResult, ServingView, Staleness, ViewRead};
use crate::topology::{Bolt, BoltBuilder, OutputCollector, Spout, TopologyBuilder};
use crate::tuple::{Tuple, Value};
use crate::window::{WindowBolt, WindowConfig, WindowSpec};
use sa_core::{Aggregator, Result, SaError};
use std::collections::HashMap;
use std::sync::Arc;

/// The parallelism clause of a [`Query`]: a fixed task count, or an
/// autoscaled range compiled into `max` task slots of which `min` are
/// initially active — pair the compiled query with
/// [`CompiledQuery::autoscaler`] (or drive
/// [`CompiledQuery::controller`] directly) to move within the range
/// while the topology runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Exactly this many aggregation tasks.
    Fixed(usize),
    /// Between `min` and `max` tasks, decided at runtime.
    Auto {
        /// Parallelism floor (initial active count).
        min: usize,
        /// Parallelism ceiling (compiled slot count).
        max: usize,
    },
}

impl From<usize> for Parallelism {
    fn from(tasks: usize) -> Self {
        Parallelism::Fixed(tasks.max(1))
    }
}

/// Fixed, non-overlapping windows of `size` event-time units.
pub fn tumbling(size: u64) -> WindowSpec {
    WindowSpec::Tumbling { size }
}

/// Overlapping windows of `size` advancing by `slide`.
pub fn sliding(size: u64, slide: u64) -> WindowSpec {
    WindowSpec::Sliding { size, slide }
}

/// Per-key activity sessions separated by `gap` of inactivity.
pub fn session(gap: u64) -> WindowSpec {
    WindowSpec::Session { gap }
}

/// A declarative continuous-query plan (see the module docs for the
/// compilation rules). Build with [`Query::from`], finish with
/// [`Query::aggregate`] → [`AggQuery::serve`] → [`ContinuousQuery::compile`].
#[derive(Clone, Debug)]
pub struct Query {
    source: String,
    source_schema: Option<Vec<String>>,
    key_fields: Vec<usize>,
    window: Option<WindowSpec>,
    lateness: u64,
    parallelism: Parallelism,
    checkpoint_every: u64,
    store: Option<CheckpointStore>,
    publish_every: u64,
}

impl Query {
    /// Start a plan reading from the named source (the spout's
    /// component name in the compiled topology).
    pub fn from(source: &str) -> Self {
        Self {
            source: source.to_string(),
            source_schema: None,
            key_fields: Vec::new(),
            window: None,
            lateness: 0,
            parallelism: Parallelism::Fixed(1),
            checkpoint_every: 256,
            store: None,
            publish_every: 1,
        }
    }

    /// Declare the source's output field names. Optional, but once
    /// declared the compiler validates `key_by` indices against it at
    /// build time instead of letting a bad index silently degenerate
    /// the partitioning.
    pub fn source_fields<S: Into<String>>(mut self, fields: impl IntoIterator<Item = S>) -> Self {
        self.source_schema = Some(fields.into_iter().map(Into::into).collect());
        self
    }

    /// Partition the stream by these tuple field indices: same key →
    /// same aggregation task. No `key_by` = shuffle (any task may see
    /// any tuple; correct for mergeable aggregates, which is all of
    /// them here).
    pub fn key_by(mut self, fields: Vec<usize>) -> Self {
        self.key_fields = fields;
        self
    }

    /// Aggregate per event-time window instead of over the whole
    /// stream. Requires event-time-stamped tuples from the source.
    pub fn window(mut self, spec: WindowSpec) -> Self {
        self.window = Some(spec);
        self
    }

    /// How long past a window's end stragglers may still amend it
    /// (windowed plans only).
    pub fn lateness(mut self, lateness: u64) -> Self {
        self.lateness = lateness;
        self
    }

    /// Number of parallel aggregation tasks (default 1). Accepts a
    /// plain count, or [`Parallelism::Auto`] to compile an autoscaled
    /// range (requires a `key_by` clause: autoscaling shards state by
    /// key-group).
    pub fn parallelism(mut self, tasks: impl Into<Parallelism>) -> Self {
        self.parallelism = match tasks.into() {
            Parallelism::Fixed(n) => Parallelism::Fixed(n.max(1)),
            Parallelism::Auto { min, max } => {
                let min = min.max(1);
                Parallelism::Auto { min, max: max.max(min) }
            }
        };
        self
    }

    /// Checkpoint (and publish a durable partial) every this many
    /// freshly applied tuples per task — the freshness/overhead knob of
    /// a whole-stream plan (a windowed plan publishes on the watermark).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Checkpoint into this store (default: a fresh in-memory store).
    /// Pass the store from a previous run to recover through it.
    pub fn checkpoint(mut self, store: &CheckpointStore) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// Publish a new serving epoch every this many partial updates
    /// received by the serve bolt (default 1 = every durable partial).
    pub fn publish_every(mut self, every: u64) -> Self {
        self.publish_every = every.max(1);
        self
    }

    /// Attach the aggregation: `template` is the summary every task
    /// clones its state from (any [`Aggregator`] — every Table-1
    /// synopsis qualifies), `update` folds one tuple into it.
    pub fn aggregate<S, F>(self, template: S, update: F) -> AggQuery<S, F>
    where
        S: Aggregator + Sync,
        F: FnMut(&Tuple, &mut S) + Clone + Send + 'static,
    {
        AggQuery { plan: self, template, update }
    }
}

/// A plan with its aggregation attached; name the result view with
/// [`AggQuery::serve`].
pub struct AggQuery<S, F> {
    plan: Query,
    template: S,
    update: F,
}

impl<S, F> AggQuery<S, F>
where
    S: Aggregator + Sync,
    F: FnMut(&Tuple, &mut S) + Clone + Send + 'static,
{
    /// Serve the continuously-updated result under `view`: the compiled
    /// topology's serve bolt and its [`ServingView`] take this name,
    /// as do the `{view}.query_us` / `{view}.epoch` metrics.
    pub fn serve(self, view: &str) -> ContinuousQuery<S, F> {
        ContinuousQuery { agg: self, view: view.to_string() }
    }
}

/// A fully-declared continuous query, ready to compile against its
/// source spouts.
pub struct ContinuousQuery<S, F> {
    agg: AggQuery<S, F>,
    view: String,
}

impl<S, F> ContinuousQuery<S, F>
where
    S: Aggregator + Sync,
    F: FnMut(&Tuple, &mut S) + Clone + Send + 'static,
{
    /// Lower the plan into a validated topology + serving view. The
    /// spout instances provide the `from(...)` source (their count is
    /// the source parallelism); compilation errors (bad `key_by`
    /// index against declared `source_fields`, …) surface here, before
    /// any thread spawns.
    pub fn compile(self, sources: Vec<Box<dyn Spout>>) -> Result<CompiledQuery<S>> {
        let ContinuousQuery { agg: AggQuery { plan, template, update }, view } = self;
        let metrics = Metrics::new();
        let serving: ServingView<ViewEntry<S>> = ServingView::instrumented(&view, &metrics);
        let store = plan.store.clone().unwrap_or_default();
        let windowed = plan.window.is_some();

        let mut tb = TopologyBuilder::new();
        let spout = tb.set_spout(&plan.source, sources);
        if let Some(schema) = &plan.source_schema {
            spout.output_fields(schema.clone());
        }

        // Partitioned aggregation tasks, rebuilt from their checkpoint
        // on supervised restarts.
        let agg_name = if windowed { format!("{view}.win") } else { format!("{view}.agg") };

        // An Auto plan compiles `max` task slots governed by a shard
        // table, `min` of them initially active; resizing happens at
        // runtime through the controller (see `autoscaler`).
        let (slots, auto) = match plan.parallelism {
            Parallelism::Fixed(n) => (n, None),
            Parallelism::Auto { min, max } => {
                if plan.key_fields.is_empty() {
                    return Err(SaError::invalid(
                        "parallelism",
                        "Parallelism::Auto requires key_by(...): autoscaling shards state \
                         by key-group",
                    ));
                }
                let ctl = RescaleController::new();
                let table = ctl.table(&agg_name, max, min);
                (max, Some((ctl, table, min, max)))
            }
        };

        // One checkpointed operator per task slot. A Fixed task keeps
        // its state in one slot under "{agg_name}/{task}"; an Auto task
        // is the same operator sharded by key-group, one slot per owned
        // group under the task-agnostic "{agg_name}@g{group}". A window
        // state emits no partial (fired windows leave on the watermark),
        // so a windowed task commits its tail once the input is quiet.
        let cfg = OperatorConfig {
            checkpoint_every: plan.checkpoint_every,
            emit_on_commit: !windowed,
            ..OperatorConfig::default()
        };
        let window = plan.window.map(|spec| WindowConfig {
            spec,
            key_fields: plan.key_fields.clone(),
            allowed_lateness: plan.lateness,
            checkpoint: cfg.clone(),
        });
        let table = auto.as_ref().map(|(_, table, ..)| table.clone());
        let mut builders: Vec<BoltBuilder> = Vec::with_capacity(slots);
        for task in 0..slots {
            let (store, template, update) = (store.clone(), template.clone(), update.clone());
            let (cfg, window, table) = (cfg.clone(), window.clone(), table.clone());
            let key_fields = plan.key_fields.clone();
            let key = if table.is_some() { agg_name.clone() } else { format!("{agg_name}/{task}") };
            builders.push(Box::new(move || {
                let (t, u) = (template.clone(), update.clone());
                let seat = table.as_ref().map(|table| table.shard(task, key_fields.clone()));
                match window.clone() {
                    None => {
                        seated(SynopsisBolt::with_config(&key, &store, t, u, cfg.clone())?, seat)
                    }
                    Some(wc) => seated(WindowBolt::new(&key, &store, t, wc, u)?, seat),
                }
            }));
        }
        let agg_handle = tb.set_bolt(&agg_name, builders);
        let agg_handle = if plan.key_fields.is_empty() {
            agg_handle.shuffle(&plan.source)
        } else {
            agg_handle.fields(&plan.source, plan.key_fields.clone())
        };
        agg_handle.output_fields(if windowed {
            vec!["key", "start", "end", "snapshot"]
        } else {
            vec!["partition", "snapshot", "applied"]
        });

        // The serve bolt: single task, global grouping, publishes into
        // the epoch-swapped view.
        let serve: Box<dyn Bolt> = if windowed {
            Box::new(WindowServe {
                view: serving.clone(),
                template: template.clone(),
                latest: HashMap::new(),
                publish_every: plan.publish_every,
                updates: 0,
                dirty: false,
                errors: None,
            })
        } else {
            Box::new(MergeServe {
                name: view.clone(),
                view: serving.clone(),
                template: template.clone(),
                parts: HashMap::new(),
                publish_every: plan.publish_every,
                updates: 0,
                dirty: false,
                errors: None,
            })
        };
        tb.set_bolt(&view, vec![serve]).global(&agg_name).output_fields(["view", "snapshot"]);

        tb.validate()?;
        Ok(CompiledQuery {
            topology: tb,
            metrics,
            view: ViewHandle { view: serving },
            windowed,
            controller: auto.as_ref().map(|(ctl, ..)| ctl.clone()),
            agg_name,
            auto_bounds: auto.map(|(.., min, max)| (min, max)),
        })
    }
}

/// `bolt` as built (a Fixed plan's task), or seated at the plan's shard
/// table (an Auto plan's).
fn seated<St: OperatorState + Clone + 'static>(
    bolt: Checkpointed<St>,
    seat: Option<Shard>,
) -> Result<Box<dyn Bolt>> {
    Ok(Box::new(match seat {
        Some(seat) => bolt.sharded(seat)?,
        None => bolt,
    }))
}

/// A compiled plan: the generated topology, its metrics registry, and
/// the serving view it publishes into. Grab a [`ViewHandle`] with
/// [`CompiledQuery::view`] *before* [`CompiledQuery::run`] to query
/// concurrently with the run.
pub struct CompiledQuery<S> {
    topology: TopologyBuilder,
    metrics: Metrics,
    view: ViewHandle<S>,
    windowed: bool,
    controller: Option<RescaleController>,
    agg_name: String,
    auto_bounds: Option<(usize, usize)>,
}

// Manual impl so `compile(..).unwrap_err()` works in caller tests: the
// topology and update closures aren't Debug, and need not be.
impl<S> std::fmt::Debug for CompiledQuery<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledQuery").field("windowed", &self.windowed).finish_non_exhaustive()
    }
}

impl<S: Clone + Send + Sync> CompiledQuery<S> {
    /// A clone-cheap reader handle onto the query's serving view.
    pub fn view(&self) -> ViewHandle<S> {
        self.view.clone()
    }

    /// The compiled topology's metrics registry (also carried into the
    /// run's [`RunResult`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The aggregation component's name in the compiled topology — the
    /// resize target for [`CompiledQuery::controller`].
    pub fn agg_component(&self) -> &str {
        &self.agg_name
    }

    /// The live-rescaling controller of a [`Parallelism::Auto`] plan
    /// (`None` for fixed plans). Call
    /// `resize(self.agg_component(), n)` on it while the query runs to
    /// rescale by hand.
    pub fn controller(&self) -> Option<RescaleController> {
        self.controller.clone()
    }

    /// An [`Autoscaler`] governing the aggregation within the plan's
    /// `Auto { min, max }` bounds (which override `policy`'s). Drive it
    /// from a sampling thread while the query runs. Errors for
    /// fixed-parallelism plans.
    pub fn autoscaler(&self, policy: AutoPolicy) -> Result<Autoscaler> {
        let (ctl, (min, max)) = match (&self.controller, self.auto_bounds) {
            (Some(ctl), Some(bounds)) => (ctl.clone(), bounds),
            _ => {
                return Err(SaError::invalid(
                    "parallelism",
                    "autoscaler requires a Parallelism::Auto plan",
                ))
            }
        };
        Ok(Autoscaler::new(
            ctl,
            &self.agg_name,
            self.metrics.clone(),
            AutoPolicy { min, max, ..policy },
        ))
    }

    /// Run the compiled topology to completion under `config`. Windowed
    /// plans enable the executor's watermark layer when the caller's
    /// config didn't configure one. The serving view keeps answering
    /// (at its final epoch) after the run drains.
    pub fn run(self, mut config: ExecutorConfig) -> Result<RunResult> {
        if self.windowed && config.watermarks.is_none() {
            config.watermarks = Some(crate::time::WatermarkConfig::default());
        }
        // An Auto plan's shard tables live in its own controller — the
        // executor must see that one for routing and quiesce kicks.
        if let Some(ctl) = &self.controller {
            config.rescale = Some(ctl.clone());
        }
        run_topology_with(self.topology, config, self.metrics)
    }
}

/// One served result: the aggregate, plus the event-time window it
/// covers for windowed plans (`None` for whole-stream aggregation).
#[derive(Clone, Debug)]
pub struct ViewEntry<S> {
    /// The (merged or per-key-window) aggregate.
    pub agg: S,
    /// `[start, end)` of the window this entry covers, when windowed.
    pub window: Option<(u64, u64)>,
}

/// Reader handle onto a compiled query's serving view. Clone freely
/// across threads; a read holds its thread's reader shard for one
/// lookup and never waits on the topology (see [`ServingView`]).
pub struct ViewHandle<S> {
    view: ServingView<ViewEntry<S>>,
}

impl<S> Clone for ViewHandle<S> {
    fn clone(&self) -> Self {
        Self { view: self.view.clone() }
    }
}

impl<S: Clone + Send + Sync> ViewHandle<S> {
    /// Point query: the served entry under `key` (windowed plans index
    /// by group key; whole-stream plans serve the global aggregate
    /// under [`ViewHandle::global`] instead). `None` while the key is
    /// absent from the current epoch.
    pub fn get(&self, key: &str) -> Option<QueryResult<ViewEntry<S>>> {
        wrap(self.view.get(key))
    }

    /// The whole-stream merged aggregate (the `""` entry a
    /// whole-stream-compiled plan publishes). `None` before the first
    /// publish.
    pub fn global(&self) -> Option<QueryResult<S>> {
        let r = wrap(self.view.get(""))?;
        Some(QueryResult { value: r.value.agg, epoch: r.epoch, staleness: r.staleness })
    }

    /// The view's current epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// A consistent handle to the entire current generation.
    pub fn snapshot(&self) -> Arc<EpochData<ViewEntry<S>>> {
        self.view.snapshot()
    }
}

/// Lift a raw [`ViewRead`] into the public [`QueryResult`] shape.
fn wrap<V>(read: ViewRead<V>) -> Option<QueryResult<V>> {
    let value = read.value?;
    Some(QueryResult {
        value,
        epoch: read.epoch,
        staleness: Staleness { behind: None, age: read.age },
    })
}

/// Serve bolt for whole-stream plans: collects each partition's
/// durable partial `[Str(part), Bytes(snapshot), Int(applied)]`
/// (2-field drain partials are accepted too), merges them in
/// deterministic order, and publishes the global aggregate under the
/// `""` key. `covers` is the newest applied record id across
/// partitions.
struct MergeServe<S> {
    name: String,
    view: ServingView<ViewEntry<S>>,
    template: S,
    /// partition key → (snapshot bytes, newest applied id).
    parts: HashMap<String, (Vec<u8>, u64)>,
    publish_every: u64,
    updates: u64,
    dirty: bool,
    /// `{view}.serve_errors`, see [`count_error`].
    errors: Option<CounterHandle>,
}

/// Count one bad serve input (a malformed tuple, or a partial or window
/// that does not decode) into the `{view}.serve_errors` counter, once.
fn count_error(errors: &Option<CounterHandle>) {
    if let Some(c) = errors {
        c.add(1);
    }
}

impl<S: Aggregator + Sync> MergeServe<S> {
    /// Merge the collected partials and publish a new epoch. Returns
    /// the merged aggregate for the drain-time emission. A partial that
    /// fails to merge is counted and dropped, so its partition stays
    /// out of the view (and of `covers`) until a good partial arrives.
    fn publish(&mut self) -> S {
        let mut bad = Vec::new();
        let parts = self.parts.iter().map(|(key, (bytes, _))| (key, bytes));
        let global = merge_partials(&self.template, parts, |key, _| bad.push(key.clone()));
        for key in bad {
            count_error(&self.errors);
            self.parts.remove(&key);
        }
        let covers = self.parts.values().map(|(_, applied)| *applied).max().unwrap_or(0);
        let mut table = HashMap::with_capacity(1);
        table.insert(String::new(), ViewEntry { agg: global.clone(), window: None });
        self.view.publish(table, covers);
        self.dirty = false;
        self.updates = 0;
        global
    }
}

impl<S: Aggregator + Sync> Bolt for MergeServe<S> {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        match (input.get(0).and_then(Value::as_str), input.get(1).and_then(Value::as_bytes)) {
            (Some(part), Some(bytes)) => {
                let applied = input.get(2).and_then(Value::as_int).map_or(0, |i| i as u64);
                let entry = self.parts.entry(part.to_string()).or_insert((Vec::new(), 0));
                entry.0 = bytes.to_vec();
                entry.1 = entry.1.max(applied);
                self.dirty = true;
                self.updates += 1;
                if self.updates >= self.publish_every {
                    self.publish();
                }
            }
            _ => count_error(&self.errors),
        }
    }

    fn on_idle(&mut self, _out: &mut OutputCollector) {
        if self.dirty {
            self.publish();
        }
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        let global = self.publish();
        out.emit(Tuple::new(vec![
            Value::Str(self.name.clone().into()),
            Value::Bytes(global.snapshot().into()),
        ]));
    }

    fn register_metrics(&mut self, metrics: &Metrics, component: &str) {
        self.errors = Some(metrics.register(&format!("{component}.serve_errors")));
    }
}

/// Serve bolt for windowed plans: keeps the latest fired window per
/// group key (`[Str(key), Int(start), Int(end), Bytes(snapshot)]`,
/// re-firings for the same window replace in place, a newer window
/// supersedes an older one), decoded once on arrival, and publishes a
/// copy of the key → entry table. `covers` is the newest served window
/// end — the view's event-time frontier.
struct WindowServe<S> {
    view: ServingView<ViewEntry<S>>,
    template: S,
    /// group key → the newest fired window, decoded.
    latest: HashMap<String, ViewEntry<S>>,
    publish_every: u64,
    updates: u64,
    dirty: bool,
    /// `{view}.serve_errors`, see [`count_error`].
    errors: Option<CounterHandle>,
}

impl<S: Aggregator + Sync> WindowServe<S> {
    fn publish(&mut self) {
        let ends = self.latest.values().filter_map(|entry| entry.window.map(|(_, end)| end));
        self.view.publish(self.latest.clone(), ends.max().unwrap_or(0));
        self.dirty = false;
        self.updates = 0;
    }
}

impl<S: Aggregator + Sync> Bolt for WindowServe<S> {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        let parsed = (
            input.get(0).and_then(Value::as_str),
            input.get(1).and_then(Value::as_int),
            input.get(2).and_then(Value::as_int),
            input.get(3).and_then(Value::as_bytes),
        );
        let (Some(key), Some(start), Some(end), Some(bytes)) = parsed else {
            count_error(&self.errors);
            return;
        };
        let (start, end) = (start as u64, end as u64);
        // Same-window re-firings amend in place; an older window never
        // overwrites a newer one.
        if self
            .latest
            .get(key)
            .and_then(|entry| entry.window)
            .is_some_and(|(_, newest)| end < newest)
        {
            return;
        }
        let mut agg = self.template.clone();
        if agg.restore(bytes).is_ok() {
            self.latest.insert(key.to_string(), ViewEntry { agg, window: Some((start, end)) });
        } else {
            // The key stays absent until a good window for it arrives
            // (an older one too: nothing newer is left to protect).
            count_error(&self.errors);
            self.latest.remove(key);
        }
        self.dirty = true;
        self.updates += 1;
        if self.updates >= self.publish_every {
            self.publish();
        }
    }

    fn on_idle(&mut self, _out: &mut OutputCollector) {
        if self.dirty {
            self.publish();
        }
    }

    fn flush(&mut self, _out: &mut OutputCollector) {
        if self.dirty {
            self.publish();
        }
    }

    fn register_metrics(&mut self, metrics: &Metrics, component: &str) {
        self.errors = Some(metrics.register(&format!("{component}.serve_errors")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::vec_spout;
    use crate::tuple::tuple_of;
    use sa_core::Synopsis;
    use sa_sketches::heavy_hitters::SpaceSaving;

    fn word_tuples(words: &[&str]) -> Vec<Tuple> {
        words.iter().map(|w| tuple_of([*w])).collect()
    }

    fn count_update(t: &Tuple, s: &mut SpaceSaving<String>) {
        if let Some(w) = t.get(0).and_then(Value::as_str) {
            s.insert(w.to_string());
        }
    }

    #[test]
    fn whole_stream_plan_compiles_runs_and_serves() {
        let words = ["a", "a", "a", "b", "b", "c"];
        let compiled = Query::from("words")
            .source_fields(["word"])
            .key_by(vec![0])
            .parallelism(2)
            .checkpoint_every(2)
            .aggregate(SpaceSaving::<String>::new(16).unwrap(), count_update)
            .serve("counts")
            .compile(vec![vec_spout(word_tuples(&words))])
            .unwrap();
        let view = compiled.view();
        assert!(view.global().is_none(), "nothing served before the run");
        let result = compiled.run(ExecutorConfig::default()).unwrap();
        assert!(result.clean_shutdown);
        let served = view.global().expect("view published");
        assert_eq!(served.value.estimate(&"a".to_string()), 3);
        assert_eq!(served.value.estimate(&"b".to_string()), 2);
        assert!(served.epoch >= 1);
        assert!(view.epoch() >= 1, "epoch survives the drain");
        // The run's snapshot carries the view's instruments.
        let snap = result.metrics.snapshot();
        assert_eq!(snap.gauge("counts.epoch"), Some(served.epoch));
    }

    #[test]
    fn serving_updates_mid_stream_not_only_at_drain() {
        // checkpoint_every=1 → every tuple commits → every commit
        // publishes; by drain the epoch must exceed 1 by far.
        let words: Vec<Tuple> = word_tuples(&["x"; 32]);
        let compiled = Query::from("words")
            .aggregate(SpaceSaving::<String>::new(4).unwrap(), count_update)
            .serve("live")
            .compile(vec![vec_spout(words)])
            .unwrap();
        let view = compiled.view();
        compiled.run(ExecutorConfig::default()).unwrap();
        assert!(view.epoch() > 1, "mid-stream publishes happened: {}", view.epoch());
        assert_eq!(view.global().unwrap().value.estimate(&"x".to_string()), 32);
    }

    #[test]
    fn windowed_plan_serves_per_key_windows() {
        let mut tuples = Vec::new();
        for (word, et) in
            [("a", 5u64), ("a", 7), ("b", 8), ("a", 15), ("b", 17), ("a", 18), ("a", 25)]
        {
            tuples.push(tuple_of([word]).at(et));
        }
        let compiled = Query::from("events")
            .key_by(vec![0])
            .window(tumbling(10))
            .checkpoint_every(1)
            .aggregate(SpaceSaving::<String>::new(8).unwrap(), count_update)
            .serve("windows")
            .compile(vec![vec_spout(tuples)])
            .unwrap();
        let view = compiled.view();
        compiled.run(ExecutorConfig::default()).unwrap();
        // Latest closed/drained window per key.
        let a = view.get("a").expect("key a served");
        assert_eq!(a.value.window, Some((20, 30)), "newest window wins");
        assert_eq!(a.value.agg.estimate(&"a".to_string()), 1);
        let b = view.get("b").expect("key b served");
        assert_eq!(b.value.window, Some((10, 20)));
        assert!(view.get("ghost").is_none());
    }

    fn counted(words: &[&str]) -> SpaceSaving<String> {
        let mut s = SpaceSaving::new(4).unwrap();
        words.iter().for_each(|w| s.insert(w.to_string()));
        s
    }

    /// A malformed tuple and a window that does not decode are each
    /// counted once into `{view}.serve_errors`, however many publishes
    /// follow; the corrupt key is absent, and its end is not in
    /// `covers`, until a good window for it arrives.
    #[test]
    fn window_serve_counts_each_bad_input_once() {
        let (metrics, view) = (Metrics::new(), ServingView::new());
        let mut serve = WindowServe {
            view: view.clone(),
            template: counted(&[]),
            latest: HashMap::new(),
            publish_every: 1,
            updates: 0,
            dirty: false,
            errors: None,
        };
        serve.register_metrics(&metrics, "w");
        let fired = |key: &str, end: i64, bytes: Vec<u8>| {
            let (key, bytes) = (Value::Str(key.into()), Value::Bytes(bytes.into()));
            Tuple::new(vec![key, Value::Int(end - 10), Value::Int(end), bytes])
        };
        let mut out = OutputCollector::new();
        serve.execute(&tuple_of(["malformed"]), &mut out);
        serve.execute(&fired("b", 20, counted(&["b"]).snapshot()), &mut out);
        serve.execute(&fired("b", 30, vec![0xFF]), &mut out);
        for _ in 0..3 {
            serve.execute(&fired("a", 10, counted(&["a"]).snapshot()), &mut out);
            serve.on_idle(&mut out);
        }
        serve.flush(&mut out);
        assert_eq!(metrics.snapshot().counter("w.serve_errors"), 2);
        let epoch = view.snapshot();
        assert!(!epoch.table.contains_key("b"), "the corrupt update hides the key");
        assert_eq!((epoch.table.len(), epoch.covers), (1, 10));
        serve.execute(&fired("b", 30, counted(&["b", "b"]).snapshot()), &mut out);
        let b = view.get("b").value.expect("a good window serves the key again");
        assert_eq!((b.window, b.agg.estimate(&"b".to_string())), (Some((20, 30)), 2));
        assert_eq!(view.snapshot().covers, 30);
        assert_eq!(metrics.snapshot().counter("w.serve_errors"), 2);
    }

    /// The whole-stream server counts a malformed tuple and a partial
    /// that does not restore once each, and drops that partition (and
    /// its applied id) from the view until a good partial arrives.
    #[test]
    fn merge_serve_counts_each_bad_input_once() {
        let (metrics, view) = (Metrics::new(), ServingView::new());
        let mut serve = MergeServe {
            name: "m".into(),
            view: view.clone(),
            template: counted(&[]),
            parts: HashMap::new(),
            publish_every: 1,
            updates: 0,
            dirty: false,
            errors: None,
        };
        serve.register_metrics(&metrics, "m");
        let partial = |part: &str, bytes: Vec<u8>, applied: i64| {
            let (part, bytes) = (Value::Str(part.into()), Value::Bytes(bytes.into()));
            Tuple::new(vec![part, bytes, Value::Int(applied)])
        };
        let mut out = OutputCollector::new();
        serve.execute(&tuple_of(["malformed"]), &mut out);
        serve.execute(&partial("p1", vec![0xFF], 99), &mut out);
        for applied in 1..=3 {
            serve.execute(&partial("p0", counted(&["a"]).snapshot(), applied), &mut out);
            serve.on_idle(&mut out);
        }
        assert_eq!(metrics.snapshot().counter("m.serve_errors"), 2);
        assert_eq!(view.snapshot().covers, 3, "the bad partial's applied id is not served");
        serve.execute(&partial("p1", counted(&["a"]).snapshot(), 100), &mut out);
        serve.flush(&mut out);
        let global = view.get("").value.expect("published").agg;
        assert_eq!((global.estimate(&"a".to_string()), view.snapshot().covers), (2, 100));
        assert_eq!(metrics.snapshot().counter("m.serve_errors"), 2);
    }

    #[test]
    fn compiled_wiring_is_schema_validated() {
        // key_by(1) against a declared 1-field source must fail at
        // compile time with the topology's FieldOutOfRange error.
        let compiled = Query::from("words")
            .source_fields(["word"])
            .key_by(vec![1])
            .aggregate(SpaceSaving::<String>::new(4).unwrap(), count_update)
            .serve("bad")
            .compile(vec![vec_spout(vec![])]);
        let err = match compiled {
            Ok(_) => panic!("out-of-range key_by must not compile"),
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                sa_core::SaError::Topology(sa_core::TopologyError::FieldOutOfRange {
                    field: 1,
                    arity: 1,
                    ..
                })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn recovery_through_a_shared_checkpoint_store() {
        let store = CheckpointStore::new();
        let run = |words: &[&str]| {
            let compiled = Query::from("words")
                .checkpoint(&store)
                .checkpoint_every(1)
                .aggregate(SpaceSaving::<String>::new(16).unwrap(), count_update)
                .serve("persist")
                .compile(vec![vec_spout(word_tuples(words))])
                .unwrap();
            let view = compiled.view();
            compiled.run(ExecutorConfig::default()).unwrap();
            view
        };
        run(&["a", "a"]);
        // Second run, same store: the aggregation task recovers its
        // checkpoint, so the served total spans both runs.
        // (VecSpout lineage ids collide across runs, so the second
        // run's first two tuples dedup — exactly the exactly-once
        // contract; use distinct words to observe the restore.)
        let view = run(&["b", "b", "b"]);
        let total = view.global().unwrap().value;
        assert_eq!(total.estimate(&"a".to_string()), 2, "recovered state survived");
        assert_eq!(total.estimate(&"b".to_string()), 1, "ids 1-2 deduped, id 3 fresh");
    }
}
