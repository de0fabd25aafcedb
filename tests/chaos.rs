//! Chaos integration: topologies run under a [`FaultPlan`] mixing
//! injected panics, link drops, and a mid-run kill, and must still
//! deliver their guarantee — no loss under at-least-once, bit-exact
//! answers under exactly-once — while `RestartPolicy::none()` restores
//! the pre-supervision "first panic fails the topology" behaviour.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use streaming_analytics::core::rng::SplitMix64;
use streaming_analytics::prelude::*;
use streaming_analytics::sketches::heavy_hitters::SpaceSaving;

const WC_TASKS: usize = 2;

/// A skewed word stream appended to a 1-partition log; returns the
/// exact counts.
fn fill_log(log: &Log, n: usize, seed: u64) -> HashMap<String, u64> {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<String, u64> = HashMap::new();
    for _ in 0..n {
        let i = rng.next_below(30).min(rng.next_below(30));
        let word = format!("w{i:02}");
        *truth.entry(word.clone()).or_default() += 1;
        log.append(&word, Vec::new());
    }
    truth
}

/// When set, flips `kill` after the given number of spout emissions.
type KillPlan = Option<(Arc<AtomicU64>, u64, Arc<AtomicBool>)>;

fn killing_decoder(plan: KillPlan) -> impl FnMut(&Record) -> Tuple + Send {
    move |r: &Record| {
        if let Some((emitted, at, kill)) = &plan {
            if emitted.fetch_add(1, Ordering::SeqCst) + 1 == *at {
                kill.store(true, Ordering::SeqCst);
            }
        }
        tuple_of([r.key.as_str()])
    }
}

/// A generous restart budget: chaos runs are expected to panic often
/// and still finish, so the policy must never be the thing that fails.
fn lenient() -> RestartPolicy {
    RestartPolicy::default()
        .base(Duration::from_micros(10))
        .cap(Duration::from_micros(200))
        .budget(10_000, Duration::from_secs(60))
}

/// Every chaos guarantee must hold under both runtimes: the
/// work-stealing pool supervises activations exactly as
/// thread-per-task supervises dedicated threads.
fn schedulings() -> [Scheduling; 2] {
    [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }]
}

fn chaos_config(
    faults: FaultPlan,
    kill: Option<Arc<AtomicBool>>,
    scheduling: Scheduling,
) -> ExecutorConfig {
    ExecutorConfig {
        scheduling,
        semantics: Semantics::AtLeastOnce,
        // Dropped deliveries must time out and replay quickly.
        ack_timeout: Duration::from_millis(200),
        shutdown_timeout: Duration::from_secs(30),
        seed: 11,
        restart: lenient(),
        faults: match kill {
            Some(kill) => faults.kill_switch(kill),
            None => faults,
        },
        ..Default::default()
    }
}

/// spout(log) → fields-grouped `SynopsisBolt<SpaceSaving>` factories × 2:
/// every supervised restart rebuilds the bolt from its checkpoint.
fn eo_wordcount(
    log: &Log,
    store: &CheckpointStore,
    from_offset: u64,
    kill_plan: KillPlan,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    // Recovery replays from the spout's persisted settled frontier,
    // which stays safe when chaos makes tuples settle out of order.
    let spout = LogSpout::new(log, 0, from_offset, 0, killing_decoder(kill_plan)).with_frontier(
        store,
        "log.frontier",
        32,
    );
    tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
    let mut builders: Vec<BoltBuilder> = Vec::new();
    for task in 0..WC_TASKS {
        let store = store.clone();
        builders.push(Box::new(move || {
            let update = |t: &Tuple, s: &mut SpaceSaving<String>| {
                s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
            };
            let cfg = OperatorConfig { checkpoint_every: 50, ..Default::default() };
            let bolt = SynopsisBolt::with_config(
                &format!("wc/{task}"),
                &store,
                SpaceSaving::new(64).unwrap(),
                update,
                cfg,
            )?;
            Ok(Box::new(bolt) as Box<dyn Bolt>)
        }));
    }
    tb.set_bolt("wc", builders).fields("log", vec![0]);
    tb
}

/// Merge the per-task flush snapshots back into one exact count table
/// (k = 64 > 30 distinct words, so SpaceSaving is exact here).
fn merged_counts(outputs: &HashMap<String, Vec<Tuple>>) -> HashMap<String, u64> {
    let mut global = SpaceSaving::<String>::new(64).unwrap();
    let tuples = &outputs["wc"];
    assert_eq!(tuples.len(), WC_TASKS, "one flush snapshot per task");
    for t in tuples {
        let mut part = SpaceSaving::<String>::new(64).unwrap();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        global.merge(&part).unwrap();
    }
    global.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect()
}

/// At-least-once under panics + drops + a mid-run kill: after the
/// killed run is resumed (full log replay — the bolt keeps no
/// checkpoint), every word's count is at least the true count.
/// Duplicates are allowed; loss is not.
#[test]
fn at_least_once_no_loss_under_panics_drops_and_kill() {
    for scheduling in schedulings() {
        let log = Log::new(1).unwrap();
        let truth = fill_log(&log, 2_000, 42);
        let counts: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));

        let topology = |kill_plan: KillPlan| {
            let mut tb = TopologyBuilder::new();
            let spout = LogSpout::new(&log, 0, 0, 0, killing_decoder(kill_plan));
            tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
            let counts = counts.clone();
            let bolt = move |t: &Tuple, _out: &mut OutputCollector| {
                let word = t.get(0).unwrap().as_str().unwrap().to_string();
                *counts.lock().unwrap().entry(word).or_default() += 1;
            };
            tb.set_bolt("count", vec![Box::new(bolt) as Box<dyn Bolt>]).shuffle("log");
            tb
        };
        let faults = || FaultPlan::new(77).panic_on("count", 0.01).drop_on("log", 0.01);

        // Run 1: killed after ~half the stream has been emitted.
        let kill = Arc::new(AtomicBool::new(false));
        let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 1_000, kill.clone()));
        let crashed =
            run_topology(topology(plan), chaos_config(faults(), Some(kill), scheduling)).unwrap();
        assert!(!crashed.clean_shutdown, "{scheduling:?}: kill switch must mark unclean");

        // Run 2: replay the whole log (no checkpoint to resume from).
        let resumed =
            run_topology(topology(None), chaos_config(faults(), None, scheduling)).unwrap();
        assert!(resumed.clean_shutdown);

        let got = counts.lock().unwrap();
        for (word, &want) in &truth {
            let have = got.get(word).copied().unwrap_or(0);
            assert!(have >= want, "{scheduling:?}: lost tuples for {word}: {have} < {want}");
        }
        let snap = resumed.metrics.snapshot();
        assert!(snap.task_panics > 0, "{scheduling:?}: chaos plan never fired");
        assert_eq!(snap.task_panics, snap.task_restarts, "every panic must be forgiven");
        assert_eq!(snap.escalations, 0);
    }
}

/// Exactly-once under panics + drops (no kill): a full run with bolt
/// factories lands on counts identical to the ground truth — every
/// replayed tuple deduplicated, every restart recovered. Run once with
/// the panics in `wc` (each restart rebuilds the bolt from its
/// checkpoint) and once in the `log` spout (each restart resumes the
/// same instance in place).
#[test]
fn exactly_once_exact_under_panics_and_drops() {
    for victim in ["wc", "log"] {
        for scheduling in schedulings() {
            let log = Log::new(1).unwrap();
            let truth = fill_log(&log, 2_000, 43);
            let store = CheckpointStore::new();
            let faults = FaultPlan::new(99).panic_on(victim, 0.01).drop_on("log", 0.01);

            let result = run_topology(
                eo_wordcount(&log, &store, 0, None),
                chaos_config(faults, None, scheduling),
            )
            .unwrap();
            assert!(result.clean_shutdown, "{victim} {scheduling:?}: unclean");
            assert_eq!(
                merged_counts(&result.outputs),
                truth,
                "{victim} {scheduling:?}: chaos perturbed the exact counts"
            );

            let snap = result.metrics.snapshot();
            let panics = snap.counter(&format!("{victim}.panics"));
            assert!(
                snap.counter(&format!("{victim}.restarts")) > 0,
                "{victim} {scheduling:?}: chaos plan never fired"
            );
            assert_eq!(panics, snap.task_panics, "{victim} {scheduling:?}: panics misattributed");
            assert_eq!(snap.task_restarts, snap.task_panics, "every panic must be forgiven");
            assert_eq!(snap.escalations, 0);
        }
    }
}

/// Exactly-once under panics + a mid-run kill: the restarted topology
/// recovers from checkpoints + log replay and still produces counts
/// identical to the truth. (No link drops here: a kill landing while a
/// dropped delivery is un-replayed would be genuine loss — drops and
/// process death together need the at-least-once envelope above.)
#[test]
fn exactly_once_recovers_from_kill_under_panics() {
    for scheduling in schedulings() {
        let log = Log::new(1).unwrap();
        let truth = fill_log(&log, 2_000, 44);
        let store = CheckpointStore::new();
        let faults = || FaultPlan::new(1234).panic_on("wc", 0.01);

        // Run 1: crash after ~half the records have been emitted.
        let kill = Arc::new(AtomicBool::new(false));
        let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 1_000, kill.clone()));
        let crashed = run_topology(
            eo_wordcount(&log, &store, 0, plan),
            chaos_config(faults(), Some(kill), scheduling),
        )
        .unwrap();
        assert!(!crashed.clean_shutdown);

        // Run 2: fresh bolts recover their checkpoints; the spout replays
        // from its settled frontier — the oldest record whose durability is
        // not yet certain; chaos stays on.
        let offset = frontier_offset(&store, "log.frontier");
        assert!(offset < log.end_offset(0), "{scheduling:?}: crash after full stream");
        let recovered = run_topology(
            eo_wordcount(&log, &store, offset, None),
            chaos_config(faults(), None, scheduling),
        )
        .unwrap();
        assert!(recovered.clean_shutdown);
        assert_eq!(
            merged_counts(&recovered.outputs),
            truth,
            "{scheduling:?}: recovery lost or duplicated state"
        );
    }
}

/// `RestartPolicy::none()` restores the old behaviour: the very same
/// 1%-panic run that the default policy shrugs off becomes a topology
/// failure naming the component.
#[test]
fn restart_policy_none_escalates_the_first_panic() {
    for scheduling in schedulings() {
        let log = Log::new(1).unwrap();
        fill_log(&log, 2_000, 45);
        let store = CheckpointStore::new();
        let faults = FaultPlan::new(99).panic_on("wc", 0.01);

        let mut config = chaos_config(faults, None, scheduling);
        config.restart = RestartPolicy::none();
        let err = run_topology(eo_wordcount(&log, &store, 0, None), config)
            .expect_err("first panic must fail the topology");
        let msg = err.to_string();
        assert!(msg.contains("bolt 'wc'"), "error must name the component: {msg}");
        assert!(msg.contains("escalated"), "error must say what happened: {msg}");
    }
}

/// A per-component `.restart()` override beats the config default: the
/// config grants a lenient budget, but the bolt opted out. `boom` sits
/// behind a pass-through `relay`, so its panics must be supervised and
/// counted as its own under either driver, never as its upstream's.
#[test]
fn per_component_restart_override_wins() {
    for scheduling in schedulings() {
        let relay = |t: &Tuple, out: &mut OutputCollector| out.emit(t.clone());
        let mut tb = TopologyBuilder::new();
        tb.set_spout("nums", vec![vec_spout((0..50).map(|i| tuple_of([i])).collect())]);
        tb.set_bolt("relay", vec![Box::new(relay) as Box<dyn Bolt>]).shuffle("nums");
        tb.set_bolt("boom", vec![Box::new(relay) as Box<dyn Bolt>])
            .shuffle("relay")
            .restart(RestartPolicy::none());

        let config = chaos_config(FaultPlan::new(5).panic_on("boom", 1.0), None, scheduling);
        assert_eq!(config.restart.max_restarts, 10_000, "default stays lenient");
        let metrics = Metrics::new();
        let err = run_topology_with(tb, config, metrics.clone())
            .expect_err("override must escalate the first panic");
        assert!(err.to_string().contains("bolt 'boom'"), "{scheduling:?}: wrong component: {err}");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("relay.panics"), 0, "{scheduling:?}: boom's panic blamed on relay");
        assert!(snap.counter("boom.panics") > 0, "{scheduling:?}: boom's panic not counted");
    }
}

/// A spout escalation names its own component and its task index
/// within that component — not a counter over every spout task.
/// `b`'s only task is task 0, even though it is the second spout task.
#[test]
fn spout_escalation_names_the_spout_and_its_task() {
    for scheduling in schedulings() {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("a", vec![vec_spout((0..50).map(|i| tuple_of([i])).collect())]);
        tb.set_spout("b", vec![vec_spout((0..50).map(|i| tuple_of([i])).collect())])
            .restart(RestartPolicy::none());
        let sink = |_: &Tuple, _: &mut OutputCollector| {};
        tb.set_bolt("sink", vec![Box::new(sink) as Box<dyn Bolt>]).shuffle("a").shuffle("b");

        let config = chaos_config(FaultPlan::new(5).panic_on("b", 1.0), None, scheduling);
        let metrics = Metrics::new();
        let err = run_topology_with(tb, config, metrics.clone())
            .expect_err("b's first panic must escalate");
        assert!(
            err.to_string().contains("spout 'b' task 0 escalated"),
            "{scheduling:?}: wrong spout or task: {err}"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("b.panics"), 1, "{scheduling:?}");
        assert_eq!(snap.counter("a.panics"), 0, "{scheduling:?}: b's panic blamed on a");
    }
}

/// A reliable spout over a fixed set of message ids that records every
/// failure it is told of and replays the failed message.
struct RecordingSpout {
    queue: VecDeque<u64>,
    unsettled: HashSet<u64>,
    fails: Arc<Mutex<Vec<u64>>>,
}

impl RecordingSpout {
    fn new(ids: RangeInclusive<u64>, fails: Arc<Mutex<Vec<u64>>>) -> Self {
        Self { queue: ids.clone().collect(), unsettled: ids.collect(), fails }
    }
}

impl Spout for RecordingSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let id = self.queue.pop_front()?;
        let mut t = tuple_of([id as i64]);
        t.root = id; // the spout's message id
        Some(t)
    }

    fn ack(&mut self, id: u64) {
        self.unsettled.remove(&id);
    }

    fn fail(&mut self, id: u64) -> bool {
        self.fails.lock().unwrap().push(id);
        self.queue.push_back(id);
        true
    }

    fn pending(&self) -> usize {
        self.unsettled.len()
    }
}

/// Fails the first attempt of every message, except the ids in `hold`,
/// whose first attempt it holds and never releases (the tree can only
/// time out); every second attempt is acked.
struct FirstAttemptFails {
    seen: HashSet<i64>,
    hold: Vec<i64>,
}

impl Bolt for FirstAttemptFails {
    fn execute(&mut self, t: &Tuple, out: &mut OutputCollector) {
        let id = t.get(0).and_then(|v| v.as_int()).unwrap();
        if !self.seen.insert(id) {
            return;
        }
        if self.hold.contains(&id) {
            out.hold_ack();
        } else {
            out.fail();
        }
    }
}

/// Two spout tasks feed one bolt. Every explicit failure and every
/// timeout must reach the spout task that minted the root, and only it:
/// each spout is told of the failure of each of its own messages, once,
/// and replays each once, and the run shuts down cleanly.
#[test]
fn failures_and_timeouts_reach_the_spout_that_minted_the_root() {
    const N: u64 = 40;
    for scheduling in schedulings() {
        let own: [RangeInclusive<u64>; 2] = [1..=N, 1001..=1000 + N];
        let fails = [Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new()))];
        let mut tb = TopologyBuilder::new();
        tb.set_spout(
            "src",
            (0..2)
                .map(|s| {
                    Box::new(RecordingSpout::new(own[s].clone(), fails[s].clone()))
                        as Box<dyn Spout>
                })
                .collect(),
        );
        // One held-and-never-released input per spout: its tree expires.
        let judge = FirstAttemptFails { seen: Default::default(), hold: vec![7, 1007] };
        tb.set_bolt("judge", vec![Box::new(judge) as Box<dyn Bolt>]).shuffle("src");

        let config = chaos_config(FaultPlan::default(), None, scheduling);
        let result = run_topology(tb, config).unwrap();
        assert!(result.clean_shutdown, "{scheduling:?}: run did not settle");
        for s in 0..2 {
            let mut seen = fails[s].lock().unwrap().clone();
            seen.sort_unstable();
            let want: Vec<u64> = own[s].clone().collect();
            assert_eq!(seen, want, "{scheduling:?}: spout task {s} was failed other ids");
        }
        let snap = result.metrics.snapshot();
        assert_eq!(snap.replayed_roots, 2 * N, "{scheduling:?}: every message replays once");
        assert_eq!(snap.acked_roots, 2 * N, "{scheduling:?}");
    }
}
