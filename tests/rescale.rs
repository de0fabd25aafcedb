//! Live-rescaling integration: key-group routing stays stable across
//! parallelism changes, a topology rescaled mid-run (up *and* down)
//! under chaos still lands on exactly-once counts bit-identical to an
//! unrescaled reference, and the `Query` front door wires the same
//! machinery through `Parallelism::Auto`.

use std::collections::{HashMap, HashSet};
use std::thread;
use std::time::{Duration, Instant};
use streaming_analytics::core::rng::SplitMix64;
use streaming_analytics::prelude::*;
use streaming_analytics::sketches::heavy_hitters::SpaceSaving;

/// Slot count every rescale topology compiles with (the ceiling).
const SLOTS: usize = 4;

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

fn lenient() -> RestartPolicy {
    RestartPolicy::default()
        .base(Duration::from_micros(10))
        .cap(Duration::from_micros(200))
        .budget(10_000, Duration::from_secs(60))
}

/// Rescaling must hold under both runtimes: the quiesce broadcast wakes
/// parked work-stealing slots exactly as it wakes dedicated threads.
fn schedulings() -> [Scheduling; 2] {
    [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }]
}

fn chaos_config(faults: FaultPlan, scheduling: Scheduling) -> ExecutorConfig {
    ExecutorConfig {
        scheduling,
        semantics: Semantics::AtLeastOnce,
        ack_timeout: Duration::from_millis(200),
        shutdown_timeout: Duration::from_secs(30),
        seed: 11,
        restart: lenient(),
        faults,
        ..Default::default()
    }
}

/// spout(log) → fields-grouped key-group-sharded word counters ×
/// `SLOTS`, governed by `ctl`'s shard table for component `"wc"`.
/// `throttle` slows each update so a driver polling at microsecond
/// granularity can deterministically land a resize mid-stream.
fn rescalable_wordcount(
    log: &Log,
    store: &CheckpointStore,
    ctl: &RescaleController,
    throttle: Option<Duration>,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    let spout = LogSpout::new(log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()])).with_frontier(
        store,
        "log.frontier",
        32,
    );
    tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
    let table = ctl.table_of("wc").expect("table registered before building");
    let mut builders: Vec<BoltBuilder> = Vec::new();
    for task in 0..SLOTS {
        let store = store.clone();
        let table = table.clone();
        builders.push(Box::new(move || {
            let update = move |t: &Tuple, s: &mut SpaceSaving<String>| {
                if let Some(d) = throttle {
                    thread::sleep(d);
                }
                s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
            };
            let cfg = OperatorConfig { checkpoint_every: 25, ..Default::default() };
            let bolt = SynopsisBolt::with_config(
                "wc",
                &store,
                SpaceSaving::new(64).unwrap(),
                update,
                cfg,
            )?
            .sharded(table.shard(task, vec![0]))?;
            Ok(Box::new(bolt) as Box<dyn Bolt>)
        }));
    }
    tb.set_bolt("wc", builders).fields("log", vec![0]);
    tb
}

/// Merge the per-group flush snapshots back into one exact count table
/// (k = 64 > 30 distinct words, so SpaceSaving is exact here). Asserts
/// each key-group was flushed by exactly one task — the single-owner
/// invariant a botched migration would break first.
fn merged_group_counts(outputs: &HashMap<String, Vec<Tuple>>) -> HashMap<String, u64> {
    let mut global = SpaceSaving::<String>::new(64).unwrap();
    let mut seen = HashSet::new();
    for t in &outputs["wc"] {
        let key = t.get(0).unwrap().as_str().unwrap().to_string();
        assert!(key.starts_with("wc@g"), "group state key, got {key}");
        assert!(seen.insert(key.clone()), "group {key} flushed by two owners");
        let mut part = SpaceSaving::<String>::new(64).unwrap();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        global.merge(&part).unwrap();
    }
    global.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect()
}

/// The routing contract every rescale relies on: a key's group never
/// changes, a group maps to exactly one task at every parallelism, the
/// per-task ranges are contiguous and cover every active task, and the
/// static `Fields` path (a full-width `ShardTable`) agrees with the
/// pure ring functions.
#[test]
fn key_group_routing_is_stable_and_contiguous() {
    let tuples: Vec<Tuple> = (0..100).map(|i| tuple_of([format!("w{i:02}").as_str()])).collect();
    // Stability: the group is a pure function of the key fields.
    for t in &tuples {
        assert_eq!(key_group(t, &[0]), key_group(t, &[0]));
        assert!(key_group(t, &[0]) < KEY_GROUPS);
    }
    // Same key, different trailing fields: same group.
    let a = tuple_of(["w07", "x"]);
    let b = tuple_of(["w07", "y"]);
    assert_eq!(key_group(&a, &[0]), key_group(&b, &[0]));

    for active in 1..=8 {
        let mut covered = vec![0u64; active];
        let mut prev = 0;
        for g in 0..KEY_GROUPS {
            let task = task_of_group(g, active);
            assert!(task < active, "group {g} routed past active={active}");
            assert!(task >= prev, "ranges must be contiguous (group {g}, active={active})");
            prev = task;
            covered[task] += 1;
        }
        assert!(covered.iter().all(|&c| c > 0), "active={active}: an active task owns no groups");
        // The static Fields path and the table agree at full width.
        let table = ShardTable::new(active, active);
        for g in 0..KEY_GROUPS {
            assert_eq!(table.task_of(g), task_of_group(g, active));
            assert!(table.owns(g, task_of_group(g, active)));
        }
    }
    // Scaling never splits a group: whole groups move, keys don't
    // migrate between groups.
    for t in &tuples {
        let g = key_group(t, &[0]);
        for active in 1..=8 {
            assert_eq!(task_of_group(g, active), task_of_group(g, active), "routing is pure");
        }
    }
}

/// The tentpole guarantee: a topology rescaled mid-run — scaled up 2→4
/// under load, then drained 4→1 — with 1% injected panics and 1% link
/// drops produces counts bit-identical to the ground truth and to an
/// unrescaled exactly-once reference, on both schedulers.
#[test]
fn exactly_once_exact_through_live_scale_up_and_down_under_chaos() {
    const N: usize = 6_000;
    for scheduling in schedulings() {
        let log = Log::new(1).unwrap();
        let truth = fill_log(&log, N, 46);

        // Reference: same chaos, no rescale (fixed active = 2).
        let ref_store = CheckpointStore::new();
        let ref_ctl = RescaleController::new();
        ref_ctl.table("wc", SLOTS, 2);
        let mut config =
            chaos_config(FaultPlan::new(99).panic_on("wc", 0.01).drop_on("log", 0.01), scheduling);
        config.rescale = Some(ref_ctl.clone());
        let reference =
            run_topology(rescalable_wordcount(&log, &ref_store, &ref_ctl, None), config).unwrap();
        assert!(reference.clean_shutdown);
        let reference_counts = merged_group_counts(&reference.outputs);
        assert_eq!(reference_counts, truth, "{scheduling:?}: unrescaled reference drifted");

        // Rescaled run: same log, fresh state, resizes fired from a
        // driver thread watching live progress.
        let store = CheckpointStore::new();
        let ctl = RescaleController::new();
        ctl.table("wc", SLOTS, 2);
        let mut config =
            chaos_config(FaultPlan::new(99).panic_on("wc", 0.01).drop_on("log", 0.01), scheduling);
        config.rescale = Some(ctl.clone());
        let tb = rescalable_wordcount(&log, &store, &ctl, None);
        let metrics = Metrics::new();
        let run_metrics = metrics.clone();
        let runner = thread::spawn(move || run_topology_with(tb, config, run_metrics));

        // Drive the resizes off the per-tuple `wc.executed` counter:
        // unlike acked roots (released in bursts when a commit frees a
        // whole held ledger), it advances tuple by tuple, so a
        // threshold at N/3 guarantees ≥ 2N/3 tuples are still
        // unprocessed — shutdown (and flush) cannot race the install.
        let deadline = Instant::now() + Duration::from_secs(120);
        let (mut scaled_up, mut scaled_down) = (false, false);
        while !(scaled_up && scaled_down) {
            assert!(Instant::now() < deadline, "{scheduling:?}: driver timed out");
            let executed = metrics.snapshot().counter("wc.executed");
            if !scaled_up && executed >= (N as u64) / 3 {
                assert_eq!(ctl.resize("wc", 4).unwrap(), 4, "{scheduling:?}: scale-up");
                scaled_up = true;
            }
            if scaled_up && !scaled_down && executed >= 2 * (N as u64) / 3 {
                assert_eq!(ctl.resize("wc", 1).unwrap(), 1, "{scheduling:?}: scale-down");
                scaled_down = true;
            }
            thread::sleep(Duration::from_micros(100));
        }
        let result = runner.join().unwrap().unwrap();
        assert!(result.clean_shutdown);

        let table = ctl.table_of("wc").unwrap();
        assert_eq!(table.active(), 1, "{scheduling:?}: final assignment");
        assert_eq!(table.rescales(), 2, "{scheduling:?}: both resizes installed");
        assert!(table.migrated_groups() > 0, "{scheduling:?}: no groups moved");

        let counts = merged_group_counts(&result.outputs);
        assert_eq!(counts, truth, "{scheduling:?}: rescale perturbed the exact counts");
        assert_eq!(counts, reference_counts, "{scheduling:?}: diverged from the reference");

        let snap = result.metrics.snapshot();
        assert!(snap.task_panics > 0, "{scheduling:?}: chaos plan never fired");
        assert_eq!(snap.escalations, 0);
        assert_eq!(snap.gauge("rescale.wc.active"), Some(1), "{scheduling:?}: gauge tracks active");
    }
}

/// Scale-down merges state correctly even for migrated groups the
/// surviving task never sees traffic for: most of the skewed stream is
/// consumed at active = 2, then the component drains to 1 near the
/// tail — the rare words' groups get no post-rescale input, yet every
/// group must surface exactly once from task 0's store probe at flush.
/// (The resize fires while roots are still in flight: shutdown cannot
/// begin before the install, keeping the drain race-free.)
#[test]
fn scale_down_flushes_migrated_groups_that_saw_no_traffic() {
    let log = Log::new(1).unwrap();
    let truth = fill_log(&log, 1_500, 47);
    let store = CheckpointStore::new();
    let ctl = RescaleController::new();
    ctl.table("wc", SLOTS, 2);
    let mut config = chaos_config(FaultPlan::default(), Scheduling::ThreadPerTask);
    config.rescale = Some(ctl.clone());
    let tb = rescalable_wordcount(&log, &store, &ctl, Some(Duration::from_micros(10)));
    let metrics = Metrics::new();
    let run_metrics = metrics.clone();
    let runner = thread::spawn(move || run_topology_with(tb, config, run_metrics));
    // Wait until most of the stream has been *processed* (the per-tuple
    // executed counter, not acked roots — acks release in bursts when a
    // commit frees a held ledger and could jump straight past the
    // threshold to completion, racing the resize against shutdown).
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.snapshot().counter("wc.executed") < 1_200 {
        assert!(Instant::now() < deadline, "stream never progressed");
        thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(ctl.resize("wc", 1).unwrap(), 1);
    let result = runner.join().unwrap().unwrap();
    assert!(result.clean_shutdown);
    assert_eq!(merged_group_counts(&result.outputs), truth, "silent groups lost in migration");
}

/// The `Query` front door: `Parallelism::Auto` compiles a rescalable
/// plan (controller + autoscaler exposed, key_by required), `Fixed`
/// refuses an autoscaler, and the compiled plan still answers exactly.
#[test]
fn query_auto_parallelism_compiles_and_answers_exactly() {
    let count_update = |t: &Tuple, s: &mut SpaceSaving<String>| {
        s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
    };

    // Auto without a key is a compile-time error: there is no group to
    // shard by.
    let err = Query::from("words")
        .parallelism(Parallelism::Auto { min: 1, max: 4 })
        .aggregate(SpaceSaving::<String>::new(16).unwrap(), count_update)
        .serve("bad")
        .compile(vec![vec_spout(vec![])])
        .expect_err("Auto without key_by must not compile");
    assert!(err.to_string().contains("key_by"), "unhelpful error: {err}");

    // Fixed plans have no controller and refuse an autoscaler.
    let fixed = Query::from("words")
        .key_by(vec![0])
        .parallelism(2)
        .aggregate(SpaceSaving::<String>::new(16).unwrap(), count_update)
        .serve("fixed")
        .compile(vec![vec_spout(vec![tuple_of(["a"])])])
        .unwrap();
    assert!(fixed.controller().is_none());
    assert!(fixed.autoscaler(AutoPolicy::default()).is_err());

    // Auto: controller present, autoscaler bounded by the plan, and a
    // run with a pre-run resize (1 → 3 active) stays exact.
    let words: Vec<&str> = ["a", "a", "b", "c", "a", "b", "d", "e", "a", "c"].to_vec();
    let tuples: Vec<Tuple> = words.iter().map(|w| tuple_of([*w])).collect();
    let compiled = Query::from("words")
        .key_by(vec![0])
        .parallelism(Parallelism::Auto { min: 1, max: SLOTS })
        .checkpoint_every(2)
        .aggregate(SpaceSaving::<String>::new(16).unwrap(), count_update)
        .serve("auto")
        .compile(vec![vec_spout(tuples)])
        .unwrap();
    let ctl = compiled.controller().expect("Auto plan exposes its controller");
    assert_eq!(ctl.active(compiled.agg_component()), Some(1), "starts at min");
    let scaler = compiled.autoscaler(AutoPolicy::default()).unwrap();
    assert_eq!(scaler.active(), 1);
    assert_eq!(ctl.resize(compiled.agg_component(), 3).unwrap(), 3, "offline resize installs");

    let view = compiled.view();
    let result =
        compiled.run(ExecutorConfig { semantics: Semantics::AtLeastOnce, ..Default::default() });
    assert!(result.unwrap().clean_shutdown);
    let served = view.global().expect("view published");
    assert_eq!(served.value.estimate(&"a".to_string()), 4);
    assert_eq!(served.value.estimate(&"b".to_string()), 2);
    assert_eq!(served.value.estimate(&"e".to_string()), 1);
}
