//! Crash/recovery integration: a topology is killed mid-stream, then
//! restarted from its checkpoints plus a log replay from the spout's
//! settled frontier, and must produce exactly the answer of an
//! uninterrupted run — the MillWheel + Samza exactly-once story, end to
//! end through the operator layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use streaming_analytics::core::rng::SplitMix64;
use streaming_analytics::core::traits::CardinalityEstimator;
use streaming_analytics::prelude::*;
use streaming_analytics::sketches::cardinality::HyperLogLog;
use streaming_analytics::sketches::heavy_hitters::SpaceSaving;

const WC_TASKS: usize = 2;
/// Key of the spout's persisted settled frontier, the offset every
/// restart below replays from.
const FRONTIER: &str = "log.frontier";

/// A skewed word stream appended to a 1-partition log; returns the
/// exact counts.
fn fill_log(log: &Log, n: usize, seed: u64) -> HashMap<String, u64> {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<String, u64> = HashMap::new();
    for _ in 0..n {
        // min of two uniform draws skews toward low indices.
        let i = rng.next_below(30).min(rng.next_below(30));
        let word = format!("w{i:02}");
        *truth.entry(word.clone()).or_default() += 1;
        log.append(&word, Vec::new());
    }
    truth
}

/// When set, flips `kill` after the given number of spout emissions,
/// so the crash lands mid-stream regardless of how fast the spout
/// outruns the bolts.
type KillPlan = Option<(Arc<AtomicU64>, u64, Arc<AtomicBool>)>;

/// Record decoder that also executes the kill plan.
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

/// The crash tests' source: a `LogSpout` persisting its settled
/// frontier every 32 settles.
fn log_spout(
    log: &Log,
    store: &CheckpointStore,
    from_offset: u64,
    kill_plan: KillPlan,
) -> Box<dyn Spout> {
    let spout = LogSpout::new(log, 0, from_offset, 0, killing_decoder(kill_plan));
    Box::new(spout.with_frontier(store, FRONTIER, 32))
}

/// spout(log) → fields-grouped `SynopsisBolt<SpaceSaving<String>>` × 2.
/// The bolt component is terminal, so its flush snapshots land in
/// `outputs["wc"]`.
fn wordcount_topology(
    log: &Log,
    store: &CheckpointStore,
    from_offset: u64,
    kill_plan: KillPlan,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    tb.set_spout("log", vec![log_spout(log, store, from_offset, kill_plan)]);
    let mut bolts: Vec<Box<dyn Bolt>> = Vec::new();
    for task in 0..WC_TASKS {
        let update = |t: &Tuple, s: &mut SpaceSaving<String>| {
            s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
        };
        let cfg = OperatorConfig { checkpoint_every: 50, ..Default::default() };
        // k = 64 > 30 distinct words, so SpaceSaving counts are exact and
        // any lost or double-applied record shows up as a count mismatch.
        let bolt = SynopsisBolt::with_config(
            &format!("wc/{task}"),
            store,
            SpaceSaving::new(64).unwrap(),
            update,
            cfg,
        )
        .unwrap();
        bolts.push(Box::new(bolt));
    }
    tb.set_bolt("wc", bolts).fields("log", vec![0]);
    tb
}

/// Merge the per-task flush snapshots back into one exact count table.
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

/// Recovery must be scheduler-independent: checkpoints + log replay
/// give the same answer whether tasks own threads or share a pool.
fn schedulings() -> [Scheduling; 2] {
    [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }]
}

fn config(
    semantics: Semantics,
    kill: Option<Arc<AtomicBool>>,
    scheduling: Scheduling,
) -> ExecutorConfig {
    let faults = match kill {
        Some(kill) => FaultPlan::default().kill_switch(kill),
        None => FaultPlan::default(),
    };
    ExecutorConfig { scheduling, semantics, faults, seed: 7, ..Default::default() }
}

#[test]
fn wordcount_survives_crash_exactly_once() {
    for scheduling in schedulings() {
        for semantics in [Semantics::AtLeastOnce, Semantics::AtMostOnce] {
            wordcount_crash_case(scheduling, semantics);
        }
    }
}

fn wordcount_crash_case(scheduling: Scheduling, semantics: Semantics) {
    {
        let log = Log::new(1).unwrap();
        let truth = fill_log(&log, 2_000, 42);

        // Reference: an uninterrupted run on its own store.
        let clean_store = CheckpointStore::new();
        let clean = run_topology(
            wordcount_topology(&log, &clean_store, 0, None),
            config(semantics, None, scheduling),
        )
        .unwrap();
        assert!(clean.clean_shutdown);
        assert_eq!(merged_counts(&clean.outputs), truth, "{semantics:?}: clean run wrong");

        // Run 1: crash after ~half the records have been applied.
        let store = CheckpointStore::new();
        let kill = Arc::new(AtomicBool::new(false));
        let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 1_000, kill.clone()));
        let crashed = run_topology(
            wordcount_topology(&log, &store, 0, plan),
            config(semantics, Some(kill), scheduling),
        )
        .unwrap();
        assert!(!crashed.clean_shutdown, "{semantics:?}: kill switch must mark unclean");

        // Run 2: fresh bolts recover their checkpoints; the spout
        // replays the log from its settled frontier (always 0 under
        // at-most-once, where nothing is acked).
        let offset = frontier_offset(&store, FRONTIER);
        let applied: Vec<u64> = (0..WC_TASKS)
            .filter_map(|t| store.get(&format!("wc/{t}")))
            .map(|(_, value)| decode_checkpoint(&value).unwrap().0)
            .collect();
        assert!(!applied.is_empty(), "{semantics:?}: crash landed before the first checkpoint");
        assert!(offset < log.end_offset(0), "{semantics:?}: crash after full stream");
        // The frontier never passes a durable checkpoint; every task
        // whose checkpoint runs ahead of it must deduplicate the overlap
        // for the final counts to come out exact.
        let max_applied = applied.into_iter().max().unwrap();
        assert!(max_applied >= offset, "{semantics:?}: frontier passed every checkpoint");
        let recovered = run_topology(
            wordcount_topology(&log, &store, offset, None),
            config(semantics, None, scheduling),
        )
        .unwrap();
        assert!(recovered.clean_shutdown);
        assert_eq!(
            merged_counts(&recovered.outputs),
            truth,
            "{semantics:?}: recovered counts differ from ground truth"
        );
    }
}

/// The same crash/recover/dedup story, but durable: the log and the
/// checkpoints both live on a real filesystem ([`DiskStorage`] in a
/// scratch dir), the "crash" discards every in-memory handle, and
/// recovery must come entirely from the WAL segments and snapshots on
/// disk — under both schedulers.
#[test]
fn wordcount_survives_crash_on_disk_storage() {
    for (cell, scheduling) in schedulings().into_iter().enumerate() {
        let root = std::env::temp_dir()
            .join(format!("sa-recovery-disk-{}-cell{cell}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(&root).unwrap());
        let open_log = || Log::durable(storage.clone(), "log", 1, SyncPolicy::EveryN(64), 1 << 20);
        let open_store =
            || CheckpointStore::durable(storage.clone(), "ckpt", DurableConfig::default());

        let truth = {
            let log = open_log().unwrap();
            let truth = fill_log(&log, 2_000, 42);
            let store = open_store().unwrap();
            let kill = Arc::new(AtomicBool::new(false));
            let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 1_000, kill.clone()));
            let crashed = run_topology(
                wordcount_topology(&log, &store, 0, plan),
                config(Semantics::AtLeastOnce, Some(kill), scheduling),
            )
            .unwrap();
            assert!(!crashed.clean_shutdown, "{scheduling:?}: kill switch must mark unclean");
            truth
            // Every handle drops here: nothing in memory survives.
        };

        // Recovery: reopen log and store purely from the files on disk.
        let log = open_log().unwrap();
        assert_eq!(log.end_offset(0), 2_000, "durable log must replay every record");
        let store = open_store().unwrap();
        let offset = frontier_offset(&store, FRONTIER);
        let checkpointed = (0..WC_TASKS).any(|t| store.get(&format!("wc/{t}")).is_some());
        assert!(checkpointed, "{scheduling:?}: crash landed before the first checkpoint");
        assert!(offset < log.end_offset(0), "{scheduling:?}: crash after full stream");
        let recovered = run_topology(
            wordcount_topology(&log, &store, offset, None),
            config(Semantics::AtLeastOnce, None, scheduling),
        )
        .unwrap();
        assert!(recovered.clean_shutdown);
        assert_eq!(
            merged_counts(&recovered.outputs),
            truth,
            "{scheduling:?}: disk-recovered counts differ from ground truth"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A skewed word stream with event-time stamps in `[0, 1000)` appended
/// via [`Log::append_at`]; returns exact per-(word, tumbling-window)
/// counts.
fn fill_log_at(log: &Log, n: usize, seed: u64, size: u64) -> HashMap<(String, u64), u64> {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<(String, u64), u64> = HashMap::new();
    for _ in 0..n {
        let i = rng.next_below(30).min(rng.next_below(30));
        let word = format!("w{i:02}");
        let et = rng.next_below(1_000);
        *truth.entry((word.clone(), et - et % size)).or_default() += 1;
        log.append_at(&word, Vec::new(), et);
    }
    truth
}

/// spout(log) → fields-grouped `WindowBolt<SpaceSaving<String>>` × 2,
/// counting each word per tumbling window.
fn windowed_topology(
    log: &Log,
    store: &CheckpointStore,
    from_offset: u64,
    kill_plan: KillPlan,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    tb.set_spout("log", vec![log_spout(log, store, from_offset, kill_plan)]);
    let mut bolts: Vec<Box<dyn Bolt>> = Vec::new();
    for task in 0..WC_TASKS {
        let update = |t: &Tuple, s: &mut SpaceSaving<String>| {
            s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
        };
        let cfg = WindowConfig {
            checkpoint: OperatorConfig { checkpoint_every: 50, ..Default::default() },
            ..WindowConfig::new(WindowSpec::Tumbling { size: 100 }, vec![0])
        };
        let bolt = WindowBolt::new(
            &format!("win/{task}"),
            store,
            SpaceSaving::new(64).unwrap(),
            cfg,
            update,
        )
        .unwrap();
        bolts.push(Box::new(bolt));
    }
    tb.set_bolt("win", bolts).fields("log", vec![0]);
    tb
}

/// Collect `[key, start, end, snapshot]` window emissions, asserting
/// each `(key, window)` fired exactly once.
fn window_results(outputs: &HashMap<String, Vec<Tuple>>) -> BTreeMap<(String, u64, u64), Vec<u8>> {
    let mut m = BTreeMap::new();
    for t in &outputs["win"] {
        let key = t.get(0).unwrap().as_str().unwrap().to_string();
        let start = t.get(1).unwrap().as_int().unwrap() as u64;
        let end = t.get(2).unwrap().as_int().unwrap() as u64;
        let snap = t.get(3).unwrap().as_bytes().unwrap().to_vec();
        assert!(m.insert((key, start, end), snap).is_none(), "window emitted twice");
    }
    m
}

#[test]
fn windowed_aggregation_identical_after_crash_recovery() {
    const SIZE: u64 = 100;
    let log = Log::new(1).unwrap();
    let truth = fill_log_at(&log, 2_000, 4242, SIZE);

    // Reference: an uninterrupted thread-per-task run on its own store.
    // Every scheduler's recovered run below must reproduce it bit for
    // bit — window results are a scheduler-independent function of the
    // log.
    let clean_store = CheckpointStore::new();
    let clean = run_topology(
        windowed_topology(&log, &clean_store, 0, None),
        config(Semantics::AtLeastOnce, None, Scheduling::ThreadPerTask),
    )
    .unwrap();
    assert!(clean.clean_shutdown);
    let clean_windows = window_results(&clean.outputs);
    // The clean run's per-window counts are exact (k = 64 > 30 words).
    let mut from_windows: HashMap<(String, u64), u64> = HashMap::new();
    for ((key, start, end), snap) in &clean_windows {
        assert_eq!(end - start, SIZE);
        let mut s = SpaceSaving::<String>::new(64).unwrap();
        s.restore(snap).unwrap();
        let count = s.heavy_hitters(0.0).into_iter().find(|h| h.item == *key).unwrap().count;
        from_windows.insert((key.clone(), *start), count);
    }
    assert_eq!(from_windows, truth, "clean windowed counts wrong");

    for scheduling in schedulings() {
        // Run 1: crash after ~half the records have been emitted.
        let store = CheckpointStore::new();
        let kill = Arc::new(AtomicBool::new(false));
        let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 1_000, kill.clone()));
        let crashed = run_topology(
            windowed_topology(&log, &store, 0, plan),
            config(Semantics::AtLeastOnce, Some(kill), scheduling),
        )
        .unwrap();
        assert!(!crashed.clean_shutdown);

        // Run 2: fresh window bolts recover every live window, session,
        // and dedup id; the spout replays the log from its settled
        // frontier, and replayed tuples carry their original event-time
        // stamps — so they re-enter exactly the windows they were in.
        let offset = frontier_offset(&store, FRONTIER);
        let checkpointed = (0..WC_TASKS).any(|t| store.get(&format!("win/{t}")).is_some());
        assert!(checkpointed, "{scheduling:?}: crash landed before the first checkpoint");
        assert!(offset < log.end_offset(0), "{scheduling:?}: crash after full stream");
        let recovered = run_topology(
            windowed_topology(&log, &store, offset, None),
            config(Semantics::AtLeastOnce, None, scheduling),
        )
        .unwrap();
        assert!(recovered.clean_shutdown);
        // Bit-identical window results, not just equal counts — and
        // identical across schedulers, since the reference run used
        // thread-per-task.
        assert_eq!(window_results(&recovered.outputs), clean_windows, "{scheduling:?}");
    }
}

#[test]
fn hyperloglog_estimate_identical_after_crash_recovery() {
    let log = Log::new(1).unwrap();
    let mut rng = SplitMix64::new(9);
    let mut direct = HyperLogLog::new(12).unwrap();
    for _ in 0..5_000 {
        let user = format!("user-{}", rng.next_below(3_000));
        direct.insert(&user);
        log.append(&user, Vec::new());
    }

    let hll_topology = |store: &CheckpointStore, from_offset: u64, kill_plan: KillPlan| {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("log", vec![log_spout(&log, store, from_offset, kill_plan)]);
        let update = |t: &Tuple, s: &mut HyperLogLog| s.insert(t.get(0).unwrap().as_str().unwrap());
        let cfg = OperatorConfig { checkpoint_every: 100, ..Default::default() };
        let bolt =
            SynopsisBolt::with_config("hll/0", store, HyperLogLog::new(12).unwrap(), update, cfg)
                .unwrap();
        tb.set_bolt("hll", vec![Box::new(bolt) as Box<dyn Bolt>]).global("log");
        tb
    };

    for scheduling in schedulings() {
        let store = CheckpointStore::new();
        let kill = Arc::new(AtomicBool::new(false));
        let plan: KillPlan = Some((Arc::new(AtomicU64::new(0)), 2_500, kill.clone()));
        let crashed = run_topology(
            hll_topology(&store, 0, plan),
            config(Semantics::AtLeastOnce, Some(kill), scheduling),
        )
        .unwrap();
        assert!(!crashed.clean_shutdown);

        let offset = frontier_offset(&store, FRONTIER);
        assert!(store.get("hll/0").is_some() && offset < log.end_offset(0));
        let recovered = run_topology(
            hll_topology(&store, offset, None),
            config(Semantics::AtLeastOnce, None, scheduling),
        )
        .unwrap();
        assert!(recovered.clean_shutdown);
        let mut restored = HyperLogLog::new(12).unwrap();
        restored.restore(recovered.outputs["hll"][0].get(1).unwrap().as_bytes().unwrap()).unwrap();
        // Register-identical recovery: the estimate matches an
        // uninterrupted in-process run bit for bit, not just within the
        // error bound.
        assert_eq!(restored.estimate(), direct.estimate(), "{scheduling:?}");
    }
}

#[test]
fn merge_bolt_global_view_matches_single_instance() {
    let mut tuples = Vec::new();
    let mut direct = HyperLogLog::new(10).unwrap();
    let mut rng = SplitMix64::new(77);
    for _ in 0..3_000 {
        let user = format!("user-{}", rng.next_below(800));
        direct.insert(&user);
        tuples.push(tuple_of([user.as_str()]));
    }

    let store = CheckpointStore::new();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("users", vec![vec_spout(tuples)]);
    let mut bolts: Vec<Box<dyn Bolt>> = Vec::new();
    for task in 0..4 {
        let update = |t: &Tuple, s: &mut HyperLogLog| s.insert(t.get(0).unwrap().as_str().unwrap());
        let bolt = SynopsisBolt::new(
            &format!("part/{task}"),
            &store,
            HyperLogLog::new(10).unwrap(),
            update,
        )
        .unwrap();
        bolts.push(Box::new(bolt));
    }
    tb.set_bolt("partials", bolts).fields("users", vec![0]);
    tb.set_bolt(
        "global",
        vec![Box::new(MergeBolt::new("site", HyperLogLog::new(10).unwrap())) as Box<dyn Bolt>],
    )
    .global("partials");

    let result = run_topology(
        tb,
        config(Semantics::AtLeastOnce, None, Scheduling::WorkStealing { workers: 2 }),
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let out = &result.outputs["global"][0];
    assert_eq!(out.get(0).unwrap().as_str(), Some("site"));
    let mut merged = HyperLogLog::new(10).unwrap();
    merged.restore(out.get(1).unwrap().as_bytes().unwrap()).unwrap();
    // Each user routes to exactly one partition and HLL merge is the
    // register-wise max, so partition-and-merge is *exactly* the
    // single-instance sketch — same registers, same estimate.
    assert_eq!(merged.estimate(), direct.estimate());
}

/// Regression (benchmark finding 1): a replay under *shuffle* grouping
/// must return to the task that applied the first attempt. An unkeyed
/// query's tasks dedup by lineage, each against its own tokens; a
/// restarted `LogSpout` re-emits everything after its committed
/// frontier, and a round-robin pick — whose counter restarts at zero —
/// handed half of those records to the sibling task, which counted them
/// a second time. Whether the old counter happened to line up depended
/// on the parity of the restart offset, so the restart is tried from
/// the frontier and from one record before it: both are legal replays,
/// and one of them always misaligned the counter.
#[test]
fn shuffled_replay_after_restart_is_applied_once() {
    use streaming_analytics::sketches::frequency::CountMinSketch;
    let template = || CountMinSketch::new(256, 4).unwrap();

    // 2 050 records: not a multiple of the frontier cadence (100), so
    // even a run that finishes leaves a tail beyond the last persisted
    // frontier for the restart to replay.
    let log = Log::new(1).unwrap();
    let mut sequential = template();
    let mut rng = SplitMix64::new(5);
    for _ in 0..2_050 {
        let word = format!("w{:02}", rng.next_below(30).min(rng.next_below(30)));
        sequential.add(&word, 1);
        log.append(&word, Vec::new());
    }

    let compile = |store: &CheckpointStore, from: u64, kill: Option<Arc<AtomicBool>>| {
        // The crash lands once half the stream has *settled* (the
        // persisted frontier says so), not merely been emitted.
        let watch = store.clone();
        let decode = move |r: &Record| {
            if let Some(kill) = &kill {
                if frontier_offset(&watch, FRONTIER) >= 1_000 {
                    kill.store(true, Ordering::SeqCst);
                }
            }
            tuple_of([r.key.as_str()])
        };
        let spout = LogSpout::new(&log, 0, from, 0, decode).with_frontier(store, FRONTIER, 100);
        Query::from("events")
            .parallelism(2)
            .checkpoint_every(64)
            .checkpoint(store)
            .aggregate(template(), |t: &Tuple, s: &mut CountMinSketch| {
                s.add(t.get(0).unwrap().as_str().unwrap(), 1)
            })
            .serve("sketch")
            .compile(vec![Box::new(spout) as Box<dyn Spout>])
            .unwrap()
    };

    for scheduling in schedulings() {
        for back in [0, 1] {
            let store = CheckpointStore::new();
            let kill = Arc::new(AtomicBool::new(false));
            compile(&store, 0, Some(kill.clone()))
                .run(config(Semantics::AtLeastOnce, Some(kill), scheduling))
                .unwrap();

            // (Had the spout outrun the kill, the run finished and the
            // frontier is wherever its last cadence hit found it; either
            // way a tail is left to replay.)
            let from = frontier_offset(&store, FRONTIER);
            assert!(from < log.end_offset(0), "{scheduling:?}: nothing left to replay");
            let restarted = compile(&store, from.saturating_sub(back), None);
            let view = restarted.view();
            let run = restarted.run(config(Semantics::AtLeastOnce, None, scheduling)).unwrap();
            assert!(run.clean_shutdown);
            assert_eq!(
                view.global().expect("view published").value.snapshot(),
                sequential.snapshot(),
                "{scheduling:?}, restart {back} before the frontier: merged CountMin differs"
            );
        }
    }
}
