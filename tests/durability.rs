//! Durable-storage integration: transient I/O faults are absorbed by
//! the next commit (no replay storm), and — the tentpole — a
//! topology SIGKILLed mid-stream in a *child process* restarts against
//! the same data directory and recovers counts bit-identical to an
//! uninterrupted exactly-once reference, on both schedulers and through
//! a live rescale.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use streaming_analytics::core::rng::SplitMix64;
use streaming_analytics::prelude::*;
use streaming_analytics::sketches::heavy_hitters::SpaceSaving;

const WC_TASKS: usize = 2;
/// Slot ceiling for the rescale cell.
const SLOTS: usize = 4;
/// Records per kill-harness stream.
const KILL_N: usize = 3_000;

/// A skewed word stream appended to `log`; returns the exact counts.
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

/// spout(log, frontier) → fields-grouped `SynopsisBolt` × 2. `throttle`
/// slows each update so a kill deterministically lands mid-stream.
fn wordcount_topology(
    log: &Log,
    store: &CheckpointStore,
    throttle: Option<Duration>,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    let spout = LogSpout::new(log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()])).with_frontier(
        store,
        "log.frontier",
        16,
    );
    tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
    let mut bolts: Vec<Box<dyn Bolt>> = Vec::new();
    for task in 0..WC_TASKS {
        let update = move |t: &Tuple, s: &mut SpaceSaving<String>| {
            if let Some(d) = throttle {
                thread::sleep(d);
            }
            s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
        };
        let cfg = OperatorConfig { checkpoint_every: 25, ..Default::default() };
        // k = 64 > 30 distinct words: SpaceSaving counts are exact, so
        // any lost or double-applied record is a count mismatch.
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
    for t in &outputs["wc"] {
        let mut part = SpaceSaving::<String>::new(64).unwrap();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        global.merge(&part).unwrap();
    }
    global.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect()
}

/// Fresh scratch directory under the OS temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sa-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Satellite: transient commit faults retry at the next commit, zero replays
// ---------------------------------------------------------------------

/// The replay-storm regression: seeded transient I/O faults (plus a few
/// torn appends) hit the checkpoint WAL mid-run. A failed commit keeps
/// its ids pending and its acks held, and the next commit (cadence,
/// idle, or the runtime's held-ack re-run) retries it — so the faults
/// show as `wc.commit_failures` in the snapshot and its JSON, yet no
/// root replays and the counts are exact, under both drivers.
#[test]
fn transient_commit_faults_retry_at_the_next_commit_without_replay() {
    for scheduling in [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }] {
        let log = Log::new(1).unwrap();
        let truth = fill_log(&log, 2_000, 42);

        let plan = FaultPlan::new(7)
            .storage(StorageFaults::new(0).transient_errors(0.05).torn_appends(0.02));
        assert!(!plan.is_empty(), "storage faults must count as a non-empty plan");
        let storage = plan.wrap_storage(Arc::new(MemStorage::new()));
        let store = CheckpointStore::durable(storage, "ckpt", DurableConfig::default()).unwrap();

        let result = run_topology(
            wordcount_topology(&log, &store, None),
            ExecutorConfig {
                semantics: Semantics::AtLeastOnce,
                scheduling,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.clean_shutdown, "{scheduling:?}");
        assert_eq!(merged_counts(&result.outputs), truth, "{scheduling:?}: counts drifted");

        let snap = result.metrics.snapshot();
        assert!(
            snap.counter("wc.commit_failures") > 0,
            "{scheduling:?}: fault plan never fired — the regression test tests nothing"
        );
        assert_eq!(snap.counter("wc.commit_failures"), store.failed_commits(), "{scheduling:?}");
        assert_eq!(snap.replayed_roots, 0, "{scheduling:?}: a transient fault caused a replay");
        assert!(snap.to_json().contains("\"wc.commit_failures\""), "failures missing from JSON");

        // The storage counters ride the same snapshot once exported.
        let stats = store.storage_stats().expect("durable store exposes stats");
        let (fsyncs, bytes, _torn) = stats.totals();
        assert!(fsyncs > 0 && bytes > 0, "durable run must have synced and written");
        stats.export_metrics(&result.metrics);
        let snap = result.metrics.snapshot();
        assert_eq!(snap.counter("storage.fsyncs"), fsyncs);
        assert!(snap.to_json().contains("\"storage.bytes_written\""));
    }
}

// ---------------------------------------------------------------------
// Tentpole: true process-kill recovery
// ---------------------------------------------------------------------

/// Total bytes on disk under `dir` (recursive) — the parent's progress
/// probe into the child's WAL.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn scheduling_of(mode: &str) -> Scheduling {
    match mode {
        "steal" => Scheduling::WorkStealing { workers: 2 },
        _ => Scheduling::ThreadPerTask,
    }
}

fn open_log(root: &Path) -> Log {
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(root).unwrap());
    Log::durable(storage, "log", 1, SyncPolicy::EveryN(32), 1 << 20).unwrap()
}

fn open_store(root: &Path) -> CheckpointStore {
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(root).unwrap());
    let cfg = DurableConfig { sync: SyncPolicy::EveryN(8), ..Default::default() };
    CheckpointStore::durable(storage, "ckpt", cfg).unwrap()
}

/// spout(log, frontier) → key-group-sharded counters × `SLOTS`
/// governed by `ctl` — the rescale cell's topology.
fn rescalable_topology(
    log: &Log,
    store: &CheckpointStore,
    ctl: &RescaleController,
    throttle: Option<Duration>,
) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    let spout = LogSpout::new(log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()])).with_frontier(
        store,
        "log.frontier",
        16,
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
            // Fine cadence: per-*group* pendings fill slowly, and
            // the settled frontier can only pass a record once its
            // group committed it.
            let cfg = OperatorConfig { checkpoint_every: 5, ..Default::default() };
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

/// Per-group flush snapshots merged back into one exact count table,
/// asserting the single-owner invariant.
fn merged_group_counts(outputs: &HashMap<String, Vec<Tuple>>) -> HashMap<String, u64> {
    let mut global = SpaceSaving::<String>::new(64).unwrap();
    let mut seen = HashSet::new();
    for t in &outputs["wc"] {
        let key = t.get(0).unwrap().as_str().unwrap().to_string();
        assert!(seen.insert(key.clone()), "group {key} flushed by two owners");
        let mut part = SpaceSaving::<String>::new(64).unwrap();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        global.merge(&part).unwrap();
    }
    global.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect()
}

/// The victim: runs the throttled topology against `SA_KILL9_DIR` until
/// the parent SIGKILLs it. Only ever spawned by
/// [`process_kill_recovery_is_exact`]; a bare `--ignored` invocation
/// without the env var returns immediately.
#[test]
#[ignore = "child half of the process-kill harness"]
fn kill9_child() {
    let Ok(root) = std::env::var("SA_KILL9_DIR") else { return };
    let mode = std::env::var("SA_KILL9_MODE").unwrap_or_default();
    let root = PathBuf::from(root);
    let log = open_log(&root);
    let store = open_store(&root);
    let throttle = Some(Duration::from_micros(150));
    let config = ExecutorConfig {
        semantics: Semantics::AtLeastOnce,
        scheduling: scheduling_of(&mode),
        seed: 7,
        ..Default::default()
    };
    if mode == "rescale" {
        let ctl = RescaleController::new();
        ctl.table("wc", SLOTS, 2);
        let mut config = config;
        config.rescale = Some(ctl.clone());
        let tb = rescalable_topology(&log, &store, &ctl, throttle);
        let metrics = Metrics::new();
        let run_metrics = metrics.clone();
        let marker = root.join("rescaled");
        let driver = thread::spawn(move || {
            // Resize 2 → 4 early, then advertise it to the parent so
            // the SIGKILL is guaranteed to land *after* a live rescale.
            while metrics.snapshot().counter("wc.executed") < (KILL_N as u64) / 8 {
                thread::sleep(Duration::from_micros(200));
            }
            ctl.resize("wc", 4).unwrap();
            std::fs::write(&marker, b"1").unwrap();
        });
        let _ = run_topology_with(tb, config, run_metrics);
        let _ = driver.join();
    } else {
        let _ = run_topology(wordcount_topology(&log, &store, throttle), config);
    }
}

/// Spawn `kill9_child` in `mode` against `root`, wait until its WAL
/// shows real progress (and, for the rescale cell, until the live
/// rescale is installed), then SIGKILL it mid-stream.
#[cfg(unix)]
fn spawn_and_kill9(root: &Path, mode: &str) {
    use std::os::unix::process::ExitStatusExt;
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["kill9_child", "--exact", "--ignored", "--nocapture"])
        .env("SA_KILL9_DIR", root)
        .env("SA_KILL9_MODE", mode)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let ckpt = root.join("ckpt");
    let marker = root.join("rescaled");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "{mode}: child never made durable progress");
        assert!(
            child.try_wait().unwrap().is_none(),
            "{mode}: child finished before the kill — not a mid-stream crash"
        );
        let committed = dir_bytes(&ckpt) > 8 * 1024;
        let rescaled = mode != "rescale" || marker.exists();
        if committed && rescaled {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    // A few more commits land mid-kill window; then no warning, no
    // flush, no drop handlers — SIGKILL.
    thread::sleep(Duration::from_millis(20));
    child.kill().unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.signal(), Some(9), "{mode}: child must die by SIGKILL, not exit");
}

/// The tentpole acceptance test: SIGKILL a child process mid-stream,
/// restart against the same directory, and require counts bit-identical
/// to ground truth and to an uninterrupted exactly-once reference — on
/// both schedulers and through a live 2 → 4 rescale.
#[test]
#[cfg(unix)]
fn process_kill_recovery_is_exact() {
    for mode in ["thread", "steal", "rescale"] {
        let root = scratch(&format!("kill9-{mode}"));
        let truth = fill_log(&open_log(&root), KILL_N, 42);

        // Uninterrupted exactly-once reference on its own store.
        let reference = if mode == "rescale" {
            let ctl = RescaleController::new();
            ctl.table("wc", SLOTS, 2);
            let mut config = ExecutorConfig {
                semantics: Semantics::AtLeastOnce,
                scheduling: scheduling_of(mode),
                seed: 7,
                ..Default::default()
            };
            config.rescale = Some(ctl.clone());
            let result = run_topology(
                rescalable_topology(&open_log(&root), &CheckpointStore::new(), &ctl, None),
                config,
            )
            .unwrap();
            assert!(result.clean_shutdown);
            merged_group_counts(&result.outputs)
        } else {
            let result = run_topology(
                wordcount_topology(&open_log(&root), &CheckpointStore::new(), None),
                ExecutorConfig {
                    semantics: Semantics::AtLeastOnce,
                    scheduling: scheduling_of(mode),
                    seed: 7,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(result.clean_shutdown);
            merged_counts(&result.outputs)
        };
        assert_eq!(reference, truth, "{mode}: uninterrupted reference drifted");

        spawn_and_kill9(&root, mode);

        // Recovery: a fresh process image (this one) reopens the same
        // directory. The store truncates any torn WAL tail, replays
        // onto the newest snapshot, and the spout resumes from the
        // durable frontier.
        let log = open_log(&root);
        assert_eq!(log.end_offset(0), KILL_N as u64, "{mode}: durable log lost records");
        let store = open_store(&root);
        assert!(!store.is_empty(), "{mode}: kill landed before any durable commit");
        let offset = frontier_offset(&store, "log.frontier");
        if mode != "rescale" {
            // Per-group pendings can legitimately pin the rescale cell's
            // frontier at 0; the plain cells must have advanced it.
            assert!(offset > 0, "{mode}: kill landed before the first durable frontier");
        }
        assert!(offset < KILL_N as u64, "{mode}: kill landed after the stream completed");

        let recovered = if mode == "rescale" {
            // Recover at active = 1: every durable group must surface
            // from the store regardless of which task owned it when the
            // child died mid-rescale.
            let ctl = RescaleController::new();
            ctl.table("wc", SLOTS, 1);
            let mut config = ExecutorConfig {
                semantics: Semantics::AtLeastOnce,
                scheduling: scheduling_of(mode),
                seed: 7,
                ..Default::default()
            };
            config.rescale = Some(ctl.clone());
            let result =
                run_topology(rescalable_topology(&log, &store, &ctl, None), config).unwrap();
            assert!(result.clean_shutdown);
            merged_group_counts(&result.outputs)
        } else {
            let result = run_topology(
                wordcount_topology(&log, &store, None),
                ExecutorConfig {
                    semantics: Semantics::AtLeastOnce,
                    scheduling: scheduling_of(mode),
                    seed: 7,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(result.clean_shutdown);
            merged_counts(&result.outputs)
        };
        assert_eq!(recovered, truth, "{mode}: kill-9 recovery lost or duplicated records");
        assert_eq!(recovered, reference, "{mode}: recovery diverged from the reference");
        let _ = std::fs::remove_dir_all(&root);
    }
}
