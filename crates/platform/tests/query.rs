//! Merge correctness under chaos: whatever the path to the serving
//! layer — a compiled continuous query surviving injected panics and
//! link drops, or a Lambda deployment with ingest, batch retirement,
//! and readers racing on separate threads — the served answer must
//! equal a clean replay of the immutable master dataset.

use sa_core::rng::SplitMix64;
use sa_core::Synopsis;
use sa_platform::{
    tumbling, tuple_of, vec_spout, CheckpointStore, ExecutorConfig, FaultPlan, Layer, Log,
    LogSpout, Parallelism, Query, Record, RestartPolicy, Scheduling, Semantics, Spout, Tuple,
};
use sa_sketches::heavy_hitters::SpaceSaving;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Append a skewed word stream to the log's single partition.
fn fill_log(log: &Log, n: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let i = rng.next_below(30).min(rng.next_below(30));
        log.append(&format!("w{i:02}"), Vec::new());
    }
}

/// The ground truth: a clean, fault-free replay of the master dataset.
fn replay_master_keys(log: &Log) -> HashMap<String, u64> {
    let mut truth: HashMap<String, u64> = HashMap::new();
    for p in 0..log.partitions() {
        let end = log.end_offset(p) as usize;
        for rec in log.read(p, 0, end) {
            *truth.entry(rec.key).or_default() += 1;
        }
    }
    truth
}

/// Fixed and Auto plans run the same operator shell — one slot per task
/// against one slot per owned key-group — so with no resize the same
/// keyed stream must serve identical per-key results through both.
#[test]
fn fixed_and_auto_plans_serve_identical_per_key_results() {
    let serve = |parallelism: Parallelism| {
        let mut rng = SplitMix64::new(77);
        let tuples: Vec<Tuple> = (0..1_500u64)
            .map(|et| tuple_of([format!("w{:02}", rng.next_below(30))]).at(et))
            .collect();
        let compiled = Query::from("events")
            .key_by(vec![0])
            .window(tumbling(100))
            .parallelism(parallelism)
            .checkpoint_every(16)
            .aggregate(SpaceSaving::<String>::new(8).unwrap(), |t: &Tuple, s| {
                s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
            })
            .serve("wins")
            .compile(vec![vec_spout(tuples)])
            .unwrap();
        let view = compiled.view();
        assert!(compiled.run(ExecutorConfig::default()).unwrap().clean_shutdown);
        let table = &view.snapshot().table;
        let mut served: Vec<_> =
            table.iter().map(|(key, e)| (key.clone(), e.window, e.agg.snapshot())).collect();
        served.sort();
        served
    };
    let fixed = serve(Parallelism::Fixed(2));
    assert_eq!(fixed.len(), 30, "every key served");
    assert_eq!(fixed, serve(Parallelism::Auto { min: 2, max: 2 }));
}

/// A reliable source of `(key, event time)` records that emits the
/// first `first`, then stays unfinished and silent for `pause`, then
/// emits the rest. Failed records are re-emitted.
struct PausedSource {
    records: Vec<(String, u64)>,
    next: usize,
    first: usize,
    pause: Duration,
    resume_at: Option<Instant>,
    in_flight: HashSet<u64>,
    requeue: VecDeque<u64>,
}

impl Spout for PausedSource {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let i = match self.requeue.pop_front() {
            Some(id) => id as usize - 1,
            None => {
                if self.next == self.first {
                    let resume = *self.resume_at.get_or_insert_with(|| Instant::now() + self.pause);
                    if Instant::now() < resume {
                        return None;
                    }
                }
                if self.next == self.records.len() {
                    return None;
                }
                self.next += 1;
                self.next - 1
            }
        };
        let (key, et) = &self.records[i];
        let mut t = tuple_of([key.as_str()]).at(*et);
        t.root = i as u64 + 1;
        self.in_flight.insert(t.root);
        Some(t)
    }

    fn ack(&mut self, id: u64) {
        self.in_flight.remove(&id);
    }

    fn fail(&mut self, id: u64) -> bool {
        self.requeue.push_back(id);
        true
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.records.len() - self.next
    }
}

/// A windowed task defers its idle commit until the input is quiet for
/// one tick. A source that pauses for 1 s, far past the 200 ms ack
/// timeout, must still see every held ack of the tail before the pause
/// released within that tick: nothing is failed or replayed, and the
/// served windows equal a clean reference, under both drivers.
#[test]
fn a_paused_source_tail_is_committed_and_acked_without_replay() {
    let mut rng = SplitMix64::new(2_024);
    let records: Vec<(String, u64)> =
        (0..4_000u64).map(|et| (format!("k{:02}", rng.next_below(13)), et)).collect();
    // The newest window per key and how many records it holds.
    let mut newest: BTreeMap<String, ((u64, u64), u64)> = BTreeMap::new();
    for (key, et) in &records {
        let window = (et / 100 * 100, et / 100 * 100 + 100);
        let entry = newest.entry(key.clone()).or_insert((window, 0));
        if entry.0 != window {
            *entry = (window, 0);
        }
        entry.1 += 1;
    }
    for scheduling in [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }] {
        let source = PausedSource {
            records: records.clone(),
            next: 0,
            first: 2_000,
            pause: Duration::from_secs(1),
            resume_at: None,
            in_flight: HashSet::new(),
            requeue: VecDeque::new(),
        };
        let compiled = Query::from("events")
            .key_by(vec![0])
            .window(tumbling(100))
            .parallelism(2)
            .aggregate(SpaceSaving::<String>::new(4).unwrap(), |t: &Tuple, s| {
                s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
            })
            .serve("paused")
            .compile(vec![Box::new(source) as Box<dyn Spout>])
            .unwrap();
        let view = compiled.view();
        let config = ExecutorConfig {
            semantics: Semantics::AtLeastOnce,
            ack_timeout: Duration::from_millis(200),
            shutdown_timeout: Duration::from_secs(30),
            scheduling,
            ..Default::default()
        };
        let result = compiled.run(config).unwrap();
        assert!(result.clean_shutdown, "{scheduling:?}");
        let snap = result.metrics.snapshot();
        assert_eq!((snap.failed_roots, snap.replayed_roots), (0, 0), "{scheduling:?}");
        assert_eq!(snap.acked_roots, 4_000, "{scheduling:?}");
        let served: BTreeMap<String, ((u64, u64), u64)> = view
            .snapshot()
            .table
            .iter()
            .map(|(key, e)| (key.clone(), (e.window.unwrap(), e.agg.estimate(key))))
            .collect();
        assert_eq!(served, newest, "{scheduling:?}");
    }
}

/// A compiled query under the chaos harness (1% task panics + 1% link
/// drops, lenient restart budget): the served global aggregate must be
/// bit-identical to the replayed-master ground truth — every replayed
/// tuple deduplicated, every restarted task recovered from checkpoint,
/// every served epoch durable.
#[test]
fn chaos_run_serves_exactly_the_replayed_master() {
    let log = Log::new(1).unwrap();
    fill_log(&log, 2_000, 4242);
    let truth = replay_master_keys(&log);

    let store = CheckpointStore::new();
    let spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| sa_platform::tuple_of([r.key.as_str()]))
        .with_frontier(&store, "log.frontier", 32);

    let compiled = Query::from("log")
        .source_fields(["word"])
        .key_by(vec![0])
        .parallelism(2)
        .checkpoint(&store)
        .checkpoint_every(50)
        .aggregate(SpaceSaving::<String>::new(64).unwrap(), |t: &Tuple, s| {
            s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
        })
        .serve("counts")
        .compile(vec![Box::new(spout) as Box<dyn Spout>])
        .unwrap();
    let view = compiled.view();

    let config = ExecutorConfig {
        semantics: Semantics::AtLeastOnce,
        ack_timeout: Duration::from_millis(200),
        shutdown_timeout: Duration::from_secs(30),
        seed: 11,
        restart: RestartPolicy::default()
            .base(Duration::from_micros(10))
            .cap(Duration::from_micros(200))
            .budget(10_000, Duration::from_secs(60)),
        faults: FaultPlan::new(99).panic_on("counts.agg", 0.01).drop_on("log", 0.01),
        ..Default::default()
    };
    let result = compiled.run(config).unwrap();
    assert!(result.clean_shutdown);

    let served = view.global().expect("view published").value;
    // k=64 > 30 distinct words → SpaceSaving is exact here, so the
    // served counts must *equal* the replay, not just bound it.
    let got: HashMap<String, u64> =
        served.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect();
    assert_eq!(got, truth, "served view diverged from the replayed master");

    let snap = result.metrics.snapshot();
    assert!(snap.task_panics > 0, "chaos plan never fired");
    assert_eq!(snap.escalations, 0);
    assert!(snap.gauge("counts.epoch").unwrap_or(0) > 0, "view instruments in the snapshot");
}

/// Lambda merge correctness under thread chaos: two ingest threads, a
/// batch thread retiring the speed layer mid-stream, and readers
/// hammering merged queries throughout. After the dust settles,
/// `batch + speed` for every key must equal the replayed master — no
/// double counting across the batch horizon, no lost tail.
#[test]
fn lambda_merge_equals_replayed_master_under_interleaved_chaos() {
    use sa_platform::lambda::LambdaArchitecture;

    const INGESTERS: u64 = 2;
    const PER_THREAD: u64 = 600;
    for seed in 0..6u64 {
        let lambda = Arc::new(LambdaArchitecture::with_config(2, 16).unwrap());
        let done = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..2)
            .map(|r| {
                let lambda = lambda.clone();
                let done = done.clone();
                thread::spawn(move || {
                    let handle = lambda.handle();
                    let mut rng = SplitMix64::new(seed ^ (0xbeef + r));
                    let mut last_epoch = 0;
                    while !done.load(Ordering::SeqCst) {
                        let key = format!("w{:02}", rng.next_below(30));
                        let merged = handle.query(&key, Layer::Merged);
                        assert!(merged.value >= 0, "merged count went negative");
                        assert!(merged.epoch >= last_epoch, "speed epoch regressed");
                        last_epoch = merged.epoch;
                    }
                })
            })
            .collect();

        let batcher = {
            let lambda = lambda.clone();
            let done = done.clone();
            thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    lambda.run_batch();
                    thread::yield_now();
                }
            })
        };

        let ingesters: Vec<_> = (0..INGESTERS)
            .map(|t| {
                let lambda = lambda.clone();
                thread::spawn(move || {
                    let mut rng = SplitMix64::new(seed.wrapping_mul(31) + t);
                    for _ in 0..PER_THREAD {
                        let i = rng.next_below(30).min(rng.next_below(30));
                        lambda.ingest(&format!("w{i:02}"), 1);
                        if rng.next_below(8) == 0 {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        for t in ingesters {
            t.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        batcher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }

        lambda.flush_speed();
        assert_eq!(lambda.ingested(), INGESTERS * PER_THREAD);
        let truth = replay_master_keys(lambda.master());
        assert_eq!(truth.values().sum::<u64>(), INGESTERS * PER_THREAD);
        let handle = lambda.handle();
        for (key, want) in &truth {
            let got = handle.query(key, Layer::Merged).value;
            assert_eq!(
                got, *want as i64,
                "batch+speed diverged from replayed master for {key} (seed {seed})"
            );
        }
    }
}

/// A merged read that lands between a batch run's two publishes (new
/// batch view, then the emptied speed view) must not count the retired
/// speed increments twice, nor lose them on the next read: it never
/// exceeds what was ingested before it returned, and never decreases.
#[test]
fn lambda_merged_read_never_double_counts_across_a_batch_swap() {
    use sa_platform::lambda::LambdaArchitecture;

    const EVENTS: i64 = 20_000;
    let lambda = Arc::new(LambdaArchitecture::with_config(1, 1).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    let ingester = {
        let (lambda, done) = (lambda.clone(), done.clone());
        thread::spawn(move || {
            for _ in 0..EVENTS {
                lambda.ingest("k", 1);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let batcher = {
        let (lambda, done) = (lambda.clone(), done.clone());
        thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                lambda.run_batch();
            }
        })
    };

    let handle = lambda.handle();
    let (mut last, mut reads) = (0, 0u64);
    while !done.load(Ordering::SeqCst) {
        let merged = handle.query("k", Layer::Merged).value;
        let ingested = lambda.ingested() as i64;
        assert!(merged <= ingested, "read {reads}: merged {merged} > ingested {ingested}");
        assert!(merged >= last, "read {reads}: merged went backwards {last} -> {merged}");
        last = merged;
        reads += 1;
    }
    ingester.join().unwrap();
    batcher.join().unwrap();
    assert_eq!(handle.query("k", Layer::Merged).value, EVENTS);
}
