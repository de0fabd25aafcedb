//! Scheduler equivalence: the work-stealing runtime (one worker or
//! several) must be observationally identical to thread-per-task —
//! same delivered tuples, same checkpoint contents, same event-time
//! window results — and must keep the chaos guarantees (supervised
//! panic recovery, link-drop replay) when activations, not threads,
//! are the unit of supervision.

use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::rng::SplitMix64;
use sa_core::{Merge, Result, Synopsis};
use sa_platform::checkpoint::{counter_add, counter_value, CheckpointStore};
use sa_platform::supervise::{FaultPlan, RestartPolicy};
use sa_platform::topology::vec_spout;
use sa_platform::tuple::tuple_of;
use sa_platform::{
    run_topology, Bolt, BoltBuilder, ExecutorConfig, OutputCollector, RunResult, Scheduling,
    Semantics, TopologyBuilder, Tuple, Value, WatermarkConfig, WindowBolt, WindowConfig,
    WindowSpec,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

// --- Shared fixtures -------------------------------------------------

/// The scheduler variants under comparison.
fn variants() -> Vec<(&'static str, Scheduling)> {
    vec![
        ("thread-per-task", Scheduling::ThreadPerTask),
        ("ws-1w", Scheduling::WorkStealing { workers: 1 }),
        ("ws-2w", Scheduling::WorkStealing { workers: 2 }),
    ]
}

/// Outputs stripped of the per-delivery edge id (`Tuple::id` is drawn
/// from each task's seed chain, which legitimately differs between
/// schedulers); everything else — values, event time, ack root,
/// lineage, arrival order — must match bit for bit.
type Canon = BTreeMap<String, Vec<(Vec<Value>, Option<u64>, u64, u64)>>;

fn canon(result: &RunResult) -> Canon {
    result
        .outputs
        .iter()
        .map(|(k, ts)| {
            let c =
                ts.iter().map(|t| (t.values.to_vec(), t.event_time, t.root, t.lineage)).collect();
            (k.clone(), c)
        })
        .collect()
}

/// Deterministic keyed stream: `[key, value]` pairs.
fn keyed_stream(n: usize, seed: u64) -> (Vec<Tuple>, HashMap<String, i64>) {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<String, i64> = HashMap::new();
    let mut tuples = Vec::new();
    for _ in 0..n {
        let key = format!("k{}", rng.next_below(7));
        let v = rng.next_below(100) as i64;
        *truth.entry(key.clone()).or_insert(0) += v * 3;
        tuples.push(tuple_of([Value::Str(key.into()), Value::Int(v)]));
    }
    (tuples, truth)
}

/// Commits `value` under `key` through the checkpoint store, dedup'd by
/// lineage (stable across replays), then forwards the tuple.
fn tally_bolt(store: &CheckpointStore) -> Box<dyn Bolt> {
    let store = store.clone();
    Box::new(move |t: &Tuple, out: &mut OutputCollector| {
        let key = t.get(0).and_then(Value::as_str).unwrap().to_string();
        let v = t.get(1).and_then(Value::as_int).unwrap();
        store.commit(&key, t.lineage, |c| counter_add(c, v));
        out.emit(t.clone());
    })
}

/// `nums → scale → tally`: a parallelism-1 pipeline, one slot per
/// stage.
fn pipeline(tuples: Vec<Tuple>, store: &CheckpointStore) -> TopologyBuilder {
    let mut tb = TopologyBuilder::new();
    tb.set_spout("nums", vec![vec_spout(tuples)]);
    let scale = |t: &Tuple, out: &mut OutputCollector| {
        let key = t.get(0).unwrap().clone();
        let v = t.get(1).and_then(Value::as_int).unwrap();
        out.emit(tuple_of([key, Value::Int(v * 3)]));
    };
    tb.set_bolt("scale", vec![Box::new(scale) as Box<dyn Bolt>]).shuffle("nums");
    tb.set_bolt("tally", vec![tally_bolt(store)]).shuffle("scale");
    tb
}

fn config(scheduling: Scheduling, seed: u64) -> ExecutorConfig {
    ExecutorConfig { scheduling, semantics: Semantics::AtLeastOnce, seed, ..Default::default() }
}

// --- Equivalence -----------------------------------------------------

/// Pool (1 and 2 workers) ≡ thread-per-task across 64 seeds: identical
/// delivered tuples (values, stamps, roots, lineage, order) and
/// identical checkpoint contents.
#[test]
fn schedulers_agree_across_64_seeds() {
    for seed in 0..64u64 {
        let (tuples, truth) = keyed_stream(40, 0x5EED ^ (seed * 0x9E37_79B9));
        let mut reference: Option<(String, Canon)> = None;
        for (label, scheduling) in variants() {
            let store = CheckpointStore::new();
            let result =
                run_topology(pipeline(tuples.clone(), &store), config(scheduling, seed)).unwrap();
            assert!(result.clean_shutdown, "[{label} seed {seed}] unclean");
            assert_eq!(
                result.metrics.snapshot().acked_roots,
                tuples.len() as u64,
                "[{label} seed {seed}] roots"
            );
            for (key, &want) in &truth {
                let got = store.get(key).map_or(0, |(_, v)| counter_value(&v));
                assert_eq!(got, want, "[{label} seed {seed}] checkpoint for {key}");
            }
            let c = canon(&result);
            match &reference {
                None => reference = Some((label.to_string(), c)),
                Some((ref_label, ref_canon)) => {
                    assert_eq!(&c, ref_canon, "[seed {seed}] {label} diverged from {ref_label}");
                }
            }
        }
    }
}

/// Wide fan-out (shuffle + fields grouping, parallelism > 1) under a
/// multi-worker pool: exact word counts, every root acked — the shared
/// run queue and inbox hand-off lose nothing and duplicate nothing.
#[test]
fn multiworker_fanout_is_exact() {
    let mut rng = SplitMix64::new(0xFA0);
    let mut truth: HashMap<String, i64> = HashMap::new();
    let mut tuples = Vec::new();
    for _ in 0..300 {
        let key = format!("w{}", rng.next_below(20));
        *truth.entry(key.clone()).or_insert(0) += 1;
        tuples.push(tuple_of([Value::Str(key.into())]));
    }
    let mut tb = TopologyBuilder::new();
    tb.set_spout("words", vec![vec_spout(tuples)]);
    let relays: Vec<Box<dyn Bolt>> = (0..3)
        .map(|_| {
            Box::new(|t: &Tuple, out: &mut OutputCollector| out.emit(t.clone())) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("relay", relays).shuffle("words");
    let store = CheckpointStore::new();
    let counters: Vec<Box<dyn Bolt>> = (0..4)
        .map(|_| {
            let store = store.clone();
            Box::new(move |t: &Tuple, _out: &mut OutputCollector| {
                let key = t.get(0).and_then(Value::as_str).unwrap().to_string();
                store.commit(&key, t.lineage, |c| counter_add(c, 1));
            }) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("count", counters).fields("relay", vec![0]);
    let result = run_topology(tb, config(Scheduling::WorkStealing { workers: 4 }, 3)).unwrap();
    assert!(result.clean_shutdown);
    assert_eq!(result.metrics.snapshot().acked_roots, 300);
    for (key, &want) in &truth {
        let got = store.get(key).map_or(0, |(_, v)| counter_value(&v));
        assert_eq!(got, want, "count for {key}");
    }
}

// --- Event time ------------------------------------------------------

/// Count-and-sum synopsis for exact windowed aggregation.
#[derive(Clone, Debug, Default, PartialEq)]
struct CountSum {
    n: u64,
    sum: i64,
}

impl Synopsis for CountSum {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(17);
        w.tag(b'S').put_u64(self.n).put_i64(self.sum);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(bytes);
        r.expect_tag(b'S', "CountSum")?;
        let n = r.get_u64()?;
        let sum = r.get_i64()?;
        r.finish()?;
        *self = Self { n, sum };
        Ok(())
    }
}

impl Merge for CountSum {
    fn merge(&mut self, other: &Self) -> Result<()> {
        self.n += other.n;
        self.sum += other.sum;
        Ok(())
    }
}

/// `(key, start, end) → (count, sum)` per fired window.
type WindowTable = BTreeMap<(String, u64, u64), (u64, i64)>;

fn window_results(result: &RunResult) -> WindowTable {
    let mut m = BTreeMap::new();
    for t in result.outputs.get("win").map(Vec::as_slice).unwrap_or(&[]) {
        let key = t.get(0).unwrap().as_str().unwrap().to_string();
        let start = t.get(1).unwrap().as_int().unwrap() as u64;
        let end = t.get(2).unwrap().as_int().unwrap() as u64;
        let mut agg = CountSum::default();
        agg.restore(t.get(3).unwrap().as_bytes().unwrap()).unwrap();
        m.insert((key, start, end), (agg.n, agg.sum));
    }
    m
}

/// Event-time windows fire identically under every scheduler: markers
/// ride the same FIFO inboxes as the data they cover, so window
/// contents cannot depend on which thread ran an activation.
#[test]
fn event_time_windows_agree_across_schedulers() {
    let mut rng = SplitMix64::new(0xE7);
    let tuples: Vec<Tuple> = (0..200u64)
        .map(|i| {
            let key = format!("k{}", rng.next_below(3));
            tuple_of([Value::Str(key.into()), Value::Int((i % 11) as i64)]).at(i)
        })
        .collect();
    let mut reference: Option<WindowTable> = None;
    for (label, scheduling) in variants() {
        let store = CheckpointStore::new();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout(tuples.clone())]);
        let echo = |t: &Tuple, out: &mut OutputCollector| out.emit(Tuple::new(t.values.clone()));
        tb.set_bolt("echo", vec![Box::new(echo) as Box<dyn Bolt>]).shuffle("src");
        let win = WindowBolt::new(
            "win/0",
            &store,
            CountSum::default(),
            WindowConfig::new(WindowSpec::Tumbling { size: 25 }, vec![0]),
            |t: &Tuple, s: &mut CountSum| {
                s.n += 1;
                s.sum += t.get(1).and_then(Value::as_int).unwrap_or(0);
            },
        )
        .unwrap();
        tb.set_bolt("win", vec![Box::new(win) as Box<dyn Bolt>]).global("echo");
        let result = run_topology(
            tb,
            ExecutorConfig {
                scheduling,
                semantics: Semantics::AtMostOnce,
                watermarks: Some(WatermarkConfig::bounded(0).emit_every(1)),
                seed: 11,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.clean_shutdown, "[{label}] unclean");
        let w = window_results(&result);
        assert!(!w.is_empty(), "[{label}] no windows fired");
        assert_eq!(
            result.metrics.snapshot().counter("win.dropped_late"),
            0,
            "[{label}] ordered stream produced late tuples"
        );
        match &reference {
            None => reference = Some(w),
            Some(r) => assert_eq!(&w, r, "[{label}] window results diverged"),
        }
    }
}

// --- Chaos -----------------------------------------------------------

fn lenient() -> RestartPolicy {
    RestartPolicy::default()
        .base(Duration::from_micros(10))
        .cap(Duration::from_micros(200))
        .budget(10_000, Duration::from_secs(60))
}

/// Panic chaos on the last stage of a parallelism-1 pipeline under a
/// 2-worker pool: the panics are counted and supervised as `tally`'s
/// (not an upstream stage's), the factory bolt is rebuilt, and
/// exactly-once counts survive bit-exact.
#[test]
fn pipeline_survives_panic_chaos_exactly_once() {
    let (tuples, truth) = keyed_stream(400, 0xC4A05);
    let n = tuples.len() as u64;
    let store = CheckpointStore::new();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("nums", vec![vec_spout(tuples)]);
    let scale_factory: Vec<BoltBuilder> = vec![Box::new(|| {
        Ok(Box::new(|t: &Tuple, out: &mut OutputCollector| {
            let key = t.get(0).unwrap().clone();
            let v = t.get(1).and_then(Value::as_int).unwrap();
            out.emit(tuple_of([key, Value::Int(v * 3)]));
        }) as Box<dyn Bolt>)
    })];
    tb.set_bolt("scale", scale_factory).shuffle("nums");
    let tally_factory: Vec<BoltBuilder> = vec![{
        let store = store.clone();
        Box::new(move || {
            let store = store.clone();
            Ok(Box::new(move |t: &Tuple, out: &mut OutputCollector| {
                let key = t.get(0).and_then(Value::as_str).unwrap().to_string();
                let v = t.get(1).and_then(Value::as_int).unwrap();
                store.commit(&key, t.lineage, |c| counter_add(c, v));
                out.emit(t.clone());
            }) as Box<dyn Bolt>)
        })
    }];
    tb.set_bolt("tally", tally_factory).shuffle("scale");

    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling: Scheduling::WorkStealing { workers: 2 },
            semantics: Semantics::AtLeastOnce,
            ack_timeout: Duration::from_millis(200),
            shutdown_timeout: Duration::from_secs(30),
            restart: lenient(),
            faults: FaultPlan::new(77).panic_on("tally", 0.01),
            seed: 11,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let snap = result.metrics.snapshot();
    assert!(snap.task_panics > 0, "chaos plan never fired");
    assert_eq!(snap.task_panics, snap.task_restarts, "every panic must be forgiven");
    assert!(snap.counter("tally.panics") > 0, "panics not attributed to tally");
    assert_eq!(snap.counter("scale.panics"), 0, "tally's panics blamed on scale");
    assert_eq!(snap.counter("tally.panics"), snap.counter("tally.restarts"));
    assert_eq!(snap.escalations, 0);
    assert_eq!(snap.acked_roots, n, "every root must eventually ack");
    for (key, &want) in &truth {
        let got = store.get(key).map_or(0, |(_, v)| counter_value(&v));
        assert_eq!(got, want, "chaos perturbed the exact count for {key}");
    }
}

/// Panics + link drops on a parallelism-2 topology under a
/// multi-worker pool: at-least-once replay + checkpoint dedup stay
/// exact when activations interleave on stolen workers.
#[test]
fn work_stealing_survives_panics_and_drops() {
    let mut rng = SplitMix64::new(0xD05);
    let mut truth: HashMap<String, i64> = HashMap::new();
    let mut tuples = Vec::new();
    for _ in 0..500 {
        let key = format!("w{}", rng.next_below(16));
        *truth.entry(key.clone()).or_insert(0) += 1;
        tuples.push(tuple_of([Value::Str(key.into())]));
    }
    let store = CheckpointStore::new();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("words", vec![vec_spout(tuples)]);
    let counters: Vec<BoltBuilder> = (0..2)
        .map(|_| {
            let store = store.clone();
            Box::new(move || {
                let store = store.clone();
                Ok(Box::new(move |t: &Tuple, _out: &mut OutputCollector| {
                    let key = t.get(0).and_then(Value::as_str).unwrap().to_string();
                    store.commit(&key, t.lineage, |c| counter_add(c, 1));
                }) as Box<dyn Bolt>)
            }) as BoltBuilder
        })
        .collect();
    tb.set_bolt("count", counters).fields("words", vec![0]);

    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling: Scheduling::WorkStealing { workers: 4 },
            semantics: Semantics::AtLeastOnce,
            ack_timeout: Duration::from_millis(200),
            shutdown_timeout: Duration::from_secs(30),
            restart: lenient(),
            faults: FaultPlan::new(99).panic_on("count", 0.01).drop_on("words", 0.01),
            seed: 11,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let snap = result.metrics.snapshot();
    assert!(snap.task_panics > 0, "panic chaos never fired");
    assert!(snap.dropped_links > 0, "drop chaos never fired");
    assert!(snap.replayed_roots > 0, "drops must force replays");
    assert_eq!(snap.escalations, 0);
    for (key, &want) in &truth {
        let got = store.get(key).map_or(0, |(_, v)| counter_value(&v));
        assert_eq!(got, want, "count for {key}");
    }
}

// --- Scheduler self-metrics ------------------------------------------

/// The pool exports per-worker `runs`/`parks` counters, and
/// they survive into the JSON snapshot (satellite of the CI gate).
/// Every bolt is its own slot there too: each registers its
/// `{comp}.input` link gauge and its own `executed` / `emitted`.
#[test]
fn per_worker_counters_reach_the_snapshot() {
    let (tuples, _) = keyed_stream(80, 21);
    let store = CheckpointStore::new();
    let result =
        run_topology(pipeline(tuples, &store), config(Scheduling::WorkStealing { workers: 2 }, 21))
            .unwrap();
    let snap = result.metrics.snapshot();
    for bolt in ["scale", "tally"] {
        assert!(snap.link(&format!("{bolt}.input")).is_some(), "{bolt} has no inbox gauge");
        assert!(snap.counter(&format!("{bolt}.executed")) > 0, "{bolt}.executed");
        assert!(snap.counter(&format!("{bolt}.emitted")) > 0, "{bolt}.emitted");
    }
    let runs: u64 = (0..2).map(|w| snap.counter(&format!("sched.worker{w}.runs"))).sum();
    assert!(runs > 0, "no activations recorded: {:?}", snap.counters);
    for w in 0..2 {
        for which in ["runs", "parks"] {
            let name = format!("sched.worker{w}.{which}");
            assert!(snap.counters.contains_key(&name), "missing {name}");
        }
    }
    let json = snap.to_json();
    assert!(json.contains("\"sched.worker0.runs\""), "counters missing from JSON");
    assert!(json.contains("\"sched.worker1.parks\""));
}

// --- Fairness --------------------------------------------------------

/// One pool worker runs the run queue in FIFO order: a spout slice (128
/// tuples, two 64-tuple batches) ends with the spout's self-requeue at
/// the back, behind the bolt its sends scheduled, so the bolt drains
/// each slice before the next one runs and its inbox never holds more
/// than one slice. A self-requeue that jumped the queue would let the
/// spout run slice after slice and pile the whole stream into the
/// inbox.
///
/// The inbox gauge counts messages, so two things that are not
/// fairness stay out of the reading: no batch ships on linger (a
/// preempted slice would otherwise ship a partial batch and three
/// sends), and the stream is a whole number of slices (otherwise the
/// last, one-batch slice finishes the spout at once, and the
/// coordinator's `Flush` and `Terminate` can join that batch before
/// the worker drains it).
#[test]
fn one_worker_pool_drains_each_spout_slice_before_the_next() {
    const BATCH: usize = 64;
    const SLICE_TUPLES: u64 = 128; // the runtime's `SPOUT_SLICE`
    let n = 1_563 * SLICE_TUPLES as usize; // ~200k tuples
    let tuples: Vec<Tuple> = (0..n).map(|i| tuple_of([i as i64])).collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("src", vec![vec_spout(tuples)]);
    let sink = |t: &Tuple, _out: &mut OutputCollector| {
        std::hint::black_box(t.get(0));
    };
    tb.set_bolt("sink", vec![Box::new(sink) as Box<dyn Bolt>]).shuffle("src");
    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling: Scheduling::WorkStealing { workers: 1 },
            semantics: Semantics::AtMostOnce,
            batch_size: BATCH,
            batch_linger: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let snap = result.metrics.snapshot();
    assert_eq!(snap.counter("sink.executed"), n as u64);
    let high_water = snap.link("sink.input").expect("sink inbox gauge").high_water;
    assert!(
        high_water <= SLICE_TUPLES / BATCH as u64,
        "sink inbox reached {high_water} batches: a spout slice ran before the last was drained"
    );
}
