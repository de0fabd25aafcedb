//! End-to-end topology tests: the §3 platform requirements, executed.
//!
//! * predictable/repeatable outcomes — exact word counts;
//! * resiliency against stream imperfections — link-drop injection;
//! * guarantee ladder — at-most-once loses, at-least-once replays
//!   (may overcount), exactly-once (checkpoint dedup) is exact;
//! * scale-out — parallel tasks with fields grouping stay correct;
//! * Storm-vs-Heron executor models produce identical results.

use sa_platform::checkpoint::{counter_add, counter_value, CheckpointStore};
use sa_platform::topology::vec_spout;
use sa_platform::tuple::tuple_of;
use sa_platform::{
    run_topology, Bolt, ExecutorConfig, FaultPlan, OutputCollector, Scheduling, Semantics,
    TopologyBuilder, Tuple, Value,
};
use std::collections::HashMap;
use std::time::Duration;

/// Splits a sentence into (word, intra-sentence-index) pairs.
struct SplitBolt;

impl Bolt for SplitBolt {
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
        let Some(sentence) = input.get(0).and_then(Value::as_str) else {
            return;
        };
        for (i, word) in sentence.split_whitespace().enumerate() {
            out.emit(Tuple::new(vec![Value::Str(word.into()), Value::Int(i as i64)]));
        }
    }
}

/// In-memory counting bolt; emits (word, count) pairs on flush.
#[derive(Default)]
struct CountBolt {
    counts: HashMap<String, i64>,
}

impl Bolt for CountBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        if let Some(w) = input.get(0).and_then(Value::as_str) {
            *self.counts.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    fn flush(&mut self, out: &mut OutputCollector) {
        for (w, c) in &self.counts {
            out.emit(tuple_of([Value::Str(w.clone().into()), Value::Int(*c)]));
        }
    }
}

/// Exactly-once counting bolt: commits through a checkpoint store using
/// the (root, intra-sentence index) pair as the dedup token — stable
/// across replays, per MillWheel's strong productions.
struct ExactlyOnceCountBolt {
    store: CheckpointStore,
}

impl Bolt for ExactlyOnceCountBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        let w = input.get(0).and_then(Value::as_str).unwrap().to_string();
        let idx = input.get(1).and_then(Value::as_int).unwrap() as u64;
        // lineage is stable across replays; root is not.
        let record_id = input.lineage.wrapping_mul(1_000).wrapping_add(idx);
        self.store.commit(&w, record_id, |c| counter_add(c, 1));
    }
}

fn sentences(n: usize) -> (Vec<Tuple>, HashMap<String, i64>) {
    let corpus = [
        "the quick brown fox",
        "jumps over the lazy dog",
        "the dog barks",
        "a stream of words flows past the dog",
    ];
    let mut tuples = Vec::new();
    let mut truth: HashMap<String, i64> = HashMap::new();
    for i in 0..n {
        let s = corpus[i % corpus.len()];
        tuples.push(tuple_of([s]));
        for w in s.split_whitespace() {
            *truth.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    (tuples, truth)
}

fn collect_counts(outputs: &HashMap<String, Vec<Tuple>>, name: &str) -> HashMap<String, i64> {
    let mut m = HashMap::new();
    for t in outputs.get(name).map(Vec::as_slice).unwrap_or(&[]) {
        let w = t.get(0).and_then(Value::as_str).unwrap().to_string();
        let c = t.get(1).and_then(Value::as_int).unwrap();
        *m.entry(w).or_insert(0) += c;
    }
    m
}

fn wordcount_builder(
    n_sentences: usize,
    splitters: usize,
    counters: usize,
) -> (TopologyBuilder, HashMap<String, i64>) {
    let (tuples, truth) = sentences(n_sentences);
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(tuples)]);
    let split: Vec<Box<dyn Bolt>> =
        (0..splitters).map(|_| Box::new(SplitBolt) as Box<dyn Bolt>).collect();
    tb.set_bolt("split", split).shuffle("sentences");
    let count: Vec<Box<dyn Bolt>> =
        (0..counters).map(|_| Box::new(CountBolt::default()) as Box<dyn Bolt>).collect();
    tb.set_bolt("count", count).fields("split", vec![0]);
    (tb, truth)
}

#[test]
fn wordcount_exact_under_at_most_once_no_failures() {
    let (tb, truth) = wordcount_builder(200, 3, 4);
    let result =
        run_topology(tb, ExecutorConfig { semantics: Semantics::AtMostOnce, ..Default::default() })
            .unwrap();
    assert!(result.clean_shutdown);
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts, truth);
}

#[test]
fn wordcount_exact_under_at_least_once_no_failures() {
    let (tb, truth) = wordcount_builder(200, 2, 3);
    let result = run_topology(
        tb,
        ExecutorConfig { semantics: Semantics::AtLeastOnce, ..Default::default() },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts, truth);
    let snap = result.metrics.snapshot();
    assert_eq!(snap.acked_roots, 200);
    assert_eq!(snap.failed_roots, 0);
}

#[test]
fn at_most_once_loses_data_under_link_failures() {
    let (tb, truth) = wordcount_builder(300, 2, 2);
    let result = run_topology(
        tb,
        ExecutorConfig {
            semantics: Semantics::AtMostOnce,
            faults: FaultPlan::default().drop_on("", 0.1),
            ..Default::default()
        },
    )
    .unwrap();
    let counts = collect_counts(&result.outputs, "count");
    let total: i64 = counts.values().sum();
    let true_total: i64 = truth.values().sum();
    assert!(total < true_total, "lost nothing despite 10% drops");
    assert!(result.metrics.snapshot().dropped_links > 0);
}

#[test]
fn at_least_once_replays_and_never_undercounts() {
    let (tb, truth) = wordcount_builder(150, 2, 2);
    let result = run_topology(
        tb,
        ExecutorConfig {
            semantics: Semantics::AtLeastOnce,
            faults: FaultPlan::default().drop_on("", 0.05),
            ack_timeout: Duration::from_millis(300),
            shutdown_timeout: Duration::from_secs(20),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown, "trees never settled");
    let counts = collect_counts(&result.outputs, "count");
    for (w, &t) in &truth {
        let got = counts.get(w).copied().unwrap_or(0);
        assert!(got >= t, "undercounted {w}: {got} < {t}");
    }
    let snap = result.metrics.snapshot();
    assert_eq!(snap.acked_roots, 150, "every root eventually acked");
    assert!(snap.replayed_roots > 0, "no replays despite drops");
    assert!(snap.dropped_links > 0);
}

#[test]
fn exactly_once_is_exact_under_link_failures() {
    let (tuples, truth) = sentences(150);
    let store = CheckpointStore::new();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(tuples)]);
    tb.set_bolt("split", vec![Box::new(SplitBolt) as Box<dyn Bolt>]).shuffle("sentences");
    let counters: Vec<Box<dyn Bolt>> = (0..3)
        .map(|_| Box::new(ExactlyOnceCountBolt { store: store.clone() }) as Box<dyn Bolt>)
        .collect();
    tb.set_bolt("count", counters).fields("split", vec![0]);
    let result = run_topology(
        tb,
        ExecutorConfig {
            semantics: Semantics::AtLeastOnce,
            faults: FaultPlan::default().drop_on("", 0.05),
            ack_timeout: Duration::from_millis(300),
            shutdown_timeout: Duration::from_secs(20),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let (_, dups) = store.stats();
    assert!(dups > 0, "dedup never fired — no duplicates were even delivered");
    for (w, &t) in &truth {
        let got = store.get(w).map_or(0, |(_, v)| counter_value(&v));
        assert_eq!(got, t, "word {w}");
    }
}

#[test]
fn fields_grouping_sends_key_to_single_task() {
    // Each counter task flushes its map; with fields grouping a word
    // must appear in exactly one task's output. Verify via per-task
    // markers: counter i prefixes its flush output with its identity.
    struct TaggedCount {
        tag: i64,
        counts: HashMap<String, i64>,
    }
    impl Bolt for TaggedCount {
        fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
            let w = input.get(0).and_then(Value::as_str).unwrap().to_string();
            *self.counts.entry(w).or_insert(0) += 1;
        }
        fn flush(&mut self, out: &mut OutputCollector) {
            for (w, c) in &self.counts {
                out.emit(tuple_of([
                    Value::Str(w.clone().into()),
                    Value::Int(*c),
                    Value::Int(self.tag),
                ]));
            }
        }
    }
    let (tuples, _) = sentences(100);
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(tuples)]);
    tb.set_bolt("split", vec![Box::new(SplitBolt) as Box<dyn Bolt>]).shuffle("sentences");
    let counters: Vec<Box<dyn Bolt>> = (0..4)
        .map(|i| Box::new(TaggedCount { tag: i, counts: HashMap::new() }) as Box<dyn Bolt>)
        .collect();
    tb.set_bolt("count", counters).fields("split", vec![0]);
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();
    let mut word_tasks: HashMap<String, std::collections::HashSet<i64>> = HashMap::new();
    for t in &result.outputs["count"] {
        let w = t.get(0).and_then(Value::as_str).unwrap().to_string();
        let tag = t.get(2).and_then(Value::as_int).unwrap();
        word_tasks.entry(w).or_default().insert(tag);
    }
    for (w, tasks) in word_tasks {
        assert_eq!(tasks.len(), 1, "word {w} split across tasks {tasks:?}");
    }
}

#[test]
fn all_grouping_replicates_to_every_task() {
    let (tuples, _) = sentences(50);
    let n_tuples = tuples.len() as u64;
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(tuples)]);
    let bolts: Vec<Box<dyn Bolt>> = (0..3)
        .map(|_| {
            Box::new(|t: &Tuple, out: &mut OutputCollector| {
                out.emit(t.clone());
            }) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("mirror", bolts).all("sentences");
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();
    assert_eq!(
        result.outputs["mirror"].len() as u64,
        3 * n_tuples,
        "each task must see every tuple"
    );
}

/// The Storm-style arm of the ablation: every task multiplexed over
/// one shared worker and unbounded inboxes.
#[test]
fn one_shared_worker_produces_identical_counts() {
    let (tb, truth) = wordcount_builder(200, 4, 4);
    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling: Scheduling::WorkStealing { workers: 1 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts, truth);
}

#[test]
fn backpressure_with_tiny_queues_loses_nothing() {
    let (tb, truth) = wordcount_builder(300, 2, 2);
    let result = run_topology(
        tb,
        ExecutorConfig {
            channel_capacity: 2, // extreme backpressure
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.clean_shutdown);
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts, truth);
}

#[test]
fn multi_stage_pipeline_with_filter() {
    // sentences → split → filter(the) → count: only "the" survives.
    let (tuples, truth) = sentences(120);
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(tuples)]);
    tb.set_bolt("split", vec![Box::new(SplitBolt) as Box<dyn Bolt>]).shuffle("sentences");
    tb.set_bolt(
        "filter",
        vec![Box::new(|t: &Tuple, out: &mut OutputCollector| {
            if t.get(0).and_then(Value::as_str) == Some("the") {
                out.emit(t.clone());
            }
        }) as Box<dyn Bolt>],
    )
    .shuffle("split");
    tb.set_bolt("count", vec![Box::new(CountBolt::default()) as Box<dyn Bolt>])
        .fields("filter", vec![0]);
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts.len(), 1);
    assert_eq!(counts["the"], truth["the"]);
}

#[test]
fn parallel_spouts_partition_the_stream() {
    let (tuples, truth) = sentences(200);
    let mid = tuples.len() / 2;
    let left = tuples[..mid].to_vec();
    let right = tuples[mid..].to_vec();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(left), vec_spout(right)]);
    tb.set_bolt("split", vec![Box::new(SplitBolt) as Box<dyn Bolt>]).shuffle("sentences");
    tb.set_bolt("count", vec![Box::new(CountBolt::default()) as Box<dyn Bolt>])
        .fields("split", vec![0]);
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();
    assert!(result.clean_shutdown);
    let counts = collect_counts(&result.outputs, "count");
    assert_eq!(counts, truth);
    assert_eq!(result.metrics.snapshot().acked_roots, 200);
}
