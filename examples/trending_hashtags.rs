//! Trending hashtags — the paper's flagship example for the Frequent
//! Elements row, run three ways:
//!
//! 1. standalone SpaceSaving over a Zipf hashtag stream;
//! 2. as a hand-wired platform topology (spout → fields-grouped
//!    counting bolts), the way Twitter would deploy it on Storm/Heron;
//! 3. as a declarative continuous query — the same deployment, stated
//!    as a plan and compiled into the same topology shape, with the
//!    answer served from an epoch-swapped view.
//!
//! ```sh
//! cargo run --release --example trending_hashtags
//! ```

use std::collections::HashMap;
use streaming_analytics::core::generators::ZipfStream;
use streaming_analytics::prelude::*;
use streaming_analytics::sketches::heavy_hitters::SpaceSaving;

/// A bolt holding a SpaceSaving summary; emits its top-k on flush.
struct TrendingBolt {
    summary: SpaceSaving<String>,
    k: usize,
}

impl Bolt for TrendingBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        if let Some(tag) = input.get(0).and_then(Value::as_str) {
            self.summary.insert(tag.to_string());
        }
    }
    fn flush(&mut self, out: &mut OutputCollector) {
        for h in self.summary.top_k(self.k) {
            out.emit(tuple_of([Value::Str(h.item.into()), Value::Int(h.count as i64)]));
        }
    }
}

fn main() {
    let n = 500_000;
    let mut gen = ZipfStream::new(100_000, 1.2, 2024);
    let tweets: Vec<String> = gen.take_hashtags(n);

    // --- Standalone: one summary over the whole stream. ---
    let mut ss = SpaceSaving::new(200).unwrap();
    for tag in &tweets {
        ss.insert(tag.clone());
    }
    println!("standalone top-5 (of {n} tweets):");
    for h in ss.top_k(5) {
        println!("  {:<12} ~{:>7} (±{})", h.item, h.count, h.error);
    }

    // --- Hand-wired topology: hashtags fields-grouped over 4 counting
    //     bolts. Fields grouping sends each tag to one bolt, so per-bolt
    //     summaries are exact partitions; the merged flush output is the
    //     global answer. ---
    let tuples: Vec<Tuple> = tweets.iter().map(|t| tuple_of([t.as_str()])).collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("tweets", vec![vec_spout(tuples)]);
    let bolts: Vec<Box<dyn Bolt>> = (0..4)
        .map(|_| {
            Box::new(TrendingBolt { summary: SpaceSaving::new(100).unwrap(), k: 10 })
                as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("trending", bolts).fields("tweets", vec![0]);
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();

    let mut merged: HashMap<String, i64> = HashMap::new();
    for t in &result.outputs["trending"] {
        let tag = t.get(0).and_then(Value::as_str).unwrap().to_string();
        let c = t.get(1).and_then(Value::as_int).unwrap();
        merged.insert(tag, c);
    }
    let mut top: Vec<(String, i64)> = merged.into_iter().collect();
    top.sort_by_key(|e| std::cmp::Reverse(e.1));
    println!("\ntopology top-5 (4-way fields-grouped bolts):");
    for (tag, c) in top.iter().take(5) {
        println!("  {tag:<12} ~{c:>7}");
    }
    println!(
        "processed {} tuples across bolts; clean shutdown: {}",
        result.metrics.snapshot().counter("trending.executed"),
        result.clean_shutdown
    );

    // --- Declarative: the same deployment as a continuous query. The
    //     plan compiles into the topology above (4 fields-grouped
    //     aggregation tasks + a serve bolt) and the answer is read from
    //     the served view, not scraped from drain-time emissions. ---
    let tuples: Vec<Tuple> = tweets.iter().map(|t| tuple_of([t.as_str()])).collect();
    let compiled = Query::from("tweets")
        .source_fields(["tag"])
        .key_by(vec![0])
        .parallelism(4)
        .aggregate(SpaceSaving::<String>::new(100).unwrap(), |t, s: &mut SpaceSaving<String>| {
            if let Some(tag) = t.get(0).and_then(Value::as_str) {
                s.insert(tag.to_string());
            }
        })
        .serve("trending")
        .compile(vec![vec_spout(tuples)])
        .unwrap();
    let view = compiled.view();
    let result = compiled.run(ExecutorConfig::default()).unwrap();
    let served = view.global().expect("view published");
    println!("\nquery-api top-5 (served at epoch {}):", served.epoch);
    for h in served.value.top_k(5) {
        println!("  {:<12} ~{:>7} (±{})", h.item, h.count, h.error);
    }
    println!(
        "served {} epochs; clean shutdown: {}",
        result.metrics.snapshot().gauge("trending.epoch").unwrap_or(0),
        result.clean_shutdown
    );

    // Same stream, same partitioning, same summaries → the declarative
    // plan must trend the same tags in the same order.
    let hand_wired: Vec<String> = top.iter().take(5).map(|e| e.0.clone()).collect();
    let declarative: Vec<String> = served.value.top_k(5).into_iter().map(|h| h.item).collect();
    assert_eq!(hand_wired, declarative, "query plan must match the hand-wired topology");
    println!("declarative and hand-wired rankings agree.");
}
