//! The same word-count topology under both drivers: the classic
//! thread-per-task executor and a pool of workers sharing one run
//! queue (`Scheduling::WorkStealing`, a historical name) — identical
//! answers, very different thread bills.
//!
//! ```sh
//! cargo run --release --example scheduled_wordcount
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streaming_analytics::prelude::*;

type Counts = Arc<Mutex<HashMap<String, u64>>>;

/// spout → split (×2, shuffle) → count (×4, fields-grouped on word).
fn wordcount(counts: &Counts) -> TopologyBuilder {
    let mut rng = streaming_analytics::core::rng::SplitMix64::new(42);
    let sentences: Vec<Tuple> = (0..20_000)
        .map(|_| {
            let s: Vec<String> = (0..6).map(|_| format!("w{}", rng.next_below(40))).collect();
            tuple_of([s.join(" ")])
        })
        .collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("sentences", vec![vec_spout(sentences)]);
    let splitters: Vec<Box<dyn Bolt>> = (0..2)
        .map(|_| {
            Box::new(|t: &Tuple, out: &mut OutputCollector| {
                for word in t.get(0).unwrap().as_str().unwrap().split(' ') {
                    out.emit(tuple_of([word]));
                }
            }) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("split", splitters).shuffle("sentences");
    let counters: Vec<Box<dyn Bolt>> = (0..4)
        .map(|_| {
            let counts = counts.clone();
            Box::new(move |t: &Tuple, _out: &mut OutputCollector| {
                let word = t.get(0).unwrap().as_str().unwrap().to_string();
                *counts.lock().unwrap().entry(word).or_default() += 1;
            }) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("count", counters).fields("split", vec![0]);
    tb
}

fn main() {
    let mut answers: Vec<HashMap<String, u64>> = Vec::new();
    for (label, scheduling) in [
        ("thread-per-task (7 task threads)", Scheduling::ThreadPerTask),
        // workers: 0 means "one per core" (std::thread::available_parallelism).
        ("shared pool     (4 pool workers)", Scheduling::WorkStealing { workers: 4 }),
    ] {
        let counts: Counts = Arc::new(Mutex::new(HashMap::new()));
        let t0 = Instant::now();
        let result = run_topology(
            wordcount(&counts),
            ExecutorConfig { scheduling, semantics: Semantics::AtLeastOnce, ..Default::default() },
        )
        .unwrap();
        assert!(result.clean_shutdown);
        let snap = result.metrics.snapshot();
        let total: u64 = counts.lock().unwrap().values().sum();
        println!(
            "{label}: {total} words counted in {:?} ({} roots acked)",
            t0.elapsed(),
            snap.acked_roots
        );
        if let Scheduling::WorkStealing { .. } = scheduling {
            for w in 0..4 {
                println!(
                    "  worker {w}: {} activations, {} parks",
                    snap.counter(&format!("sched.worker{w}.runs")),
                    snap.counter(&format!("sched.worker{w}.parks"))
                );
            }
        }
        answers.push(counts.lock().unwrap().clone());
    }
    assert_eq!(answers[0], answers[1], "schedulers disagreed");
    println!("both schedulers produced identical counts.");
}
