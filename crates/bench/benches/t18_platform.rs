//! Criterion bench for experiment T2: topology throughput by
//! semantics, executor model, and link batch size (small streams; the
//! experiments binary runs the larger sweeps), plus a micro-bench of
//! the pre-registered counter path against a mutex-mapped equivalent.
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sa_platform::topology::vec_spout;
use sa_platform::tuple::tuple_of;
use sa_platform::*;

fn build(n: usize) -> TopologyBuilder {
    let tuples: Vec<Tuple> = (0..n).map(|i| tuple_of([format!("w{}", i % 20)])).collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("src", vec![vec_spout(tuples)]);
    let bolts: Vec<Box<dyn Bolt>> = (0..2)
        .map(|_| Box::new(|t: &Tuple, o: &mut OutputCollector| o.emit(t.clone())) as Box<dyn Bolt>)
        .collect();
    tb.set_bolt("echo", bolts).shuffle("src");
    tb
}

fn bench_platform(c: &mut Criterion) {
    let n = 10_000usize;
    let mut g = c.benchmark_group("t18_platform");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("at_most_once", |b| {
        b.iter(|| {
            run_topology(
                build(n),
                ExecutorConfig { semantics: Semantics::AtMostOnce, ..Default::default() },
            )
            .unwrap()
            .outputs
            .len()
        })
    });
    g.bench_function("at_least_once", |b| {
        b.iter(|| {
            run_topology(
                build(n),
                ExecutorConfig { semantics: Semantics::AtLeastOnce, ..Default::default() },
            )
            .unwrap()
            .outputs
            .len()
        })
    });
    // Storm-style arm: every task multiplexed over one shared worker
    // and unbounded inboxes.
    g.bench_function("shared_worker_at_least_once", |b| {
        b.iter(|| {
            run_topology(
                build(n),
                ExecutorConfig {
                    scheduling: Scheduling::WorkStealing { workers: 1 },
                    ..Default::default()
                },
            )
            .unwrap()
            .outputs
            .len()
        })
    });
    // The tentpole sweep: same topology, batch size varied.
    for batch_size in [1usize, 8, 64, 256] {
        g.bench_with_input(
            BenchmarkId::new("batch_size", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter(|| {
                    run_topology(
                        build(n),
                        ExecutorConfig {
                            semantics: Semantics::AtLeastOnce,
                            batch_size,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .outputs
                    .len()
                })
            },
        );
    }
    g.finish();
}

/// CounterHandle::add (one relaxed fetch_add) vs the retired design: a
/// `Mutex<HashMap<String, u64>>` keyed by a formatted name per bump.
fn bench_counters(c: &mut Criterion) {
    use std::collections::HashMap;
    use std::sync::Mutex;
    let reps = 10_000u64;
    let mut g = c.benchmark_group("t18_counters");
    g.throughput(Throughput::Elements(reps));
    let metrics = Metrics::new();
    let handle = metrics.register("bolt.emitted");
    g.bench_function("counter_handle_add", |b| {
        b.iter(|| {
            for _ in 0..reps {
                handle.add(black_box(1));
            }
        })
    });
    let legacy: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    g.bench_function("legacy_mutex_map_add", |b| {
        b.iter(|| {
            for _ in 0..reps {
                // What the old emit path did per tuple: build the key,
                // take the lock, hash into the map.
                *legacy
                    .lock()
                    .unwrap()
                    .entry(format!("{}.emitted", black_box("bolt")))
                    .or_insert(0) += 1;
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_platform, bench_counters);
criterion_main!(benches);
