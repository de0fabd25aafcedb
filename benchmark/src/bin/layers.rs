//! `layers`: single-threaded replays of each layer's public functions
//! on the benchmark's own generated input (source **R** in the README).
//!
//! Unlike `e2e`, this binary reaches below the `Query` front door —
//! `channel`, `Acker`, `Frame`, `ServingView`, `MemStorage`, routing
//! hashes. If a refactor removes one of them it stops compiling; `e2e`
//! then reports these rows `skipped` and the end-to-end pass goes on.
//!
//! Every figure is the fastest of a few repeats: on the shared host
//! this is calibrated on, interference only ever adds time.
//!
//! Output, one line per metric: `name value`; `# key value` for notes.

use sa_benchmark::gen::{Generator, Rec, KEYS};
use sa_benchmark::reference::{self, SketchReference, WindowReference};
use sa_benchmark::stats;
use sa_core::codec::ByteWriter;
use sa_core::stats::OnlineStats;
use sa_core::Synopsis;
use sa_platform::acker::Acker;
use sa_platform::{
    channel, key_group, task_of_group, Batch, CheckpointStore, DiskStorage, DurableConfig, Frame,
    Log, MemStorage, ServingView, Storage, SyncPolicy, Tuple, Value, ViewEntry,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Repeats of each replay; the fastest is reported.
const REPEATS: usize = 5;
/// Tuples per link batch (`ExecutorConfig::default().batch_size`).
const BATCH: usize = 64;
/// Tuples per checkpoint commit (the jobs' `checkpoint_every`).
const COMMIT_IDS: u64 = 256;

struct Args {
    windowed: bool,
    seed: u64,
    table_keys: usize,
    commit_bytes: usize,
    disk: bool,
    work_dir: PathBuf,
    records: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        windowed: true,
        seed: 1,
        table_keys: KEYS,
        commit_bytes: 0,
        disk: false,
        work_dir: PathBuf::from("benchmark/out/layers-work"),
        records: 204_800,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--job" => args.windowed = value == "window",
            "--seed" => args.seed = number()?,
            "--table-keys" => args.table_keys = number()? as usize,
            "--commit-bytes" => args.commit_bytes = number()? as usize,
            "--backing" => args.disk = value == "disk",
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--records" => args.records = number()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Fastest of `REPEATS` runs of `f`, which returns one measurement.
fn fastest(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn emit(name: &str, value: f64) {
    println!("{name} {value}");
}

fn note(key: &str, value: impl std::fmt::Display) {
    println!("# {key} {value}");
}

/// The tuple the jobs' decode closure builds from a log record.
fn tuple_of(names: &[String], rec: &Rec, id: u64) -> Tuple {
    let mut t = Tuple::new(vec![
        Value::Str(names[rec.key as usize].as_str().into()),
        Value::Int(rec.value),
    ])
    .at(rec.event_time);
    t.lineage = id;
    t.root = id;
    t.id = id;
    t
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("layers: {why}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut generator = Generator::new(args.seed);
    let recs: Vec<Rec> = (0..args.records).map(|_| generator.synthetic()).collect();
    let names = generator.names().to_vec();
    let n = recs.len() as f64;

    log_read(&recs, &names);
    let batches: Vec<Batch> = recs
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, r)| tuple_of(&names, r, (b * BATCH + i + 1) as u64))
                .collect()
        })
        .collect();
    frames(&batches, n);
    channel_hop(&batches);
    routing(&batches, n);
    acker(recs.len() as u64);
    kernels(&recs, &names, n);
    let (window_rate, sketch_rate) = references(&recs, &names, n);
    emit("reference.ktuples_s", if args.windowed { window_rate } else { sketch_rate });
    let value = checkpoint_value(&args, &recs, &names);
    if let Err(e) = commits(&args, &value) {
        eprintln!("layers: commit replay: {e}");
        return std::process::ExitCode::from(1);
    }
    serving(&args, &names);
    std::process::ExitCode::SUCCESS
}

/// `log.read_ns_per_record`: the spout's read pattern (chunks of 256)
/// over an in-memory log holding one round's input.
fn log_read(recs: &[Rec], names: &[String]) {
    let log = Log::new(1).expect("one partition is valid");
    for r in recs {
        log.append_at(&names[r.key as usize], r.value.to_le_bytes().to_vec(), r.event_time);
    }
    let ns = fastest(|| {
        let start = Instant::now();
        let mut offset = 0;
        loop {
            let chunk = log.read(0, offset, 256);
            if chunk.is_empty() {
                break;
            }
            offset += chunk.len() as u64;
            black_box(&chunk);
        }
        start.elapsed().as_nanos() as f64 / recs.len() as f64
    });
    emit("log.read_ns_per_record", ns);
}

/// `frame.*`: pivot a row batch into columns and back.
fn frames(batches: &[Batch], rows: f64) {
    let pivot = fastest(|| {
        let input: Vec<Batch> = batches.to_vec();
        let start = Instant::now();
        for batch in input {
            black_box(Frame::from_batch(batch).ok());
        }
        start.elapsed().as_nanos() as f64 / rows
    });
    emit("frame.pivot_ns_per_row", pivot);
    let pivoted: Vec<Frame> =
        batches.iter().filter_map(|b| Frame::from_batch(b.clone()).ok()).collect();
    if pivoted.len() != batches.len() {
        println!("frame.unpivot_ns_per_row skipped the job's tuples do not pivot into a frame");
        return;
    }
    let unpivot = fastest(|| {
        let start = Instant::now();
        for frame in &pivoted {
            black_box(frame.to_batch());
        }
        start.elapsed().as_nanos() as f64 / rows
    });
    emit("frame.unpivot_ns_per_row", unpivot);
}

/// `channel.hop_ns_per_batch`: one bounded send plus its receive, both
/// on this thread (no wake-up, no contention: the floor of a hop).
fn channel_hop(batches: &[Batch]) {
    let ns = fastest(|| {
        let (tx, rx) = channel::channel::<Batch>(Some(1024));
        let input: Vec<Batch> = batches.to_vec();
        let hops = input.len() as f64;
        let start = Instant::now();
        for batch in input {
            if tx.send(batch).is_err() {
                break;
            }
            black_box(rx.recv().ok());
        }
        start.elapsed().as_nanos() as f64 / hops
    });
    emit("channel.hop_ns_per_batch", ns);
}

/// `routing.hash_ns_per_tuple`: key field → key group → task of 2.
fn routing(batches: &[Batch], tuples: f64) {
    let ns = fastest(|| {
        let start = Instant::now();
        let mut spread = [0u64; 2];
        for t in batches.iter().flatten() {
            spread[task_of_group(key_group(t, &[0]), 2)] += 1;
        }
        black_box(spread);
        start.elapsed().as_nanos() as f64 / tuples
    });
    emit("routing.hash_ns_per_tuple", ns);
}

/// `acker.cycle_ns_per_root`: register a root, ack its one edge, drain
/// the completions once per batch, as the spout does.
fn acker(roots: u64) {
    let ns = fastest(|| {
        let mut acker = Acker::new();
        let start = Instant::now();
        for root in 1..=roots {
            let edge = root.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            acker.init(root, edge);
            black_box(acker.ack(root, edge));
            if root % BATCH as u64 == 0 {
                black_box(acker.take_completed());
            }
        }
        start.elapsed().as_nanos() as f64 / roots as f64
    });
    emit("acker.cycle_ns_per_root", ns);
}

/// `kernel.*`: the aggregates' update kernels alone.
fn kernels(recs: &[Rec], names: &[String], n: f64) {
    let online = fastest(|| {
        let mut s = OnlineStats::new();
        let start = Instant::now();
        for r in recs {
            s.push(r.value as f64);
        }
        black_box(&s);
        start.elapsed().as_nanos() as f64 / n
    });
    emit("kernel.onlinestats_ns", online);
    let countmin = fastest(|| {
        let mut s = reference::sketch_template();
        let start = Instant::now();
        for r in recs {
            s.add(names[r.key as usize].as_str(), 1);
        }
        black_box(&s);
        start.elapsed().as_nanos() as f64 / n
    });
    emit("kernel.countmin_ns", countmin);
    let hashes: Vec<u64> = recs
        .iter()
        .map(|r| sa_core::hash::hash64(names[r.key as usize].as_str(), 0xCAFE))
        .collect();
    let bulk = fastest(|| {
        let mut s = reference::sketch_template();
        let start = Instant::now();
        for chunk in hashes.chunks(BATCH) {
            s.add_hashes(chunk, 1);
        }
        black_box(&s);
        start.elapsed().as_nanos() as f64 / n
    });
    emit("kernel.countmin_bulk_ns_per_row", bulk);
}

/// `reference.ktuples_s`: the whole job, single-threaded, no engine —
/// the baseline the engine's throughput should be read against.
/// Returns `(J.window, J.sketch)` in ktuples/s.
fn references(recs: &[Rec], names: &[String], n: f64) -> (f64, f64) {
    let window = fastest(|| {
        let mut reference = WindowReference::new();
        let start = Instant::now();
        for r in recs {
            reference.push(r);
        }
        black_box(reference.groups());
        start.elapsed().as_secs_f64()
    });
    let sketch = fastest(|| {
        let mut reference = SketchReference::new();
        let start = Instant::now();
        for r in recs {
            reference.push(&names[r.key as usize]);
        }
        black_box(reference.total());
        start.elapsed().as_secs_f64()
    });
    (n / window / 1e3, n / sketch / 1e3)
}

/// Build a checkpoint value of the size the traced run saw and time
/// its encoding (`checkpoint.encode_us_per_commit`).
///
/// `J.sketch` checkpoints `CountMin::snapshot()`. `J.window`'s encoder
/// is private to the window operator, so the replay encodes the same
/// shape — per live (key, window): key, bounds, dirty flag, aggregate
/// snapshot — for as many groups as make up the observed size.
fn checkpoint_value(args: &Args, recs: &[Rec], names: &[String]) -> Vec<u8> {
    if !args.windowed {
        let mut sketch = reference::sketch_template();
        for r in recs.iter().take(50_000) {
            sketch.add(names[r.key as usize].as_str(), 1);
        }
        let us = fastest(|| {
            let start = Instant::now();
            for _ in 0..50 {
                black_box(sketch.snapshot());
            }
            start.elapsed().as_secs_f64() * 1e6 / 50.0
        });
        emit("checkpoint.encode_us_per_commit", us);
        return sketch.snapshot();
    }
    let mut agg = OnlineStats::new();
    agg.push(1.0);
    let per_group = names[0].len() + 8 + 8 + 8 + 1 + 8 + agg.snapshot().len();
    let groups = (args.commit_bytes / per_group).max(1);
    note("checkpoint_groups", groups);
    let live: Vec<(String, u64, OnlineStats)> = (0..groups)
        .map(|g| (names[g % names.len()].clone(), (g / names.len()) as u64 * 100, agg.clone()))
        .collect();
    let encode = || {
        let mut w = ByteWriter::new();
        w.tag(b'W').put_u64(live.len() as u64);
        for (key, start, agg) in &live {
            w.put_str(key)
                .put_u64(*start)
                .put_u64(start + 100)
                .put_bool(true)
                .put_bytes(&agg.snapshot());
        }
        w.put_u64(0);
        w.finish()
    };
    let us = fastest(|| {
        let start = Instant::now();
        for _ in 0..50 {
            black_box(encode());
        }
        start.elapsed().as_secs_f64() * 1e6 / 50.0
    });
    emit("checkpoint.encode_us_per_commit", us);
    encode()
}

/// Per-commit latencies (µs) of `rounds` commits of `value` with 256
/// fresh ids each, followed by the operator's dedup-token GC.
fn commit_latencies(
    store: &CheckpointStore,
    value: &[u8],
    rounds: u64,
) -> sa_core::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        let ids: Vec<u64> = (round * COMMIT_IDS + 1..=(round + 1) * COMMIT_IDS).collect();
        let payload = value.to_vec();
        let start = Instant::now();
        store.commit_batch("replay/0", &ids, payload)?;
        store.gc("replay/0", ((round + 1) * COMMIT_IDS).saturating_sub(65_536));
        out.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::sort(&mut out);
    Ok(out)
}

/// `checkpoint.commit_us_*`: `commit_batch` on the workload's kind of
/// store. Also times a plain store and a durable store over
/// `MemStorage`; their difference is the WAL framing that a durable
/// commit pays above the `Storage` trait (budget: storage row).
fn commits(args: &Args, value: &[u8]) -> sa_core::Result<()> {
    let rounds = 300;
    let plain = commit_latencies(&CheckpointStore::new(), value, rounds)?;
    let plain_p50 = stats::quantile(&plain, 0.5).unwrap_or(0.0);
    note("commit_mem_us_p50", plain_p50);
    let config = DurableConfig { sync: SyncPolicy::EveryN(8), ..DurableConfig::default() };
    let mem: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let framed = commit_latencies(&CheckpointStore::durable(mem, "ckpt", config)?, value, rounds)?;
    let framed_p50 = stats::quantile(&framed, 0.5).unwrap_or(0.0);
    note("commit_framing_us_p50", (framed_p50 - plain_p50).max(0.0));
    let reported = if args.disk {
        let _ = std::fs::remove_dir_all(&args.work_dir);
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::new(&args.work_dir)?);
        let on_disk =
            commit_latencies(&CheckpointStore::durable(disk, "ckpt", config)?, value, rounds);
        let _ = std::fs::remove_dir_all(&args.work_dir);
        on_disk?
    } else {
        plain
    };
    emit("checkpoint.commit_us_p50", stats::quantile(&reported, 0.5).unwrap_or(0.0));
    emit("checkpoint.commit_us_p99", stats::quantile(&reported, 0.99).unwrap_or(0.0));
    note("commit_value_bytes", value.len());
    Ok(())
}

/// `serving.*`: publish a table of the workload's size the way the
/// serve bolt builds it (one aggregate restored from bytes per key),
/// half of the publishes beside a reader that keeps pinning epochs;
/// then the point read alone.
fn serving(args: &Args, names: &[String]) {
    if args.windowed {
        let mut agg = OnlineStats::new();
        agg.push(1.0);
        serving_of(args, names, OnlineStats::new(), agg.snapshot());
    } else {
        let snapshot = reference::sketch_template().snapshot();
        serving_of(args, names, reference::sketch_template(), snapshot);
    }
}

fn serving_of<S>(args: &Args, names: &[String], template: S, bytes: Vec<u8>)
where
    S: Synopsis + Clone + Send + Sync + 'static,
{
    let keys: Vec<String> = if args.windowed {
        names.iter().take(args.table_keys).cloned().collect()
    } else {
        vec![String::new()]
    };
    let view: ServingView<ViewEntry<S>> = ServingView::new();
    let build = || {
        let mut table = HashMap::with_capacity(keys.len());
        for key in &keys {
            let mut agg = template.clone();
            if agg.restore(&bytes).is_ok() {
                table.insert(
                    key.clone(),
                    ViewEntry { agg, window: args.windowed.then_some((0, 100)) },
                );
            }
        }
        table
    };
    let mut publish_us = Vec::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for pass in 0..2 {
            let reader = (pass == 1).then(|| {
                scope.spawn(|| {
                    let mut i = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        black_box(view.get(&keys[i % keys.len()]));
                        i += 1;
                    }
                })
            });
            for epoch in 0..100u64 {
                let start = Instant::now();
                view.publish(build(), epoch);
                publish_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            stop.store(true, Ordering::Release);
            if let Some(reader) = reader {
                reader.join().expect("reader thread panicked");
            }
            stop.store(false, Ordering::Release);
        }
    });
    stats::sort(&mut publish_us);
    emit("serving.publish_us_p50", stats::quantile(&publish_us, 0.5).unwrap_or(0.0));
    emit("serving.publish_us_p99", stats::quantile(&publish_us, 0.99).unwrap_or(0.0));
    let reads = 200_000usize;
    let get_ns = fastest(|| {
        let start = Instant::now();
        for i in 0..reads {
            black_box(view.get(&keys[i % keys.len()]));
        }
        start.elapsed().as_nanos() as f64 / reads as f64
    });
    emit("serving.get_ns", get_ns);
}
