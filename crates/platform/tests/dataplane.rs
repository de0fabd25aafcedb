//! Data-plane invariants: `All`-grouped fan-out must stay O(1)
//! allocations per delivered tuple and deliver every tuple to every
//! target, a keyed window must allocate a small constant per tuple,
//! tuple clones must share their `Arc`-interned payloads, and the
//! [`Frame`] pivot the benchmark prices must round-trip losslessly.

use sa_core::codec::ByteReader;
use sa_core::rng::SplitMix64;
use sa_core::{Merge, Synopsis};
use sa_platform::topology::vec_spout;
use sa_platform::{
    alloc_stats, run_topology, tuple_of, Bolt, CheckpointStore, ExecutorConfig, Frame,
    OutputCollector, Semantics, TopologyBuilder, Tuple, Value, WatermarkConfig, WindowBolt,
    WindowConfig, WindowSpec,
};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The allocation counters are process-global, so tests in this binary
/// run serially to keep diff-based measurements honest.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap()
}

fn random_value(rng: &mut SplitMix64, kind: u64) -> Value {
    match kind {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Float(f64::from_bits(0x3FF0_0000_0000_0000 | (rng.next_u64() >> 12))),
        2 => Value::Str(format!("s{}", rng.next_below(1000)).into()),
        3 => Value::Bool(rng.next_u64() & 1 == 0),
        _ => Value::Bytes(vec![rng.next_u64() as u8; (rng.next_below(16) + 1) as usize].into()),
    }
}

/// Property test: any uniform-schema batch pivots to a frame and back
/// bit-identically — values, event times, and ack metadata alike.
#[test]
fn frame_roundtrip_property() {
    let _g = serial();
    let mut rng = SplitMix64::new(0xF4A3E);
    for case in 0..200u64 {
        let arity = (rng.next_below(4) + 1) as usize;
        let schema: Vec<u64> = (0..arity).map(|_| rng.next_below(5)).collect();
        let rows = (rng.next_below(100) + 1) as usize;
        let batch: Vec<Tuple> = (0..rows)
            .map(|i| {
                let mut t = Tuple::new(
                    schema.iter().map(|&k| random_value(&mut rng, k)).collect::<Vec<_>>(),
                );
                t.id = rng.next_u64() | 1;
                t.root = rng.next_u64();
                t.lineage = i as u64 + 1;
                if rng.next_u64() & 1 == 0 {
                    t.event_time = Some(rng.next_u64());
                }
                t
            })
            .collect();
        let frame = Frame::from_batch(batch.clone())
            .unwrap_or_else(|_| panic!("case {case}: uniform batch rejected"));
        assert_eq!(frame.len(), rows);
        assert_eq!(frame.arity(), arity);
        let back = frame.to_batch();
        assert_eq!(back, batch, "case {case}: round-trip changed the batch");
    }
}

/// Mixed-schema batches must be handed back untouched.
#[test]
fn frame_rejects_mixed_schema_batches() {
    let _g = serial();
    let mixed = vec![tuple_of([Value::Int(1)]), tuple_of([Value::Str("x".into())])];
    match Frame::from_batch(mixed.clone()) {
        Ok(_) => panic!("mixed-discriminant batch must not pivot"),
        Err(rows) => assert_eq!(rows, mixed),
    }
}

const FANOUT: usize = 8;
const FANOUT_TUPLES: usize = 30_000;

/// A terminal bolt that just counts — the cost under measurement is
/// delivery, not processing.
struct CountBolt(u64);
impl Bolt for CountBolt {
    fn execute(&mut self, _input: &Tuple, _out: &mut OutputCollector) {
        self.0 += 1;
    }
    fn flush(&mut self, out: &mut OutputCollector) {
        out.emit(tuple_of([self.0 as i64]));
    }
}

/// Regression (this PR): `All`-grouped fan-out used to deep-clone the
/// whole tuple — values, string payloads and all — once per downstream
/// task. With `Arc`-interned payloads a clone is a few refcount bumps,
/// so allocations per *delivered* tuple must stay O(1) and, above all,
/// independent of payload size.
#[test]
fn all_grouped_fanout_allocs_per_tuple_is_constant() {
    let _g = serial();
    let payload = "x".repeat(512); // big enough that a deep clone would show
    let run = |n: usize| -> f64 {
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| tuple_of([Value::Str(payload.as_str().into()), Value::Int(i as i64)]))
            .collect();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout(tuples)]);
        let bolts: Vec<Box<dyn Bolt>> =
            (0..FANOUT).map(|_| Box::new(CountBolt(0)) as Box<dyn Bolt>).collect();
        tb.set_bolt("fan", bolts).all("src");
        let (a0, _) = alloc_stats::totals();
        let result = run_topology(
            tb,
            ExecutorConfig {
                semantics: Semantics::AtMostOnce,
                batch_linger: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let (a1, _) = alloc_stats::totals();
        let per_target: Vec<i64> = result.outputs["fan"]
            .iter()
            .map(|t| t.get(0).and_then(Value::as_int).unwrap())
            .collect();
        // Every target sees every tuple (so n × FANOUT in total).
        assert_eq!(per_target, vec![n as i64; FANOUT], "fan-out lost tuples");
        (a1 - a0) as f64 / (n * FANOUT) as f64
    };
    run(2_000); // warm-up: metrics registration, thread spawns, etc.
    let allocs_per_tuple = run(FANOUT_TUPLES);
    // Interned fan-out measures ~2-4 allocs per delivered tuple; the
    // old deep-clone path added one Vec + one String per clone (≥ 2
    // more, and growing with arity). Gate with headroom.
    assert!(
        allocs_per_tuple < 8.0,
        "fan-out allocates {allocs_per_tuple:.1} per delivered tuple — payload cloning is back?"
    );
}

/// Per-window event count: the window operator's cost is under
/// measurement, not the synopsis.
#[derive(Clone, Default)]
struct Count(u64);

impl Synopsis for Count {
    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> sa_core::Result<()> {
        let mut r = ByteReader::new(bytes);
        self.0 = r.get_u64()?;
        r.finish()
    }
}

impl Merge for Count {
    fn merge(&mut self, other: &Self) -> sa_core::Result<()> {
        self.0 += other.0;
        Ok(())
    }
}

const WINDOW_KEYS: usize = 100;
const WINDOW_SIZE: usize = 1_000;
const WINDOW_TUPLES: usize = 50_000;

/// A keyed tumbling window's panes are its only timer state, so an
/// applied tuple costs its grouping key and its pane, never a timer
/// registration: allocations per tuple stay a small constant.
#[test]
fn window_bolt_allocs_per_tuple_stay_small() {
    let _g = serial();
    let run = |n: usize| -> f64 {
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let key = format!("k{}", i % WINDOW_KEYS);
                tuple_of([Value::Str(key.into()), Value::Int(i as i64)]).at(i as u64)
            })
            .collect();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout(tuples)]);
        let cfg = WindowConfig::new(WindowSpec::Tumbling { size: WINDOW_SIZE as u64 }, vec![0])
            .lateness(100);
        let count = |_: &Tuple, c: &mut Count| c.0 += 1;
        let win = WindowBolt::new("win/0", &CheckpointStore::new(), Count::default(), cfg, count);
        tb.set_bolt("win", vec![Box::new(win.unwrap()) as Box<dyn Bolt>]).fields("src", vec![0]);
        let (a0, _) = alloc_stats::totals();
        let result = run_topology(
            tb,
            ExecutorConfig {
                semantics: Semantics::AtMostOnce,
                watermarks: Some(WatermarkConfig::bounded(5)),
                ..Default::default()
            },
        )
        .unwrap();
        let (a1, _) = alloc_stats::totals();
        // An in-order stream: every (key, window) fires exactly once.
        assert_eq!(result.outputs["win"].len(), n / WINDOW_SIZE * WINDOW_KEYS);
        (a1 - a0) as f64 / n as f64
    };
    run(2_000); // warm-up: metrics registration, thread spawns, etc.
    let allocs_per_tuple = run(WINDOW_TUPLES);
    // ~5 per tuple (key string, pane key, spout and link bookkeeping);
    // a per-tuple timer registration adds four more key clones.
    assert!(
        allocs_per_tuple < 6.0,
        "a windowed tuple allocates {allocs_per_tuple:.1} times — per-tuple timers are back?"
    );
}

/// Clones must share payload storage, not copy it (the mechanism the
/// fan-out gate above relies on).
#[test]
fn tuple_clone_shares_interned_payloads() {
    let _g = serial();
    let t = tuple_of([Value::Str("shared".into()), Value::Bytes(vec![1, 2, 3].into())]);
    let (a0, _) = alloc_stats::totals();
    let clones: Vec<Tuple> = (0..1000).map(|_| t.clone()).collect();
    let (a1, _) = alloc_stats::totals();
    assert!(Arc::ptr_eq(&t.values, &clones[999].values), "clone re-allocated values");
    // The only allocation 1000 clones may perform is the collecting Vec
    // itself (plus its growth doublings).
    assert!(a1 - a0 < 32, "{} allocations for 1000 clones", a1 - a0);
}
