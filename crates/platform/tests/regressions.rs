//! Regression tests for the executor bugfixes shipped with the
//! observability layer. Each test is constructed to fail against the
//! pre-fix behaviour:
//!
//! * **shutdown**: only a full `shutdown_timeout` without *progress*
//!   (no emission, no settled root) is unclean — the old hard cap at
//!   4× the timeout of total runtime falsely flagged long trickle runs;
//! * **replay accounting**: `replayed_roots` counts actual requeues
//!   (the spout's decision), not every failure — the old code bumped
//!   both counters unconditionally;
//! * **fields grouping**: low-entropy field combinations must still
//!   spread across the fanout — the old raw-XOR hash combine collapsed
//!   duplicated field indices to `h = 0`, piling the whole stream onto
//!   task 0.
//! * **scheduler leak**: a run must free its tasks' state when it
//!   returns — the scheduler's wake hooks used to own the scheduler
//!   that (through slots, routes and senders) owned them, a cycle that
//!   kept every bolt alive after every pool run;
//! * **unsupervised panic**: a callback the runtime does not supervise
//!   (`Spout::ack`) that panics must fail the run with an error under
//!   both drivers — the pool used to wait forever on the dead slot.

use sa_platform::topology::{vec_spout, Spout};
use sa_platform::tuple::tuple_of;
use sa_platform::{
    run_topology, Bolt, ExecutorConfig, OutputCollector, Scheduling, Semantics, TopologyBuilder,
    Tuple,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Emits `remaining` tuples with a fixed wall-clock gap between them —
/// a slow external source. Failures are dropped (unreliable source).
struct TrickleSpout {
    remaining: u64,
    gap: Duration,
    last_emit: Option<Instant>,
    next_id: u64,
    in_flight: HashSet<u64>,
}

impl TrickleSpout {
    fn new(count: u64, gap: Duration) -> Self {
        Self { remaining: count, gap, last_emit: None, next_id: 0, in_flight: HashSet::new() }
    }
}

impl Spout for TrickleSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        if self.last_emit.is_some_and(|t| t.elapsed() < self.gap) {
            return None;
        }
        self.remaining -= 1;
        self.last_emit = Some(Instant::now());
        self.next_id += 1;
        let mut t = tuple_of([self.next_id as i64]);
        t.root = self.next_id;
        self.in_flight.insert(self.next_id);
        Some(t)
    }

    fn ack(&mut self, root: u64) {
        self.in_flight.remove(&root);
    }

    fn fail(&mut self, root: u64) -> bool {
        self.in_flight.remove(&root);
        false
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.remaining as usize
    }
}

/// A trickle run whose total duration far exceeds 4× the shutdown
/// timeout must stay clean: every idle gap is short and every emission
/// and ack is progress. (Pre-fix, the hard cap on total runtime marked
/// it unclean around the 4× mark.)
#[test]
fn trickle_run_longer_than_4x_timeout_stays_clean() {
    let timeout = Duration::from_millis(100);
    let tuples = 30;
    let gap = Duration::from_millis(20); // total ≈ 600ms ≫ 4 × 100ms
    let mut tb = TopologyBuilder::new();
    tb.set_spout("trickle", vec![Box::new(TrickleSpout::new(tuples, gap)) as Box<dyn Spout>]);
    tb.set_bolt(
        "echo",
        vec![Box::new(|t: &Tuple, out: &mut OutputCollector| out.emit(t.clone())) as Box<dyn Bolt>],
    )
    .shuffle("trickle");
    let cfg = ExecutorConfig {
        semantics: Semantics::AtLeastOnce,
        shutdown_timeout: timeout,
        batch_size: 4,
        ..Default::default()
    };
    let result = run_topology(tb, cfg).unwrap();
    assert!(result.clean_shutdown, "slow-but-progressing run falsely flagged unclean");
    assert_eq!(result.outputs["echo"].len(), tuples as usize);
}

/// A spout that drops failures performs no replays, so `replayed_roots`
/// must stay 0 while `failed_roots` counts every rejection.
#[test]
fn dropped_failures_are_not_counted_as_replays() {
    struct DropSpout {
        remaining: u64,
        in_flight: HashSet<u64>,
    }
    impl Spout for DropSpout {
        fn next_tuple(&mut self) -> Option<Tuple> {
            if self.remaining == 0 {
                return None;
            }
            let id = self.remaining;
            self.remaining -= 1;
            let mut t = tuple_of([id as i64]);
            t.root = id;
            self.in_flight.insert(id);
            Some(t)
        }
        fn ack(&mut self, root: u64) {
            self.in_flight.remove(&root);
        }
        fn fail(&mut self, root: u64) -> bool {
            // Unreliable source: the failure is final, nothing requeues.
            self.in_flight.remove(&root);
            false
        }
        fn pending(&self) -> usize {
            self.in_flight.len()
        }
    }

    let n = 50u64;
    let mut tb = TopologyBuilder::new();
    tb.set_spout(
        "src",
        vec![Box::new(DropSpout { remaining: n, in_flight: HashSet::new() }) as Box<dyn Spout>],
    );
    tb.set_bolt(
        "reject",
        vec![Box::new(|_: &Tuple, out: &mut OutputCollector| out.fail()) as Box<dyn Bolt>],
    )
    .shuffle("src");
    let cfg = ExecutorConfig { semantics: Semantics::AtLeastOnce, ..Default::default() };
    let result = run_topology(tb, cfg).unwrap();
    let snap = result.metrics.snapshot();
    assert_eq!(snap.failed_roots, n);
    assert_eq!(snap.replayed_roots, 0, "dropped failures must not count as replays");
    assert!(result.clean_shutdown);
}

/// Fields grouping on a duplicated field index over sequential integer
/// keys: pre-fix every tuple landed on task 0 (XOR self-cancellation);
/// post-fix the stream spreads across all tasks.
#[test]
fn duplicated_field_indices_still_spread_across_tasks() {
    let fanout = 4usize;
    let n = 2000i64;
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..fanout).map(|_| AtomicUsize::new(0)).collect());
    let bolts: Vec<Box<dyn Bolt>> = (0..fanout)
        .map(|i| {
            let counts = counts.clone();
            Box::new(move |_: &Tuple, _: &mut OutputCollector| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn Bolt>
        })
        .collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("keys", vec![vec_spout((0..n).map(|i| tuple_of([i])).collect())]);
    tb.set_bolt("counter", bolts).fields("keys", vec![0, 0]);
    let result = run_topology(tb, ExecutorConfig::default()).unwrap();
    assert!(result.clean_shutdown);
    let observed: Vec<usize> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    assert_eq!(observed.iter().sum::<usize>(), n as usize);
    let fair = n as usize / fanout;
    for &c in &observed {
        assert!(
            c >= fair / 2 && c <= fair * 2,
            "fields grouping skewed across tasks: {observed:?}"
        );
    }
}

const DRIVERS: [Scheduling; 2] =
    [Scheduling::ThreadPerTask, Scheduling::WorkStealing { workers: 2 }];

/// Whatever a bolt owns must be gone once `run_topology` has returned
/// and its result is dropped. (Pre-fix, `WorkStealing` left both
/// clones of the token alive: count 3.)
#[test]
fn a_finished_run_frees_its_bolts() {
    struct Holding(#[allow(dead_code)] Arc<()>);
    impl Bolt for Holding {
        fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
            out.emit(input.clone());
        }
    }
    for scheduling in DRIVERS {
        let token = Arc::new(());
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout((0..100i64).map(|i| tuple_of([i])).collect())]);
        let bolts: Vec<_> =
            (0..2).map(|_| Box::new(Holding(token.clone())) as Box<dyn Bolt>).collect();
        tb.set_bolt("hold", bolts).shuffle("src");
        let result = run_topology(tb, ExecutorConfig { scheduling, ..Default::default() }).unwrap();
        assert_eq!(result.outputs["hold"].len(), 100);
        drop(result);
        assert_eq!(Arc::strong_count(&token), 1, "{scheduling:?} leaked its bolts");
    }
}

/// `Spout::ack` runs outside supervision; when it panics the spout's
/// slot can never finish. The run must end with the panic as its
/// error, not hang.
#[test]
fn a_panic_outside_supervision_fails_the_run() {
    struct AckPanics(u64);
    impl Spout for AckPanics {
        fn next_tuple(&mut self) -> Option<Tuple> {
            (self.0 < 10).then(|| {
                self.0 += 1;
                let mut t = tuple_of([self.0 as i64]);
                t.root = self.0;
                t
            })
        }
        fn ack(&mut self, _root: u64) {
            panic!("ack blew up");
        }
        fn pending(&self) -> usize {
            1
        }
    }
    for scheduling in DRIVERS {
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![Box::new(AckPanics(0)) as Box<dyn Spout>]);
        tb.set_bolt(
            "echo",
            vec![Box::new(|t: &Tuple, out: &mut OutputCollector| out.emit(t.clone()))
                as Box<dyn Bolt>],
        )
        .shuffle("src");
        let err = run_topology(tb, ExecutorConfig { scheduling, ..Default::default() })
            .expect_err("the panic must surface");
        assert!(err.to_string().contains("ack blew up"), "{scheduling:?}: {err}");
    }
}
