//! Pin: an idle-but-running topology must not busy-wait. Both
//! drivers block on condvars (per-slot wake cells under
//! thread-per-task, run-queue parking under the pool) instead of
//! sleep-polling, so a topology whose spout has gone quiet should
//! accumulate almost no CPU time while it waits out the shutdown
//! timeout.
//!
//! This lives in its own test binary so the `/proc/self/stat` CPU
//! reading is not polluted by sibling tests running in other threads
//! of the same process.

use sa_platform::topology::{Spout, TopologyBuilder};
use sa_platform::{
    run_topology, Bolt, ExecutorConfig, OutputCollector, Scheduling, Semantics, Tuple, Value,
};
use std::time::Duration;

/// Emits a short burst, then sits "idle with work pending" forever:
/// `pending() == 1` keeps the at-least-once shutdown gate open, so the
/// run only ends when `shutdown_timeout` expires. The window between
/// the burst draining and that timeout is the idle period under test.
struct StallSpout {
    left: usize,
}

impl Spout for StallSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(Tuple::new(vec![Value::Int(self.left as i64)]))
    }

    fn pending(&self) -> usize {
        1
    }
}

/// Process CPU time (user + system) from `/proc/self/stat`, in
/// milliseconds. Linux-only; callers gate on the parse succeeding.
fn cpu_time_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 is `(comm)` and may contain spaces; skip past the
    // closing paren, then utime/stime are fields 14/15 (1-indexed),
    // i.e. offsets 11/12 after the paren.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut it = rest.split_whitespace();
    let utime: u64 = it.nth(11)?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    let ticks = utime + stime;
    // CLK_TCK is 100 on every Linux configuration we run on.
    Some(ticks * 10)
}

fn idle_run(scheduling: Scheduling) {
    let mut tb = TopologyBuilder::new();
    tb.set_spout("stall", vec![Box::new(StallSpout { left: 5 }) as Box<dyn Spout>]);
    let sink = |_t: &Tuple, _out: &mut OutputCollector| {};
    tb.set_bolt("sink", vec![Box::new(sink) as Box<dyn Bolt>]).shuffle("stall");
    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling,
            semantics: Semantics::AtLeastOnce,
            shutdown_timeout: Duration::from_millis(600),
            seed: 11,
            ..Default::default()
        },
    )
    .unwrap();
    // The stalled spout forces the timeout path — the point is what the
    // workers did (nothing) while waiting for it.
    assert!(!result.clean_shutdown, "StallSpout should trip the shutdown timeout");
    assert_eq!(result.metrics.snapshot().acked_roots, 5);
}

/// ~1.2 s of wall-clock idling across both schedulers must cost well
/// under a quarter of one core. Before the condvar rework, the
/// sleep-poll loops burned CPU the whole time; parked workers and
/// wake-cell waits make the idle period nearly free. The budget is
/// generous (it tolerates 2 ms settle sweeps and CI-noise) but a
/// regression to spinning blows through it immediately.
#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/stat")]
fn idle_topology_stays_within_cpu_budget() {
    let Some(before) = cpu_time_ms() else {
        eprintln!("cannot read /proc/self/stat; skipping");
        return;
    };
    idle_run(Scheduling::ThreadPerTask);
    idle_run(Scheduling::WorkStealing { workers: 2 });
    let after = cpu_time_ms().unwrap();
    let spent = after - before;
    assert!(spent < 300, "idle topologies burned {spent} ms of CPU over ~1.2 s of wall time");
}
