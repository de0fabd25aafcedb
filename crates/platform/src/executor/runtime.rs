//! The runtime: operator tasks live in *slots*, and a **driver** maps
//! slots onto OS threads. Wiring, routing tables, inboxes, rescale
//! registration, task contexts, seeds, the activation
//! (`run_slot`) and the flush/terminate protocol exist once, for both
//! drivers.
//!
//! An *activation* is "run this task against its pending input": a bolt
//! drains its inbox through its `BoltCore`, a spout runs a slice of its
//! loop. Whoever wants a slot to run calls `Sched::schedule`; the
//! driver decides which thread does it:
//!
//! * **Dedicated** ([`crate::Scheduling::ThreadPerTask`]): every slot
//!   owns an OS thread that loops `run_slot` and sleeps on the slot's
//!   `WakeCell` in between. Inboxes are bounded, so a slow consumer
//!   blocks its producers (Heron-style backpressure).
//! * **Pool** ([`crate::Scheduling::WorkStealing`]; the name is
//!   historical): N workers sharing one FIFO [`RunQueue`] that every
//!   enqueue goes to, on whose condvar idle workers park; a timer heap
//!   for the two delayed re-activations (a spout's ack-settle sweep, a
//!   bolt's held-ack commit retry). Inboxes are unbounded — a worker
//!   must never block in `send`.
//!
//! Under both, a slot is one spout task or one bolt task: every hop
//! between two components is a channel hop.
//!
//! Supervision wraps activations, not threads: a panic backs off and
//! rebuilds the task's state inside its slot, and the slot runs again.
//!
//! ## Why a slot never loses a wakeup
//!
//! An inbox send invokes `schedule(slot)`: claim `scheduled` via
//! `swap(true)`; only the winner enqueues. A finishing runner clears
//! the flag with `store(false)` and *then* re-checks the inbox: any
//! message that raced in either (a) arrived before the clear — the
//! runner's re-check sees it, re-claims, re-enqueues — or (b) arrived
//! after — the sender's own `schedule` sees `scheduled == false` and
//! enqueues. Enqueueing is lost-wakeup-free per driver: a pool worker
//! parks with its parked count under the run queue's lock, the lock
//! every push takes; a dedicated thread re-checks its cell's `pending`
//! bit under the cell's mutex before every wait. (A dedicated thread
//! also runs its slot unclaimed when a deadline or the park ceiling
//! expires: no other thread ever runs that slot, so the claim guards
//! nothing there, and every path that leaves `scheduled` set also sets
//! `pending`.)

use super::bolt::BoltCore;
use super::spout::{SpoutCore, SpoutStep};
use super::task::TaskCtx;
use super::{Msg, Route, RunCore, RunResult, Sender};
use crate::channel::{link, Receiver, RunQueue};
use crate::metrics::SchedCounters;
use crate::supervise::panic_message;
use sa_core::{Result, SaError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuples processed per bolt activation before the slot yields (keeps
/// a backlogged task from monopolizing a pool worker). Budgeting in tuples
/// rather than messages makes the fairness slice batch-size-agnostic:
/// an activation amortizes its fixed costs (unit lock, claim hand-off,
/// run-queue requeue) over ~2k tuples whether they arrive as 64-tuple
/// batches or singletons.
const DRAIN_TUPLES: usize = 2048;
/// Messages pulled from the inbox per lock acquisition (bulk drain).
const DRAIN_MSGS: usize = 32;
/// Spout-loop iterations per activation (same fairness bound).
const SPOUT_SLICE: usize = 128;
/// How soon a bolt task holding acks is re-run with an empty inbox:
/// the quiet tick a task without `emit_on_commit` (every windowed `Query`)
/// waits for before it commits its tail (`operator::Checkpointed`), and
/// the retry of a failed commit, which makes one attempt per call.
const HELD_RETRY: Duration = Duration::from_millis(1);
/// Idle-spout settle sweep cadence (the visit also expires stale trees).
const SETTLE_SWEEP: Duration = Duration::from_millis(2);
/// Park ceiling: a pool worker re-checks shutdown, and a dedicated
/// thread re-runs its slot, at least this often.
const PARK_MAX: Duration = Duration::from_millis(100);

/// One schedulable unit: a spout task, or a bolt task with its inbox.
/// The activation
/// that finishes a task takes its state out and drops it — on the
/// thread that ran it, not on the coordinator at teardown.
enum SlotKind {
    Spout(Mutex<Option<Box<SpoutCore>>>),
    Bolt { unit: Mutex<Option<Box<BoltCore>>>, rx: Receiver<Msg> },
}

struct Slot {
    kind: SlotKind,
    /// Claimed-for-execution flag (see module docs).
    scheduled: AtomicBool,
    /// Terminal: the task ran to completion; never scheduled again.
    finished: AtomicBool,
}

/// Where a dedicated thread sleeps between activations of its slot.
#[derive(Default)]
struct WakeCell {
    state: Mutex<WakeState>,
    cv: Condvar,
}

#[derive(Default)]
struct WakeState {
    /// The slot was enqueued since its thread last woke.
    pending: bool,
    /// Earliest requested delayed re-activation.
    deadline: Option<Instant>,
    /// The thread is in `wait` (gates the notify syscall).
    parked: bool,
}

impl WakeCell {
    fn update(&self, f: impl FnOnce(&mut WakeState)) {
        let mut st = self.state.lock().expect("wake cell lock poisoned");
        f(&mut st);
        if st.parked {
            self.cv.notify_one();
        }
    }

    /// Sleep until the slot is enqueued or its deadline passes (at most
    /// [`PARK_MAX`]), then clear both.
    fn sleep(&self) {
        let mut st = self.state.lock().expect("wake cell lock poisoned");
        if !st.pending {
            // (A busy slot re-enqueues itself and never reads the clock.)
            let ceiling = Instant::now() + PARK_MAX;
            loop {
                let until = st.deadline.map_or(ceiling, |d| d.min(ceiling));
                let now = Instant::now();
                if st.pending || now >= until {
                    break;
                }
                st.parked = true;
                st = self.cv.wait_timeout(st, until - now).expect("wake cell lock poisoned").0;
                st.parked = false;
            }
        }
        st.pending = false;
        st.deadline = None;
    }
}

/// The shared pool's run queue and timers.
struct Pool {
    queue: RunQueue,
    /// Delayed re-activations: `(deadline, slot)` min-heap.
    timers: Mutex<BinaryHeap<Reverse<(Instant, usize)>>>,
}

/// How slots map onto OS threads (see the module docs).
enum Driver {
    /// One wake cell per slot.
    Dedicated(Vec<WakeCell>),
    Pool(Pool),
}

/// Shared scheduler state. Slots are filled once (before any thread
/// starts) and immutable thereafter.
struct Sched {
    driver: Driver,
    slots: OnceLock<Vec<Slot>>,
    shutdown: AtomicBool,
    /// Coordinator waits here for slots to finish.
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

impl Sched {
    fn new(driver: Driver) -> Self {
        Self {
            driver,
            slots: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    fn slots(&self) -> &[Slot] {
        self.slots.get().expect("slots set before workers start")
    }

    /// Request that `s` run (inbox wake hooks, ack progress, timers).
    /// Exactly one concurrent caller wins the `scheduled` claim and
    /// enqueues; the rest are free no-ops.
    fn schedule(&self, s: usize) {
        let Some(slots) = self.slots.get() else { return };
        let slot = &slots[s];
        if slot.finished.load(Ordering::Acquire) {
            return;
        }
        if slot.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        self.enqueue(s);
    }

    /// Enqueue an already-claimed slot: its own thread wakes
    /// (dedicated), or it joins the back of the pool's run queue.
    fn enqueue(&self, s: usize) {
        match &self.driver {
            Driver::Dedicated(cells) => cells[s].update(|st| st.pending = true),
            Driver::Pool(pool) => pool.queue.push(s),
        }
    }

    /// Run `s` again at `at` (sooner if something schedules it).
    fn timer_at(&self, at: Instant, s: usize) {
        match &self.driver {
            Driver::Dedicated(cells) => {
                cells[s].update(|st| st.deadline = Some(st.deadline.map_or(at, |d| d.min(at))))
            }
            Driver::Pool(pool) => {
                pool.timers.lock().expect("timer heap lock poisoned").push(Reverse((at, s)))
            }
        }
    }

    /// Schedule every due pool timer. Returns whether any fired.
    fn fire_timers(&self, pool: &Pool, now: Instant) -> bool {
        let mut due = Vec::new();
        {
            let mut heap = pool.timers.lock().expect("timer heap lock poisoned");
            while let Some(&Reverse((at, s))) = heap.peek() {
                if at > now {
                    break;
                }
                heap.pop();
                due.push(s);
            }
        }
        for &s in &due {
            self.schedule(s);
        }
        !due.is_empty()
    }

    /// Mark `s` terminal and wake the coordinator.
    fn finish(&self, s: usize) {
        self.slots()[s].finished.store(true, Ordering::Release);
        let _g = self.done_mx.lock().expect("done lock poisoned");
        self.done_cv.notify_all();
    }

    /// Block the coordinator until every listed slot has finished (or
    /// the run was stopped under it).
    fn wait_finished(&self, list: &[usize]) {
        let mut g = self.done_mx.lock().expect("done lock poisoned");
        for &s in list {
            let slot = &self.slots()[s];
            while !slot.finished.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire) {
                g = self.done_cv.wait_timeout(g, PARK_MAX).expect("done lock poisoned").0;
            }
        }
    }

    /// Stop every runtime thread and hang up every inbox, so nothing
    /// stays blocked. Ends every run (only the pool workers still need
    /// telling by then), and is what a runtime thread does before dying
    /// of a panic outside supervision: the coordinator then reports the
    /// panic instead of waiting on slots that will never finish.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        for slot in self.slots() {
            if let SlotKind::Bolt { rx, .. } = &slot.kind {
                rx.close();
            }
        }
        match &self.driver {
            Driver::Dedicated(cells) => cells.iter().for_each(|c| c.update(|st| st.pending = true)),
            Driver::Pool(pool) => pool.queue.close(),
        }
        let _g = self.done_mx.lock().expect("done lock poisoned");
        self.done_cv.notify_all();
    }
}

/// Spawn one of the driver's threads.
fn spawn(sched: &Arc<Sched>, body: impl FnOnce(&Arc<Sched>) + Send + 'static) -> JoinHandle<()> {
    let sched = sched.clone();
    std::thread::spawn(move || {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&sched))) {
            sched.stop();
            resume_unwind(payload);
        }
    })
}

/// The dedicated driver: this thread runs slot `s` and nothing else.
fn run_dedicated(sched: &Arc<Sched>, s: usize) {
    let Driver::Dedicated(cells) = &sched.driver else {
        unreachable!("dedicated threads are spawned by the dedicated driver")
    };
    let slot = &sched.slots()[s];
    while !slot.finished.load(Ordering::Acquire) && !sched.shutdown.load(Ordering::Acquire) {
        cells[s].sleep();
        run_slot(sched, s);
    }
}

/// The pool driver's worker loop: run queue → fire due timers → park
/// on the run queue until a push or the next timer.
fn worker(sched: &Arc<Sched>, counters: SchedCounters) {
    let Driver::Pool(pool) = &sched.driver else {
        unreachable!("pool workers are spawned by the pool driver")
    };
    while !sched.shutdown.load(Ordering::Acquire) {
        let mut found = pool.queue.try_pop();
        if found.is_none() {
            if sched.fire_timers(pool, Instant::now()) {
                continue;
            }
            let timeout = pool
                .next_timer()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .map_or(PARK_MAX, |d| d.min(PARK_MAX));
            counters.parks.add(1);
            found = pool.queue.park(timeout);
        }
        if let Some(s) = found {
            counters.runs.add(1);
            run_slot(sched, s);
        }
    }
}

impl Pool {
    fn next_timer(&self) -> Option<Instant> {
        self.timers.lock().expect("timer heap lock poisoned").peek().map(|&Reverse((at, _))| at)
    }
}

/// Fairness weight of one inbox message: data costs its row count,
/// control markers cost one.
fn msg_tuples(msg: &Msg) -> usize {
    match msg {
        Msg::Data(batch) => batch.len().max(1),
        _ => 1,
    }
}

/// Execute one activation. The caller owns the slot's `scheduled`
/// claim; this either hands it back (clear → re-check → maybe
/// re-claim), keeps it across a self-requeue, or retires the slot.
fn run_slot(sched: &Arc<Sched>, s: usize) {
    let slot = &sched.slots()[s];
    match &slot.kind {
        SlotKind::Bolt { unit, rx } => {
            let mut guard = unit.lock().expect("bolt slot lock poisoned");
            let Some(core) = guard.as_deref_mut() else {
                return; // finished; a stale enqueue raced the retire
            };
            // Chunked drain: one inbox lock per DRAIN_MSGS messages,
            // processed inline until the tuple budget runs out — the
            // run-inline-after-drain loop keeps a steady producer from
            // forcing a run-queue round-trip per handful of messages.
            let mut budget = DRAIN_TUPLES as i64;
            let mut chunk: Vec<Msg> = Vec::with_capacity(DRAIN_MSGS);
            while budget > 0 {
                if rx.drain(DRAIN_MSGS, &mut chunk) == 0 {
                    break;
                }
                // Every drained message is processed — the budget is
                // re-checked only between chunks, so a drained message
                // can never be stranded in the local buffer.
                for msg in chunk.drain(..) {
                    budget -= msg_tuples(&msg) as i64;
                    core.handle_msg(msg);
                    if core.done {
                        // Retire: hang up the inbox (late senders get
                        // `Disconnected` instead of filling a queue no
                        // one drains) and free the task's state here,
                        // before the coordinator is told it finished.
                        let retired = guard.take();
                        drop(guard);
                        rx.close();
                        drop(retired);
                        sched.finish(s);
                        return;
                    }
                }
            }
            if rx.is_empty() {
                // Fully drained: idle hook (commit + release held acks,
                // flush partial batches) before the slot goes dormant.
                core.idle();
            }
            let held = !core.held_empty();
            drop(guard);
            slot.scheduled.store(false, Ordering::Release);
            if !rx.is_empty() {
                // Backlog (budget exhausted, or a racing send): re-claim
                // and requeue at the back, so siblings get a worker first.
                if !slot.scheduled.swap(true, Ordering::AcqRel) {
                    sched.enqueue(s);
                }
            } else if held {
                // Acks are held (a commit deferred until the input is
                // quiet, or one that failed): re-run the idle hook after
                // a tick — fresh input still wakes the slot instantly.
                sched.timer_at(Instant::now() + HELD_RETRY, s);
            }
        }
        SlotKind::Spout(mx) => {
            let mut guard = mx.lock().expect("spout slot lock poisoned");
            let Some(core) = guard.as_deref_mut() else {
                return; // finished
            };
            match core.run_slice(SPOUT_SLICE) {
                SpoutStep::Progress => {
                    drop(guard);
                    // Keep the claim; yield the worker between slices.
                    sched.enqueue(s);
                }
                SpoutStep::Idle { seen } => {
                    let (run, id) = (core.ctx.run.clone(), core.ctx.id);
                    drop(guard);
                    slot.scheduled.store(false, Ordering::Release);
                    if run.acks(id).seq.load(Ordering::Acquire) != seen {
                        // An ack landed between the settle and here:
                        // re-claim rather than sleep on a stale snapshot.
                        if !slot.scheduled.swap(true, Ordering::AcqRel) {
                            sched.enqueue(s);
                        }
                    } else {
                        // Dormant until ack progress (`on_ack` schedules
                        // spout slots directly) or the sweep cadence.
                        sched.timer_at(Instant::now() + SETTLE_SWEEP, s);
                    }
                }
                SpoutStep::Done => {
                    let retired = guard.take();
                    drop(guard);
                    drop(retired);
                    sched.finish(s);
                }
            }
        }
    }
}

pub(crate) fn run(mut core: RunCore) -> Result<RunResult> {
    // Pool size; thread-per-task has none and gets the dedicated driver.
    let run = core.run.clone();
    let workers = run.config.scheduling.worker_count();
    let dedicated = workers == 0;
    let instrumented = run.config.latency_sample_every > 0;
    let mut built = std::mem::take(&mut core.built);
    let mut spout_insts = std::mem::take(&mut core.spouts);

    // --- One slot per task, `(component, task)` in declaration order
    //     (resolved before any channel or core is built: wake hooks
    //     need final slot indices). ---
    let mut specs: Vec<(usize, usize)> = Vec::new();
    let mut spout_slots: Vec<usize> = Vec::new();
    let mut bolt_slots_of: HashMap<String, Vec<usize>> = HashMap::new();
    for (ci, c) in core.decls.iter().enumerate() {
        for task in 0..c.parallelism {
            if c.is_bolt() {
                bolt_slots_of.entry(c.name.clone()).or_default().push(specs.len());
            } else {
                spout_slots.push(specs.len());
            }
            specs.push((ci, task));
        }
    }

    let sched = Arc::new(Sched::new(if dedicated {
        Driver::Dedicated(specs.iter().map(|_| WakeCell::default()).collect())
    } else {
        Driver::Pool(Pool { queue: RunQueue::new(), timers: Mutex::new(BinaryHeap::new()) })
    }));
    // The hooks below end up inside the slots (a task's routes own
    // senders, a sender owns its wake hook), which the scheduler owns:
    // a strong reference here would be a cycle that keeps every task's
    // state alive after the run.
    let weak: Weak<Sched> = Arc::downgrade(&sched);

    // Ack progress re-activates the dormant spout whose roots changed
    // immediately (and bumps its sequence for the `Idle { seen }`
    // re-check). Slots are laid out in global task id order.
    let on_ack: Arc<dyn Fn(u32) + Send + Sync> = {
        let run = run.clone();
        let sched = weak.clone();
        Arc::new(move |spout| {
            run.acks(spout).seq.fetch_add(1, Ordering::Release);
            if let Some(sched) = sched.upgrade() {
                sched.schedule(spout as usize);
            }
        })
    };

    // --- Inboxes: one per bolt unit; a send invokes the slot's wake
    //     hook (schedule). Bounded under the dedicated driver — a full
    //     inbox blocks its producer's thread, which is the backpressure
    //     — and unbounded under the pool, whose workers must never
    //     block in `send`. One shared LinkStats gauge per component. ---
    let capacity = dedicated.then_some(run.config.channel_capacity);
    let mut senders: HashMap<String, Vec<Sender<Msg>>> = HashMap::new();
    let mut inboxes: HashMap<usize, Receiver<Msg>> = HashMap::new();
    let mut link_stats: HashMap<String, crate::channel::LinkStats> = HashMap::new();
    for (slot, &(ci, _)) in specs.iter().enumerate() {
        let c = &core.decls[ci];
        if !c.is_bolt() {
            continue;
        }
        let name = &c.name;
        let stats = instrumented.then(|| {
            link_stats
                .entry(name.clone())
                .or_insert_with(|| run.metrics.register_link(&format!("{name}.input")))
                .clone()
        });
        let wake: Arc<dyn Fn() + Send + Sync> = {
            let sched = weak.clone();
            Arc::new(move || {
                if let Some(sched) = sched.upgrade() {
                    sched.schedule(slot);
                }
            })
        };
        let (tx, rx) = link(capacity, stats, Some(wake));
        senders.entry(name.clone()).or_default().push(tx);
        inboxes.insert(slot, rx);
    }

    // Live rescaling: register every component's inbox with the
    // controller (a `Msg::Rescale` send schedules the parked slot via
    // the wake hook above) and publish the per-table `active` gauges.
    if let Some(ctl) = &run.config.rescale {
        ctl.bind(&run.metrics);
        for (name, txs) in &senders {
            ctl.register_senders(name, txs.clone());
        }
    }

    // --- Routing tables: every input edge routes to the subscriber's
    //     inboxes (a bolt declared with no tasks has none). ---
    let mut routes: HashMap<String, Vec<Route>> = HashMap::new();
    for c in &core.decls {
        routes.entry(c.name.clone()).or_default();
    }
    for c in &core.decls {
        for (upstream, grouping) in &c.inputs {
            if let Some(tx) = senders.get(&c.name) {
                routes.get_mut(upstream).unwrap().push(Route {
                    grouping: grouping.clone(),
                    senders: tx.clone(),
                    shard: run.config.rescale.as_ref().and_then(|ctl| ctl.table_of(&c.name)),
                });
            }
        }
    }

    // --- Build the slots. Seeds follow a mix64 chain in unit order,
    //     one draw per unit. ---
    let mut task_seed = run.config.seed;
    let mut slots: Vec<Slot> = Vec::new();
    for (slot_idx, &(ci, task)) in specs.iter().enumerate() {
        task_seed = sa_core::hash::mix64(task_seed);
        let c = &core.decls[ci];
        let id = core.task_ids[&c.name][task];
        assert_eq!(id as usize, slot_idx, "slots are laid out in global task id order");
        let ctx = TaskCtx {
            run: run.clone(),
            name: c.name.clone(),
            task,
            id,
            seed: task_seed,
            restart: core.restart_for(c),
            on_ack: on_ack.clone(),
        };
        let routes = routes[&c.name].clone();
        // Slots are created in task order, so the front of the
        // remaining list is always this slot's task.
        let kind = if c.is_bolt() {
            let built = built.get_mut(&c.name).expect("built bolt tasks").remove(0);
            let bc = BoltCore::new(built, routes, &core.upstream_ids[&c.name], ctx);
            let rx = inboxes.remove(&slot_idx).expect("bolt inbox");
            SlotKind::Bolt { unit: Mutex::new(Some(Box::new(bc))), rx }
        } else {
            let spout = spout_insts.get_mut(&c.name).expect("spout instances").remove(0);
            SlotKind::Spout(Mutex::new(Some(Box::new(SpoutCore::new(spout, routes, ctx)))))
        };
        slots.push(Slot {
            kind,
            scheduled: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        });
    }
    if sched.slots.set(slots).is_err() {
        unreachable!("slots set exactly once");
    }

    // --- Start the driver's threads, then light the spouts. ---
    let mut joins = Vec::new();
    if dedicated {
        for s in 0..specs.len() {
            joins.push(spawn(&sched, move |sched| run_dedicated(sched, s)));
        }
    } else {
        for wi in 0..workers {
            let counters = run.metrics.register_sched_worker(wi);
            joins.push(spawn(&sched, move |sched| worker(sched, counters)));
        }
    }
    for &s in &spout_slots {
        sched.schedule(s);
    }

    // --- Shutdown protocol: spouts retire, then flush+terminate bolt
    //     units in topological order so upstream flush output reaches
    //     live downstream slots. ---
    sched.wait_finished(&spout_slots);
    // A killed run tears down without flushing: bolts never get their
    // final `flush()` call, as in a real crash — and is never clean,
    // even if the kill landed after the spouts drained.
    let killed = run.killed();
    if killed {
        run.unclean.store(true, Ordering::Relaxed);
    }
    for name in &core.order {
        let Some(tx_list) = senders.get(name) else {
            continue; // a spout
        };
        for tx in tx_list {
            if !killed {
                let _ = tx.send(Msg::Flush);
            }
            let _ = tx.send(Msg::Terminate);
        }
        sched.wait_finished(&bolt_slots_of[name]);
    }
    sched.stop();
    for (i, h) in joins.into_iter().enumerate() {
        h.join().map_err(|payload| {
            SaError::Platform(format!(
                "runtime thread {i} panicked outside supervision: {}",
                panic_message(&*payload)
            ))
        })?;
    }

    core.conclude()
}
