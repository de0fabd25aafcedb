//! Executor links and the pool's run queue.
//!
//! There is **one queue**: a mutex-protected FIFO with an optional
//! capacity. [`channel`] hands out its two halves; a task inbox is the
//! same queue plus a *wake hook* the sender invokes after every
//! enqueue (the task is not blocked in `recv` — the scheduler runs it,
//! and it drains with `Receiver::drain`).
//!
//! * `Some(capacity)`: a full queue **blocks the sender** until the
//!   receiver drains — Heron-style backpressure; every inbox under the
//!   dedicated (thread-per-task) driver.
//! * `None`: `send` never blocks — what the pool needs (a worker
//!   blocked in `send` could be the one its receiver is waiting for),
//!   and the Storm-style "unbounded queues" arm of the ablation.
//!
//! A link can carry a [`LinkStats`] gauge ([`channel_instrumented`]):
//! depth, high-water mark, and the time bounded sends spent blocked —
//! the platform's *backpressure stall* signal, Heron's "slow down,
//! downstream is saturated" event surfaced as a metric. All accounting
//! is relaxed atomics, paid once per *batch* on executor links.
//!
//! Beside the links: `RunQueue`, the pool's one FIFO of runnable
//! slot ids, which its idle workers park on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Shared depth/backpressure gauge of one (bundle of) link(s).
/// Clone-cheap; clones share the atomics, so all queues of one
/// component can aggregate into a single account.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    inner: Arc<LinkStatsInner>,
}

#[derive(Debug, Default)]
struct LinkStatsInner {
    depth: AtomicU64,
    high_water: AtomicU64,
    stalls: AtomicU64,
    stall_ns: AtomicU64,
}

impl LinkStats {
    /// A fresh gauge at depth 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message about to be enqueued and update the
    /// high-water mark. Charged *before* the underlying send, so a
    /// receiver that dequeues immediately can never drive the depth
    /// negative (which would wrap the unsigned gauge and poison the
    /// high-water mark).
    #[inline]
    pub(crate) fn on_send(&self) {
        let depth = self.inner.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Roll back [`LinkStats::on_send`] after a failed send.
    #[inline]
    pub(crate) fn on_send_failed(&self) {
        self.inner.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record `n` dequeued messages in one update.
    #[inline]
    pub(crate) fn on_recv_n(&self, n: u64) {
        self.inner.depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Record one full-queue stall that blocked for `ns` nanoseconds.
    #[inline]
    pub(crate) fn on_stall(&self, ns: u64) {
        self.inner.stalls.fetch_add(1, Ordering::Relaxed);
        self.inner.stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Messages currently queued.
    pub fn depth(&self) -> u64 {
        self.inner.depth.load(Ordering::Relaxed)
    }

    /// Maximum queued messages ever observed.
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Sends that found the queue full (backpressure events).
    pub fn stalls(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds senders spent blocked on a full queue.
    pub fn stall_ns(&self) -> u64 {
        self.inner.stall_ns.load(Ordering::Relaxed)
    }
}

/// The queue behind every link.
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    /// Senders blocked on a full bounded queue wait here.
    not_full: Condvar,
    /// A receiver blocked in [`Receiver::recv`] waits here.
    not_empty: Condvar,
    /// `usize::MAX` when unbounded.
    capacity: usize,
}

struct ChanState<T> {
    q: VecDeque<T>,
    senders: usize,
    /// The receiving half is still attached.
    open: bool,
    /// Waiter counts gate the condvar notifies (a futex syscall each)
    /// off the uncontended path.
    blocked_senders: usize,
    receiver_waiting: bool,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, ChanState<T>> {
        self.state.lock().expect("link queue lock poisoned")
    }
}

/// Sending half of a link.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
    stats: Option<LinkStats>,
    /// Inbox links: invoked after every enqueue to mark the owning task
    /// runnable.
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().senders += 1;
        Self { chan: self.chan.clone(), stats: self.stats.clone(), wake: self.wake.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // No `expect` in drop: a poisoned queue has no one left to wake.
        if let Ok(mut st) = self.chan.state.lock() {
            st.senders -= 1;
            if st.senders == 0 && st.receiver_waiting {
                self.chan.not_empty.notify_one();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Deliver `value`; `Err` only when the receiver is gone. On a
    /// bounded link a full queue blocks (backpressure) and, when
    /// instrumented, the blocked time is charged to the gauge.
    pub fn send(&self, value: T) -> Result<(), Disconnected> {
        // Depth is charged before the enqueue (and rolled back on
        // failure): the receiver can only dequeue what was charged, so
        // the gauge stays non-negative under any interleaving.
        if let Some(stats) = &self.stats {
            stats.on_send();
        }
        let mut st = self.chan.lock();
        if st.open && st.q.len() >= self.chan.capacity {
            let blocked_at = Instant::now();
            st.blocked_senders += 1;
            while st.open && st.q.len() >= self.chan.capacity {
                st = self.chan.not_full.wait(st).expect("link queue lock poisoned");
            }
            st.blocked_senders -= 1;
            if let (true, Some(stats)) = (st.open, &self.stats) {
                stats.on_stall(blocked_at.elapsed().as_nanos() as u64);
            }
        }
        if !st.open {
            drop(st);
            if let Some(stats) = &self.stats {
                stats.on_send_failed();
            }
            return Err(Disconnected);
        }
        st.q.push_back(value);
        let receiver_waiting = st.receiver_waiting;
        drop(st);
        if receiver_waiting {
            self.chan.not_empty.notify_one();
        }
        if let Some(wake) = &self.wake {
            wake();
        }
        Ok(())
    }
}

/// The peer end of the link has hung up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

/// Receiving half of a link.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
    stats: Option<LinkStats>,
}

/// Why a non-blocking receive returned nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue momentarily empty; senders still connected.
    Empty,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

impl<T> Receiver<T> {
    /// Block until a message arrives; `Err` when all senders are gone.
    pub fn recv(&self) -> Result<T, Disconnected> {
        let mut st = self.chan.lock();
        loop {
            if let Some(msg) = st.q.pop_front() {
                self.took(st, 1);
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(Disconnected);
            }
            st.receiver_waiting = true;
            st = self.chan.not_empty.wait(st).expect("link queue lock poisoned");
            st.receiver_waiting = false;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.lock();
        match st.q.pop_front() {
            Some(msg) => {
                self.took(st, 1);
                Ok(msg)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Pop up to `max` queued messages into `into` with ONE lock
    /// acquisition, returning how many were taken: a backlogged inbox
    /// costs one mutex round-trip per *chunk* instead of one per
    /// message. Unblocks senders waiting on a full queue.
    pub(crate) fn drain(&self, max: usize, into: &mut Vec<T>) -> usize {
        let mut st = self.chan.lock();
        let n = max.min(st.q.len());
        if n > 0 {
            into.extend(st.q.drain(..n));
            self.took(st, n);
        }
        n
    }

    /// Whether the queue is currently empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.chan.lock().q.is_empty()
    }

    /// Hang up: discard what is queued and fail every current and
    /// future send (blocked senders included). Dropping the receiver
    /// does the same.
    pub(crate) fn close(&self) {
        // No `expect`: this runs from `Drop`.
        let Ok(mut st) = self.chan.state.lock() else { return };
        st.open = false;
        // Dropped after the lock is released.
        let discarded = std::mem::take(&mut st.q);
        self.took(st, discarded.len());
    }

    /// Settle the gauge for `n` dequeued messages and release the lock,
    /// waking senders blocked on the room just made.
    fn took(&self, st: MutexGuard<'_, ChanState<T>>, n: usize) {
        let blocked = st.blocked_senders > 0;
        drop(st);
        if blocked {
            self.chan.not_full.notify_all();
        }
        if let Some(stats) = &self.stats {
            stats.on_recv_n(n as u64);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A link: `Some(capacity)` = bounded (a full queue blocks the sender),
/// `None` = unbounded.
pub fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    link(capacity, None, None)
}

/// A link whose traffic is accounted against `stats` (depth, high-water
/// mark, backpressure stalls). Several links may share one `stats`
/// clone to aggregate.
pub fn channel_instrumented<T>(
    capacity: Option<usize>,
    stats: LinkStats,
) -> (Sender<T>, Receiver<T>) {
    link(capacity, Some(stats), None)
}

/// The general form. With a `wake` hook the link is a task inbox: every
/// send invokes it after enqueueing (the scheduler uses it to mark the
/// owning task runnable).
pub(crate) fn link<T>(
    capacity: Option<usize>,
    stats: Option<LinkStats>,
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            q: VecDeque::new(),
            senders: 1,
            open: true,
            blocked_senders: 0,
            receiver_waiting: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        // A zero-capacity queue could never accept a message.
        capacity: capacity.map_or(usize::MAX, |n| n.max(1)),
    });
    (Sender { chan: chan.clone(), stats: stats.clone(), wake }, Receiver { chan, stats })
}

/// The pool's run queue: a mutex-protected FIFO of slot ids that every
/// enqueue goes to (spout and bolt activations, self-requeues, timer
/// firings, the coordinator's flush/terminate wakes). Idle workers park
/// on its condvar, so an idle pool burns ~0 CPU instead of
/// sleep-polling. The parked count and the closed flag live under the
/// queue's mutex, so a `push` (or `close`) and a `park` meet under one
/// lock and a wakeup cannot be lost.
pub(crate) struct RunQueue {
    q: Mutex<RunQueueState>,
    cv: Condvar,
}

struct RunQueueState {
    ids: VecDeque<usize>,
    /// Workers waiting in [`RunQueue::park`] (gates the notify syscall).
    parked: usize,
    /// The pool is shutting down: `park` no longer waits.
    closed: bool,
}

impl RunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            q: Mutex::new(RunQueueState { ids: VecDeque::new(), parked: 0, closed: false }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunQueueState> {
        self.q.lock().expect("run queue lock poisoned")
    }

    /// Enqueue a slot id and wake one parked worker (if any).
    pub fn push(&self, s: usize) {
        let mut g = self.lock();
        g.ids.push_back(s);
        if g.parked > 0 {
            self.cv.notify_one();
        }
    }

    /// Wake every parked worker, and keep later parks from waiting
    /// (shutdown).
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Dequeue the oldest id, if any.
    pub fn try_pop(&self) -> Option<usize> {
        self.lock().ids.pop_front()
    }

    /// Dequeue the oldest id, waiting up to `timeout` for one to arrive.
    pub fn park(&self, timeout: Duration) -> Option<usize> {
        let mut g = self.lock();
        if g.ids.is_empty() && !g.closed {
            g.parked += 1;
            g = self.cv.wait_timeout(g, timeout).expect("run queue lock poisoned").0;
            g.parked -= 1;
        }
        g.ids.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_roundtrip_and_disconnect() {
        let (tx, rx) = channel::<u32>(Some(2));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn unbounded_never_blocks() {
        let (tx, rx) = channel::<u32>(None);
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.recv(), Ok(0));
    }

    #[test]
    fn instrumented_link_tracks_depth_and_high_water() {
        let stats = LinkStats::new();
        let (tx, rx) = channel_instrumented::<u32>(None, stats.clone());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(stats.depth(), 5);
        assert_eq!(stats.high_water(), 5);
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        assert_eq!(stats.depth(), 2);
        assert_eq!(stats.high_water(), 5, "high-water mark never recedes");
        assert_eq!(stats.stalls(), 0, "unbounded links never stall");
    }

    /// Spin until `n` senders are parked on the queue's not-full
    /// condvar — the tests below force the interleaving they check
    /// instead of sleeping and hoping.
    fn await_blocked<T>(rx: &Receiver<T>, n: usize) {
        while rx.chan.lock().blocked_senders != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn full_inbox_blocks_the_sender_until_a_drain_and_charges_the_stall() {
        let stats = LinkStats::new();
        let hook = Arc::new(|| {}) as Arc<dyn Fn() + Send + Sync>;
        let (tx, rx) = link::<u32>(Some(2), Some(stats.clone()), Some(hook));
        tx.send(1).unwrap();
        tx.send(2).unwrap(); // full
        let sender = std::thread::spawn(move || tx.send(3));
        await_blocked(&rx, 1);
        // Depth is charged before the blocked send, so the stalled
        // message is visible in the mark while it waits.
        assert_eq!((stats.depth(), stats.high_water(), stats.stalls()), (3, 3, 0));
        let mut got = Vec::new();
        assert_eq!(rx.drain(1, &mut got), 1);
        assert_eq!(sender.join().unwrap(), Ok(()), "a drain must unblock the sender");
        assert_eq!(stats.stalls(), 1);
        assert!(stats.stall_ns() > 0);
        assert_eq!(rx.drain(8, &mut got), 2);
        assert_eq!(got, vec![1, 2, 3], "FIFO survives the stall");
        assert_eq!(stats.depth(), 0);
    }

    #[test]
    fn blocking_recv_also_unblocks_a_full_sender() {
        let (tx, rx) = channel::<u32>(Some(1));
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2));
        await_blocked(&rx, 1);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(sender.join().unwrap(), Ok(()));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(Disconnected), "all senders gone and drained");
    }

    #[test]
    fn failed_sends_never_drive_depth_negative() {
        let stats = LinkStats::new();
        let (tx, rx) = channel_instrumented::<u32>(Some(1), stats.clone());
        tx.send(1).unwrap();
        let blocked = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2))
        };
        await_blocked(&rx, 1);
        // Hanging up discards the queued message and fails the blocked
        // sender; both charges are rolled back.
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(Disconnected));
        assert_eq!(tx.send(3), Err(Disconnected));
        assert_eq!(stats.depth(), 0);
        assert_eq!(stats.stalls(), 0, "a send that never lands is not a stall");
    }

    #[test]
    fn shared_stats_aggregate_across_links() {
        let stats = LinkStats::new();
        let (tx1, _rx1) = channel_instrumented::<u32>(None, stats.clone());
        let (tx2, _rx2) = channel_instrumented::<u32>(None, stats.clone());
        tx1.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(stats.depth(), 2);
        assert_eq!(stats.high_water(), 2);
    }

    #[test]
    fn inbox_send_wakes_and_preserves_fifo() {
        let wakes = Arc::new(AtomicU64::new(0));
        let hook = {
            let wakes = wakes.clone();
            Arc::new(move || {
                wakes.fetch_add(1, Ordering::Relaxed);
            }) as Arc<dyn Fn() + Send + Sync>
        };
        let stats = LinkStats::new();
        let (tx, rx) = link::<u32>(None, Some(stats.clone()), Some(hook));
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(wakes.load(Ordering::Relaxed), 5, "every send must invoke the wake hook");
        assert_eq!(stats.depth(), 5);
        assert!(!rx.is_empty());
        for i in 0..5 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(stats.depth(), 0);
    }

    #[test]
    fn inbox_drain_bulk_pops_in_order() {
        let hook = Arc::new(|| {}) as Arc<dyn Fn() + Send + Sync>;
        let stats = LinkStats::new();
        let (tx, rx) = link::<u32>(None, Some(stats.clone()), Some(hook));
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(rx.drain(4, &mut got), 4);
        assert_eq!(rx.drain(100, &mut got), 6, "drain caps at queue length");
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "FIFO order preserved");
        assert_eq!(stats.depth(), 0, "bulk drain settles the gauge");
        assert_eq!(rx.drain(4, &mut got), 0);
    }

    /// The run queue is the pool's injector: every enqueue goes to it.
    #[test]
    fn injector_park_wakes_on_push() {
        let q = Arc::new(RunQueue::new());
        q.push(7);
        assert_eq!(q.park(Duration::from_secs(5)), Some(7), "a queued id returns at once");
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.park(Duration::from_secs(5)))
        };
        // Push only once the waiter is parked: the push must find the
        // parked count under the queue's lock and notify.
        while q.lock().parked == 0 {
            std::thread::yield_now();
        }
        q.push(42);
        assert_eq!(waiter.join().unwrap(), Some(42));
        assert_eq!(q.lock().parked, 0, "a woken worker leaves the parked count");
        assert_eq!(q.park(Duration::from_millis(2)), None, "empty park times out");
    }
}
