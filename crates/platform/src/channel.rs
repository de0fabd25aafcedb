//! Executor links and the pool's scheduling primitives.
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
//! Beside the queue: `WsDeque` (a fixed-capacity Chase–Lev
//! work-stealing deque over atomic cells, no `unsafe`) and `Injector`
//! (the global overflow/handoff queue pool workers park on).

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
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

/// A fixed-capacity Chase–Lev work-stealing deque specialised to
/// `u64` task ids, built **without `unsafe`**: the ring is a slab of
/// `AtomicU64` cells, so a stealer that loses the CAS race on `top`
/// merely read (and discards) a stale-but-well-defined value — there
/// is no uninitialised memory and no torn read to defend against.
///
/// * The owner pushes and pops at `bottom` (LIFO — hot batches stay
///   cache-warm).
/// * Stealers CAS `top` upward (FIFO — the oldest work migrates).
/// * `push` refuses when the ring is full (the caller overflows to the
///   [`Injector`]) — which is also the load-bearing safety fact: a
///   slot observed by a stealer at index `t` can only be overwritten
///   after `top` has advanced past `t`, and any such advance makes the
///   stealer's `compare_exchange` from `t` fail, so a stale read is
///   never *returned*.
pub(crate) struct WsDeque {
    top: AtomicU64,
    bottom: AtomicU64,
    buf: Box<[AtomicU64]>,
    mask: u64,
}

impl WsDeque {
    /// A deque holding up to `capacity` (rounded up to a power of two)
    /// queued ids.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let buf: Vec<AtomicU64> = (0..cap).map(|_| AtomicU64::new(0)).collect();
        Self {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            buf: buf.into_boxed_slice(),
            mask: cap as u64 - 1,
        }
    }

    /// Owner-only: push onto the bottom. `Err(v)` when the ring is
    /// full — the caller must overflow to the global injector (never
    /// drop: a lost task id is a hung topology).
    pub fn push(&self, v: u64) -> Result<(), u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) > self.mask {
            return Err(v);
        }
        self.buf[(b & self.mask) as usize].store(v, Ordering::Relaxed);
        self.bottom.store(b.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Owner-only: pop the most recently pushed id (LIFO).
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        if t == b {
            return None;
        }
        let b = b.wrapping_sub(1);
        self.bottom.store(b, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if after(t, b) {
            // A stealer emptied the deque under us: restore bottom.
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        let v = self.buf[(b & self.mask) as usize].load(Ordering::Relaxed);
        if t == b {
            // Last element: race the stealers for it via `top`.
            let won = self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return won.then_some(v);
        }
        Some(v)
    }

    /// Approximate queued-item count (relaxed loads; exact only when
    /// quiescent). Used to decide whether a push left *stealable
    /// surplus* worth waking a parked sibling for.
    pub fn len(&self) -> u64 {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.wrapping_sub(t)
    }

    /// Any thread: steal the oldest id (FIFO). Returns `None` when the
    /// deque is (momentarily) empty.
    pub fn steal(&self) -> Option<u64> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t == b || after(t, b) {
                return None;
            }
            let v = self.buf[(t & self.mask) as usize].load(Ordering::Relaxed);
            // The CAS validates the read: if the cell was recycled,
            // `top` moved and the exchange fails (see type docs).
            if self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(v);
            }
        }
    }
}

/// Wrap-safe "a is logically after b" for the deque's monotone indices.
fn after(a: u64, b: u64) -> bool {
    a.wrapping_sub(b).wrapping_sub(1) < u64::MAX / 2
}

/// The global injector: a mutex-protected FIFO that takes (a) work
/// submitted from outside the pool (spout activations, the
/// coordinator's flush/terminate pushes, timer firings), and (b)
/// overflow from full worker deques. Idle workers park on its condvar
/// after a spin→steal sweep comes up empty, so an idle pool burns ~0
/// CPU instead of sleep-polling.
pub(crate) struct Injector {
    q: Mutex<VecDeque<u64>>,
    cv: Condvar,
    parked: AtomicUsize,
}

impl Injector {
    /// An empty injector.
    pub fn new() -> Self {
        Self { q: Mutex::new(VecDeque::new()), cv: Condvar::new(), parked: AtomicUsize::new(0) }
    }

    /// Enqueue an id and wake one parked worker (if any).
    pub fn push(&self, v: u64) {
        let mut g = self.q.lock().unwrap();
        g.push_back(v);
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.cv.notify_one();
        }
    }

    /// Wake one parked worker without enqueueing (used when local-deque
    /// pushes leave stealable surplus behind).
    pub fn wake_one(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.q.lock().unwrap();
            self.cv.notify_one();
        }
    }

    /// Wake every parked worker (shutdown).
    pub fn wake_all(&self) {
        let _g = self.q.lock().unwrap();
        self.cv.notify_all();
    }

    /// Dequeue the oldest id, if any.
    pub fn try_pop(&self) -> Option<u64> {
        self.q.lock().unwrap().pop_front()
    }

    /// Announce intent to park. The caller must re-check its local
    /// work sources *after* this call and before [`Injector::park`]:
    /// any producer that enqueues after `prepare_park` sees the parked
    /// count and notifies, so the re-check + park pair cannot lose a
    /// wakeup.
    pub fn prepare_park(&self) {
        self.parked.fetch_add(1, Ordering::SeqCst);
    }

    /// Abort a prepared park (the re-check found work).
    pub fn cancel_park(&self) {
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Park for up to `timeout` (after [`Injector::prepare_park`]),
    /// returning a queued id when one arrives.
    pub fn park(&self, timeout: Duration) -> Option<u64> {
        let mut g = self.q.lock().unwrap();
        let v = match g.pop_front() {
            Some(v) => Some(v),
            None => {
                let (mut g, _) = self.cv.wait_timeout(g, timeout).unwrap();
                g.pop_front()
            }
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        v
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

    #[test]
    fn ws_deque_lifo_owner_fifo_stealer() {
        let d = WsDeque::new(8);
        for v in 1..=3 {
            d.push(v).unwrap();
        }
        assert_eq!(d.steal(), Some(1), "stealers take the oldest");
        assert_eq!(d.pop(), Some(3), "the owner takes the newest");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn ws_deque_rejects_overflow_instead_of_dropping() {
        let d = WsDeque::new(4);
        for v in 0..4 {
            d.push(v).unwrap();
        }
        assert_eq!(d.push(99), Err(99), "a full ring must hand the id back");
        assert_eq!(d.steal(), Some(0));
        d.push(99).unwrap();
    }

    #[test]
    fn ws_deque_concurrent_steal_loses_nothing() {
        // 4 stealer threads race the owner (pushing and popping) over
        // 20k ids; every id must be claimed exactly once.
        let d = Arc::new(WsDeque::new(64));
        let stolen = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicU64::new(0));
        let stealers: Vec<_> = (0..4)
            .map(|_| {
                let d = d.clone();
                let stolen = stolen.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while done.load(Ordering::Acquire) == 0 {
                        if let Some(v) = d.steal() {
                            got.push(v);
                        }
                    }
                    while let Some(v) = d.steal() {
                        got.push(v);
                    }
                    stolen.lock().unwrap().extend(got);
                })
            })
            .collect();
        let total: u64 = 20_000;
        let mut popped = Vec::new();
        let mut next = 0u64;
        while next < total {
            if d.push(next).is_ok() {
                next += 1;
            } else if let Some(v) = d.pop() {
                popped.push(v);
            }
        }
        while let Some(v) = d.pop() {
            popped.push(v);
        }
        done.store(1, Ordering::Release);
        for s in stealers {
            s.join().unwrap();
        }
        let mut all = popped;
        all.extend(stolen.lock().unwrap().iter().copied());
        all.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(all, expect, "every pushed id claimed exactly once");
    }

    #[test]
    fn injector_park_wakes_on_push() {
        let inj = Arc::new(Injector::new());
        inj.push(7);
        assert_eq!(inj.try_pop(), Some(7));
        let waiter = {
            let inj = inj.clone();
            std::thread::spawn(move || {
                inj.prepare_park();
                inj.park(Duration::from_secs(5))
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        inj.push(42);
        assert_eq!(waiter.join().unwrap(), Some(42));
        inj.prepare_park();
        assert_eq!(inj.park(Duration::from_millis(2)), None, "empty park times out");
    }
}
