//! Storm's XOR-ack protocol.
//!
//! Every spout tuple registers a *root* with the acker. Each edge of the
//! tuple tree gets a random 64-bit id; the acker keeps, per root, the
//! XOR of the ids of all *pending* edges. A bolt processing input edge
//! `e` and emitting edges `e₁…e_k` sends `e ⊕ e₁ ⊕ … ⊕ e_k`: the input
//! toggles off, the children toggle on. When the XOR hits zero every
//! edge has been both created and retired — the whole tree is processed
//! and the spout is acked. Tracking any tree costs 8 bytes regardless
//! of its size, which is the celebrated trick.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// What the acker decided about a root after an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckOutcome {
    /// Tree still has pending edges (or the ack was stale and dropped).
    Pending,
    /// Tree fully processed — spout should `ack`.
    Complete,
}

/// The acker of one spout task: every root it sees was minted by that
/// spout, which registers its roots in the order it minted them. The
/// executor keeps one per spout task and reaches it through the spout
/// id every root carries, so completions land where they are consumed.
#[derive(Debug, Default)]
pub struct Acker {
    /// Pending trees: root → XOR of its pending edge ids.
    entries: HashMap<u64, u64>,
    /// Registered roots with their registration time, in registration
    /// order. `expire` pops from the front; a root that settled since
    /// is popped without a clock comparison.
    registered: VecDeque<(u64, Instant)>,
    /// Newest registered root. Registration follows mint order, so an
    /// unknown root at or below it settled already: its ack or fail is
    /// stale and dropped.
    newest: u64,
    /// Completed roots since the last drain.
    completed: Vec<u64>,
    /// Failed (explicit or timed-out) roots since the last drain.
    failed: Vec<u64>,
    /// Roots failed before their `init` arrived (a bolt can error on a
    /// tuple while its spout still batches the registration). Only
    /// roots above `newest` get one, and the init consumes it.
    failed_early: HashSet<u64>,
}

impl Acker {
    /// Empty acker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new spout tuple: `root` with the XOR of its initial
    /// edge ids. Roots are registered in the order they were minted.
    pub fn init(&mut self, root: u64, first_edges_xor: u64) {
        self.newest = self.newest.max(root);
        // Acks that raced ahead of the registration left an entry.
        let early = self.entries.remove(&root);
        if self.failed_early.remove(&root) {
            // The tree already failed while this registration was in
            // flight: fail it now so the spout replays without waiting
            // for the timeout.
            self.failed.push(root);
            return;
        }
        let xor = early.unwrap_or(0) ^ first_edges_xor;
        if xor == 0 {
            // Degenerate: a tuple tree that finished instantly.
            self.completed.push(root);
        } else {
            self.entries.insert(root, xor);
            self.registered.push_back((root, Instant::now()));
        }
    }

    /// Apply a bolt's ack value (`input ⊕ emitted…`).
    ///
    /// Init and ack are symmetric XOR updates, so an ack racing ahead of
    /// its root's `init` simply creates the entry — exactly Storm's
    /// design. An ack for a root that already settled is dropped. (A
    /// random-id subset XOR-ing to zero prematurely has probability
    /// ≈ 2⁻⁶⁴ per tree, the protocol's accepted risk.)
    pub fn ack(&mut self, root: u64, ack_val: u64) -> AckOutcome {
        let mut entry = match self.entries.entry(root) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(slot) if root > self.newest => {
                slot.insert(ack_val);
                return AckOutcome::Pending;
            }
            // Unknown and not newer than the newest registration: the
            // root settled already.
            Entry::Vacant(_) => return AckOutcome::Pending,
        };
        *entry.get_mut() ^= ack_val;
        if *entry.get() != 0 {
            return AckOutcome::Pending;
        }
        entry.remove();
        self.completed.push(root);
        AckOutcome::Complete
    }

    /// Explicitly fail a root (bolt error): the spout must replay.
    ///
    /// Like acks, a failure can race ahead of its root's `init` (the
    /// executor sends tuples before registering the root). Dropping it
    /// would strand the tree until the message timeout, so a root not
    /// yet registered leaves a tombstone that fails the init on
    /// arrival. A fail for a root that already settled is dropped.
    pub fn fail(&mut self, root: u64) {
        if self.entries.remove(&root).is_some() {
            self.failed.push(root);
        } else if root > self.newest {
            self.failed_early.insert(root);
        }
    }

    /// Expire roots pending longer than `max_age` (message-timeout
    /// replay, Storm's `topology.message.timeout`). Registration order
    /// is age order, so this visits the roots it retires plus one.
    pub fn expire(&mut self, max_age: Duration) {
        let now = Instant::now();
        while let Some(&(root, born)) = self.registered.front() {
            let pending = self.entries.contains_key(&root);
            if pending && now.duration_since(born) <= max_age {
                break;
            }
            if pending {
                self.entries.remove(&root);
                self.failed.push(root);
            }
            self.registered.pop_front();
        }
    }

    /// Drain roots completed since the last call.
    pub fn take_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed)
    }

    /// Drain roots failed since the last call.
    pub fn take_failed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.failed)
    }

    /// Trees still pending.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_completes() {
        // spout → a → b: edges e0 (spout→a), e1 (a→b).
        let mut acker = Acker::new();
        let (e0, e1) = (0xAAAA, 0xBBBB);
        acker.init(7, e0);
        // Bolt a: consumed e0, emitted e1.
        assert_eq!(acker.ack(7, e0 ^ e1), AckOutcome::Pending);
        // Bolt b: consumed e1, emitted nothing.
        assert_eq!(acker.ack(7, e1), AckOutcome::Complete);
        assert_eq!(acker.take_completed(), vec![7]);
        assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn fanout_tree_completes_only_when_all_leaves_done() {
        // spout → a; a emits to b and c.
        let mut acker = Acker::new();
        let (e0, e1, e2) = (1u64 << 1, 1 << 2, 1 << 3);
        acker.init(1, e0);
        assert_eq!(acker.ack(1, e0 ^ e1 ^ e2), AckOutcome::Pending);
        assert_eq!(acker.ack(1, e1), AckOutcome::Pending);
        assert_eq!(acker.ack(1, e2), AckOutcome::Complete);
    }

    #[test]
    fn out_of_order_acks_still_complete() {
        let mut acker = Acker::new();
        let (e0, e1) = (0x11, 0x22);
        acker.init(3, e0);
        // Downstream finishes before upstream's ack arrives.
        assert_eq!(acker.ack(3, e1), AckOutcome::Pending);
        assert_eq!(acker.ack(3, e0 ^ e1), AckOutcome::Complete);
    }

    #[test]
    fn explicit_fail() {
        let mut acker = Acker::new();
        acker.init(5, 0xF0);
        acker.fail(5);
        assert_eq!(acker.take_failed(), vec![5]);
        assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn timeout_expires_stuck_trees() {
        let mut acker = Acker::new();
        acker.init(6, 0xF1);
        std::thread::sleep(Duration::from_millis(20));
        acker.expire(Duration::from_millis(5));
        assert_eq!(acker.take_failed(), vec![6]);
        assert_eq!(acker.pending(), 0);
        // Fresh entries survive the same expiry.
        acker.init(7, 0xF2);
        acker.expire(Duration::from_millis(5));
        assert!(acker.take_failed().is_empty());
    }

    #[test]
    fn instant_completion_of_leafless_tuple() {
        // A spout tuple that no bolt consumes completes on init+ack.
        let mut acker = Acker::new();
        acker.init(9, 0xE);
        assert_eq!(acker.ack(9, 0xE), AckOutcome::Complete);
    }

    #[test]
    fn zero_xor_init_completes_immediately() {
        // A spout tuple with no subscribers at all.
        let mut acker = Acker::new();
        acker.init(10, 0);
        assert_eq!(acker.take_completed(), vec![10]);
    }

    #[test]
    fn stale_acks_open_no_entry() {
        let mut acker = Acker::new();
        acker.init(2, 0x5);
        acker.ack(2, 0x5);
        assert_eq!(acker.take_completed(), vec![2]);
        // A stale ack for the settled root is dropped: roots register
        // in mint order, so an unknown root at or below the newest
        // registration already settled.
        assert_eq!(acker.ack(2, 0x5), AckOutcome::Pending);
        assert!(acker.take_completed().is_empty());
        assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn ack_racing_ahead_of_init_still_completes() {
        // The executor sends tuples before registering the root; a fast
        // bolt's ack can arrive first and must not be lost.
        let mut acker = Acker::new();
        let (e0, e1) = (0xA1, 0xB2);
        assert_eq!(acker.ack(4, e0 ^ e1), AckOutcome::Pending); // bolt a
        assert_eq!(acker.ack(4, e1), AckOutcome::Pending); // bolt b
        acker.init(4, e0); // spout registers last
        assert_eq!(acker.take_completed(), vec![4]);
    }

    #[test]
    fn fail_racing_ahead_of_init_fails_on_registration() {
        // Symmetric to the ack race: a bolt panics on the tuple before
        // the spout's batched `init` lands. The failure must not be
        // dropped (that would strand the tree until the timeout).
        let mut acker = Acker::new();
        acker.fail(8);
        assert!(acker.take_failed().is_empty(), "nothing to replay yet");
        acker.init(8, 0xC3);
        assert_eq!(acker.take_failed(), vec![8]);
        assert_eq!(acker.pending(), 0);
        // The tombstone is consumed: a replay's fresh root is clean.
        acker.init(9, 0xC4);
        assert!(acker.take_failed().is_empty());
        assert_eq!(acker.pending(), 1);
    }

    #[test]
    fn early_fail_beats_orphan_ack() {
        // fail + another bolt's ack both arrive before init: the tree
        // must fail, and the orphan entry must not linger as pending.
        let mut acker = Acker::new();
        acker.fail(11);
        assert_eq!(acker.ack(11, 0xD5), AckOutcome::Pending);
        acker.init(11, 0xE6);
        assert_eq!(acker.take_failed(), vec![11]);
        assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn stale_fail_tombstones_are_swept() {
        // A fail for an already-settled root leaves a tombstone that
        // expiry sweeps without reporting a failure.
        let mut acker = Acker::new();
        acker.init(12, 0x7);
        acker.ack(12, 0x7);
        assert_eq!(acker.take_completed(), vec![12]);
        acker.fail(12); // stale: the root settled
        std::thread::sleep(Duration::from_millis(10));
        acker.expire(Duration::from_millis(1));
        assert!(acker.take_failed().is_empty());
        assert_eq!(acker.pending(), 0);
    }
}
