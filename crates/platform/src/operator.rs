//! The operator layer: checkpointed stateful bolts with exactly-once
//! recovery — where the algorithm crates and the platform crate meet.
//!
//! [`Checkpointed`] is the one exactly-once operator shell. It makes
//! any [`OperatorState`] recoverable with MillWheel's recipe:
//!
//! 1. every applied tuple's stable record id ([`Tuple::lineage`]) is
//!    remembered, and replayed ids are skipped (lineage 0 marks an
//!    untracked input — the executor never delivers one — and is
//!    applied without dedup);
//! 2. the state snapshot and the ids folded into it are committed to
//!    a [`CheckpointStore`] in one atomic step
//!    ([`CheckpointStore::commit_batch`]), so a crash can never separate
//!    state from its dedup tokens, and every input's ack is held until
//!    the commit that covers it is durable;
//! 3. after the commit, dedup tokens below the GC horizon are freed
//!    ([`CheckpointStore::gc`]) so the seen-set stays bounded.
//!
//! Two states run in it: [`SynopsisBolt`] folds the whole stream into
//! one [`Synopsis`] (HyperLogLog, CountMin, SpaceSaving, GK, reservoir,
//! DGIM, Bloom, Welford, k-means, …), and [`crate::window::WindowBolt`]
//! keeps one synopsis per `(key, event-time window)`. A task holds an
//! ordered list of *slots* — `(checkpoint key, state, pending ids)`.
//! An unsharded task has exactly one, under the key its constructor was
//! given; a task sharded by key-group ([`Checkpointed::sharded`], see
//! [`crate::rescale`]) has one per owned group under
//! [`group_key`]`(base, group)` and speaks the live-migration protocol
//! against its [`Shard`] seat. Commit cadence is per slot; the task's
//! held acks are released only when no slot has uncommitted ids.
//!
//! On restart the bolt's constructor finds the latest checkpoint and
//! resumes from it; [`LogSpout`] replays the durable [`Log`] from
//! [`replay_offset`] — the oldest record any partition might be missing
//! — and the dedup tokens absorb everything the checkpoints already
//! cover. [`MergeBolt`] closes the loop for distributed queries: it
//! collects the partition-local snapshots (fields-grouped upstream) and
//! merges them into one global synopsis, the "merge" half of the
//! sketch contract the paper's §4 algorithms are chosen for.
//!
//! ## Correctness envelope
//!
//! Replay-from-minimum ([`replay_offset`]) is exact when in-run
//! delivery is FIFO and lossless (no [`crate::FaultPlan`] drops or
//! panics — the default): each task's committed `last applied id` then
//! implies every lower id routed to it was applied. When tuples can
//! settle *out of order* — supervised restarts, injected panics, link
//! drops — a failed tuple awaiting replay can fall below another
//! task's checkpoint frontier and be skipped on recovery. For those
//! runs, [`LogSpout::with_frontier`] persists the spout's settled
//! frontier (the Samza committed-offset pattern) and
//! [`frontier_offset`] recovers from it: the frontier only advances
//! past acked records, and checkpointed bolts hold acks until their
//! commit is durable, so replay-from-frontier never skips live state.
//! One residual envelope: `OperatorConfig::gc_horizon` must exceed how
//! far the spout can run ahead of its oldest unsettled record (or be
//! `None`), so a deep replay is never mistaken for a duplicate by the
//! dedup-token low watermark.

use crate::checkpoint::CheckpointStore;
use crate::log::{Log, Record};
use crate::metrics::{CounterHandle, HistogramHandle, Metrics};
use crate::rescale::{group_key, key_group, Shard, KEY_GROUPS};
use crate::supervise::RestartPolicy;
use crate::topology::{Bolt, OutputCollector, Spout};
use crate::tuple::{Tuple, Value};
use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::{Merge, Result, SaError, Synopsis};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Knobs of a [`Checkpointed`] operator.
#[derive(Clone, Debug)]
pub struct OperatorConfig {
    /// Commit a checkpoint after this many freshly applied tuples.
    /// Smaller = less replay after a crash, more commit overhead (the
    /// t2.c experiment sweeps this).
    pub checkpoint_every: u64,
    /// Also commit on `flush()` (topology drain). Leave on unless a
    /// test wants to observe the purely periodic schedule.
    pub commit_on_flush: bool,
    /// After each commit, free dedup tokens more than this far below
    /// the newest applied id. Safe when upstream record ids reach the
    /// task in non-decreasing order with reordering smaller than the
    /// horizon (true for [`LogSpout`] replay over FIFO links); set to
    /// `None` to retain every token.
    pub gc_horizon: Option<u64>,
    /// After every successful mid-run commit, also emit the partial
    /// `[Str(key), Bytes(snapshot), Int(last applied id)]` downstream.
    /// This is how a compiled continuous query ([`crate::query`]) feeds
    /// its serving view *while the stream runs*, not only at drain; the
    /// emitted snapshot is exactly the durable checkpoint, so consumers
    /// never observe state a crash could roll back.
    pub emit_on_commit: bool,
    /// In-place retry of *transient* commit failures (flaky disk, I/O
    /// fault injection): up to `max_restarts` extra attempts, sleeping
    /// the policy's capped exponential backoff between them (the
    /// sliding-window fields are unused here). Retrying in place is what
    /// prevents a replay storm — without it, every transient fault costs
    /// a full replay-from-frontier cycle. `None` fails fast (the
    /// pre-retry behaviour); permanent and corruption errors never
    /// retry.
    pub commit_retry: Option<RestartPolicy>,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 256,
            commit_on_flush: true,
            gc_horizon: Some(65_536),
            emit_on_commit: false,
            commit_retry: Some(RestartPolicy { max_restarts: 3, ..RestartPolicy::default() }),
        }
    }
}

const CHECKPOINT_TAG: u8 = b'O';

/// Encode a checkpoint value: the newest applied record id plus the
/// state snapshot, as one atomic unit.
pub(crate) fn encode_checkpoint(last_applied: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(1 + 8 + 8 + snapshot.len());
    w.tag(CHECKPOINT_TAG).put_u64(last_applied).put_bytes(snapshot);
    w.finish()
}

/// Decode a checkpoint value into `(last applied id, snapshot bytes)`.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(u64, Vec<u8>)> {
    let mut r = ByteReader::new(bytes);
    r.expect_tag(CHECKPOINT_TAG, "operator checkpoint")?;
    let last_applied = r.get_u64()?;
    let snapshot = r.get_bytes()?.to_vec();
    r.finish()?;
    Ok((last_applied, snapshot))
}

/// The log offset a restarted topology must replay from so that no
/// task misses a record: the minimum `last applied id` committed under
/// the given checkpoint keys (0 — replay everything — when any key has
/// no checkpoint yet). With [`LogSpout`]'s id scheme
/// (`id = id_base + offset + 1`) and `id_base = 0`, the returned value
/// is directly the `from_offset` to restart the spout at; tasks whose
/// checkpoints are ahead of it drop the overlap as duplicates.
pub fn replay_offset(store: &CheckpointStore, keys: &[&str]) -> u64 {
    let mut min_applied = u64::MAX;
    for key in keys {
        let Some((_, value)) = store.get(key) else { return 0 };
        let Ok((last_applied, _)) = decode_checkpoint(&value) else { return 0 };
        min_applied = min_applied.min(last_applied);
    }
    if min_applied == u64::MAX {
        0
    } else {
        min_applied
    }
}

/// The settled-frontier offset persisted by a
/// [`LogSpout::with_frontier`] spout (0 — replay everything — when no
/// frontier was ever committed). Unlike [`replay_offset`], this is safe
/// when tuples settle *out of order* — under supervised restarts, link
/// drops, or replays — because the frontier only advances past records
/// that were acked, and an ack implies durability everywhere.
pub fn frontier_offset(store: &CheckpointStore, key: &str) -> u64 {
    store
        .get(key)
        .and_then(|(_, value)| decode_checkpoint(&value).ok())
        .map_or(0, |(offset, _)| offset)
}

/// What a [`Checkpointed`] shell makes exactly-once: the state of one
/// slot. The shell decides *whether* a tuple is applied (dedup), *when*
/// the state is committed and *when* acks are released; the state only
/// folds, encodes and emits.
pub trait OperatorState: Send {
    /// Fold one fresh (never applied) tuple into the state.
    fn apply(&mut self, input: &Tuple, out: &mut OutputCollector);

    /// The checkpoint's snapshot payload (the shell wraps it in the
    /// `last applied id` envelope, see [`decode_checkpoint`]).
    ///
    /// Takes `&mut self` so a state may cache encoded parts between
    /// commits and re-encode only what changed since the last call (the
    /// window state caches one record per pane). Contract: the output
    /// must equal, byte for byte, what a full encode of the same state
    /// from scratch would produce.
    fn encode(&mut self) -> Vec<u8>;

    /// Replace the state with a decoded snapshot payload.
    fn restore(&mut self, payload: &[u8]) -> Result<()>;

    /// The task's merged watermark advanced to `wm`.
    fn on_watermark(&mut self, _wm: u64, _out: &mut OutputCollector) {}

    /// The partial to emit once a mid-run commit under
    /// [`OperatorConfig::emit_on_commit`] has made `snapshot` (this
    /// state's [`OperatorState::encode`]) durable under `key`, if any.
    fn partial(&self, _key: &Arc<str>, _snapshot: Vec<u8>, _last_applied: u64) -> Option<Tuple> {
        None
    }

    /// Topology drain: emit the final results.
    fn drain(&mut self, key: &Arc<str>, out: &mut OutputCollector);
}

/// One checkpoint key's worth of a task: the state plus its ledger of
/// applied-but-not-yet-durable ids.
struct Slot<St> {
    /// Key-group of a sharded task's slot (0 for an unsharded task's
    /// only slot); `Checkpointed::slots` is sorted by it.
    group: usize,
    key: Arc<str>,
    state: St,
    /// Fresh ids applied since the last commit, in arrival order.
    pending: Vec<u64>,
    pending_set: HashSet<u64>,
    /// Newest id ever folded into the state (committed or pending).
    last_applied: u64,
}

/// The sharded half of a task: its seat in the component's shard table
/// and the pristine state each newly materialised key-group copies
/// (`fresh` is `St::clone`, kept as a fn pointer so unsharded operators
/// need no `Clone` state).
struct Sharding<St> {
    seat: Shard,
    base: Arc<str>,
    pristine: St,
    fresh: fn(&St) -> St,
}

/// The exactly-once operator shell (see the module docs for the
/// protocol): dedup, the pending-id ledger, atomic commit with in-place
/// retry, token GC, held acks, commit-on-idle and commit-on-flush —
/// written once, over any [`OperatorState`]. Use it through
/// [`SynopsisBolt`] or [`crate::window::WindowBolt`].
pub struct Checkpointed<St> {
    store: CheckpointStore,
    cfg: OperatorConfig,
    /// Sorted by group. Exactly one for an unsharded task.
    slots: Vec<Slot<St>>,
    sharding: Option<Sharding<St>>,
    duplicates_skipped: u64,
    /// Checkpoint writes rejected by the store after the in-place retry
    /// budget (if any) was spent. The slot keeps its pending batch and
    /// retries on a later commit.
    commit_failures: u64,
    /// Transient commit errors absorbed by in-place retry (each one a
    /// replay cycle that did *not* happen).
    commit_retries: u64,
    /// `{component}.commit_failures` / `{component}.commit_retries`
    /// counters and the `{component}.commit_us` histogram of commit
    /// (encode + store write + gc) latency, wired by
    /// [`Bolt::register_metrics`] when the bolt runs under an executor
    /// (absent when driven standalone).
    commit_failures_ctr: Option<CounterHandle>,
    commit_retries_ctr: Option<CounterHandle>,
    commit_us: Option<HistogramHandle>,
    /// Whether any slot was restored from a checkpoint.
    recovered: bool,
}

impl<St: OperatorState> Checkpointed<St> {
    /// An operator with one slot under `key`, recovered from `store`
    /// when it holds a checkpoint there.
    pub(crate) fn open(
        key: &str,
        store: &CheckpointStore,
        state: St,
        cfg: OperatorConfig,
    ) -> Result<Self> {
        let mut me = Self {
            store: store.clone(),
            cfg,
            slots: Vec::new(),
            sharding: None,
            duplicates_skipped: 0,
            commit_failures: 0,
            commit_retries: 0,
            commit_failures_ctr: None,
            commit_retries_ctr: None,
            commit_us: None,
            recovered: false,
        };
        me.open_slot(0, Arc::from(key), state)?;
        Ok(me)
    }

    /// Re-seat this freshly built operator as one task of a component
    /// sharded by key-group (see [`crate::rescale`]): instead of one
    /// slot under its key, it keeps one per group `seat` owns, under
    /// the task-agnostic [`group_key`]`(key, group)` — so a live rescale
    /// moves state by re-reading the store — each starting as a copy of
    /// the state it was built with. Owned groups that already have a
    /// checkpoint (migrated here, or this task's own before a restart)
    /// are restored now; the rest materialise on their first tuple.
    pub fn sharded(mut self, seat: Shard) -> Result<Self>
    where
        St: Clone,
    {
        let pristine = !self.recovered && self.sharding.is_none();
        let Some(slot) = self.slots.pop().filter(|_| pristine) else {
            let why = "needs an unsharded operator whose own key holds no checkpoint";
            return Err(SaError::invalid("sharded", why));
        };
        self.sharding =
            Some(Sharding { seat, base: slot.key, pristine: slot.state, fresh: St::clone });
        self.restore_owned()?;
        Ok(self)
    }

    /// Insert the slot for `group`: `state`, replaced by the checkpoint
    /// under `key` when the store has one. Returns the slot's index.
    fn open_slot(&mut self, group: usize, key: Arc<str>, mut state: St) -> Result<usize> {
        let mut last_applied = 0;
        if let Some((_, value)) = self.store.get(&key) {
            let (applied, payload) = decode_checkpoint(&value)?;
            state.restore(&payload)?;
            self.recovered = true;
            last_applied = applied;
        }
        let at = self.slots.partition_point(|s| s.group < group);
        self.slots.insert(
            at,
            Slot {
                group,
                key,
                state,
                pending: Vec::new(),
                pending_set: HashSet::new(),
                last_applied,
            },
        );
        Ok(at)
    }

    /// Sharded tasks: materialise `group` from a copy of the pristine
    /// state (and its checkpoint, if any).
    fn open_group(&mut self, group: usize) -> Result<usize> {
        let sh = self.sharding.as_ref().expect("only sharded tasks open groups");
        let state = (sh.fresh)(&sh.pristine);
        self.open_slot(group, group_key(&sh.base, group).into(), state)
    }

    /// Sharded tasks: materialise every owned group that has a
    /// checkpoint and no slot yet — at construction and after every
    /// newly adopted assignment, so a migrated group fires its windows
    /// and drains even if no tuple ever reaches it here.
    fn restore_owned(&mut self) -> Result<()> {
        for group in 0..KEY_GROUPS {
            let sh = self.sharding.as_ref().expect("only sharded tasks restore groups");
            if sh.seat.owns(group)
                && self.slots.binary_search_by_key(&group, |s| s.group).is_err()
                && self.store.get(&group_key(&sh.base, group)).is_some()
            {
                self.open_group(group)?;
            }
        }
        Ok(())
    }

    /// Sharded tasks observe their shard table at the top of every
    /// callback: a new quiesce generation drops every slot (uncommitted
    /// effects are replayed — identical to the supervision rebuild
    /// path), abandons the held acks and acknowledges; a new epoch
    /// drops the groups this task no longer owns and restores the ones
    /// it gained. A failed restore panics: supervision restarts the
    /// task with backoff, which retries it. Returns whether the task
    /// may take input and commit (not while a quiesce is in flight).
    fn sync(&mut self, out: &mut OutputCollector) -> bool {
        let Some(Sharding { seat, .. }) = self.sharding.as_mut() else { return true };
        let gen = seat.table.quiesce_gen();
        if gen != 0 && seat.acked_gen < gen {
            seat.acked_gen = gen;
            self.slots.clear();
            out.abandon_held();
            seat.table.ack_quiesce(seat.task, gen);
        }
        let epoch = seat.table.epoch();
        if epoch != seat.seen_epoch {
            seat.seen_epoch = epoch;
            let before = self.slots.len();
            self.slots.retain(|s| seat.owns(s.group));
            if self.slots.len() != before {
                // Conservative: replay everything uncommitted. Dedup
                // absorbs replays of still-owned groups.
                out.abandon_held();
            }
            self.restore_owned().unwrap_or_else(|e| panic!("key-group restore failed: {e}"));
        }
        gen == 0
    }

    /// The slot `input` belongs to: slot 0 of an unsharded task, no
    /// lookup. A sharded task materialises the group on first touch, or
    /// fails the input (so replay re-routes it) mid-migration and when
    /// it does not own the group under the current assignment.
    fn route(&mut self, input: &Tuple, out: &mut OutputCollector) -> Option<usize> {
        if self.sharding.is_none() {
            return Some(0);
        }
        let accepting = self.sync(out);
        let seat = &self.sharding.as_ref().expect("checked above").seat;
        let group = key_group(input, &seat.fields);
        if !accepting || !seat.owns(group) {
            out.fail();
            return None;
        }
        Some(self.slots.binary_search_by_key(&group, |s| s.group).unwrap_or_else(|_| {
            self.open_group(group).unwrap_or_else(|e| panic!("key-group restore failed: {e}"))
        }))
    }

    /// Exactly-once dedup of `id` against slot `i`: `Some(durable)` for
    /// a replay. A durable duplicate acks immediately; one whose commit
    /// is still pending must be held like its original attempt — acking
    /// now would settle a record that a crash could still lose.
    fn duplicate(&mut self, i: usize, id: u64) -> Option<bool> {
        let slot = &self.slots[i];
        let pending = id != 0 && slot.pending_set.contains(&id);
        if !pending && (id == 0 || !self.store.is_seen(&slot.key, id)) {
            return None;
        }
        self.duplicates_skipped += 1;
        Some(!pending)
    }

    /// Commit slot `i`'s pending batch: snapshot + fresh ids,
    /// atomically. Returns whether the batch is now durable (trivially
    /// true when it was empty). On a failed write the checkpoint is
    /// *skipped, state intact*: the pending ids stay pending (so the
    /// stored `last applied` — and with it [`replay_offset`] — never
    /// advances past unpersisted state) and the next commit retries
    /// them together with anything newer. A successful commit emits the
    /// [`OperatorConfig::emit_on_commit`] partial into `partial_to`.
    fn commit(&mut self, i: usize, partial_to: Option<&mut OutputCollector>) -> bool {
        let slot = &mut self.slots[i];
        if slot.pending.is_empty() {
            return true;
        }
        let commit_start = Instant::now();
        let snapshot = slot.state.encode();
        let mut attempt: u32 = 0;
        loop {
            let value = encode_checkpoint(slot.last_applied, &snapshot);
            let Err(e) = self.store.commit_batch(&slot.key, &slot.pending, value) else { break };
            let retry = self.cfg.commit_retry.as_ref();
            if !e.is_transient() || attempt >= retry.map_or(0, |p| p.max_restarts) {
                self.commit_failures += 1;
                if let Some(c) = &self.commit_failures_ctr {
                    c.add(1);
                }
                return false;
            }
            let backoff = retry.expect("budget > 0").backoff(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            attempt += 1;
            self.commit_retries += 1;
            if let Some(c) = &self.commit_retries_ctr {
                c.add(1);
            }
        }
        slot.pending.clear();
        slot.pending_set.clear();
        if let Some(horizon) = self.cfg.gc_horizon {
            self.store.gc(&slot.key, slot.last_applied.saturating_sub(horizon));
        }
        if let Some(h) = &self.commit_us {
            h.record(commit_start.elapsed().as_secs_f64() * 1e6);
        }
        if let (true, Some(out)) = (self.cfg.emit_on_commit, partial_to) {
            out.emitted.extend(slot.state.partial(&slot.key, snapshot, slot.last_applied));
        }
        true
    }

    /// Whether no slot has applied-but-uncommitted ids — the only time
    /// the task's held acks may be released (the runtime's ledger is
    /// per task, so one dirty slot keeps every held ack parked; acks of
    /// already-durable inputs are merely delayed, never lost).
    fn all_durable(&self) -> bool {
        self.slots.iter().all(|s| s.pending.is_empty())
    }

    /// Newest record id folded into the state.
    pub fn last_applied(&self) -> u64 {
        self.slots.iter().map(|s| s.last_applied).max().unwrap_or(0)
    }

    /// Whether a prior checkpoint was restored.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Replayed tuples dropped by deduplication.
    pub fn duplicates_skipped(&self) -> u64 {
        self.duplicates_skipped
    }

    /// Checkpoint writes the store rejected (state kept, retried later).
    pub fn commit_failures(&self) -> u64 {
        self.commit_failures
    }

    /// Transient commit errors absorbed by in-place retry
    /// ([`OperatorConfig::commit_retry`]) — faults that did *not*
    /// surface as a failed commit or a replay.
    pub fn commit_retries(&self) -> u64 {
        self.commit_retries
    }

    /// The live states, in key-group order: one for an unsharded task,
    /// one per materialised key-group for a sharded one.
    pub(crate) fn states(&self) -> impl ExactSizeIterator<Item = &St> {
        self.slots.iter().map(|s| &s.state)
    }
}

impl<St: OperatorState> Bolt for Checkpointed<St> {
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
        let Some(i) = self.route(input, out) else { return };
        let id = input.lineage;
        // Exactly-once dedup first: a replayed tuple must not be folded
        // into the state again.
        if let Some(durable) = self.duplicate(i, id) {
            if !durable {
                out.hold_ack();
            }
            return;
        }
        self.slots[i].state.apply(input, out);
        if id == 0 {
            return;
        }
        let slot = &mut self.slots[i];
        slot.pending.push(id);
        slot.pending_set.insert(id);
        slot.last_applied = slot.last_applied.max(id);
        // Commit when the slot's cadence is due and release the task's
        // acks if that left every slot durable; otherwise hold this
        // input's ack so a restart replays it.
        let due = slot.pending.len() as u64 >= self.cfg.checkpoint_every;
        if due && self.commit(i, Some(&mut *out)) && self.all_durable() {
            out.release_acks();
        } else {
            out.hold_ack();
        }
    }

    fn on_watermark(&mut self, wm: u64, out: &mut OutputCollector) {
        if self.sync(out) {
            for slot in &mut self.slots {
                slot.state.on_watermark(wm, out);
            }
        }
    }

    fn on_idle(&mut self, out: &mut OutputCollector) {
        // Input queue drained: make every slot's tail durable and
        // release the held acks so the spout can settle.
        if !self.sync(out) {
            return;
        }
        let mut committed = false;
        for i in 0..self.slots.len() {
            if !self.slots[i].pending.is_empty() {
                committed |= self.commit(i, Some(&mut *out));
            }
        }
        if committed && self.all_durable() {
            out.release_acks();
        }
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        if self.sharding.is_some() {
            self.sync(out);
            // A quiesce acknowledged just before the drain dropped the
            // slots; their final state is still owed downstream.
            self.restore_owned().unwrap_or_else(|e| panic!("key-group restore failed: {e}"));
        }
        if self.cfg.commit_on_flush {
            for i in 0..self.slots.len() {
                self.commit(i, None);
            }
            if self.all_durable() {
                out.release_acks();
            }
        }
        for slot in &mut self.slots {
            slot.state.drain(&slot.key, out);
        }
    }

    fn register_metrics(&mut self, metrics: &Metrics, component: &str) {
        self.commit_failures_ctr = Some(metrics.register(&format!("{component}.commit_failures")));
        self.commit_retries_ctr = Some(metrics.register(&format!("{component}.commit_retries")));
        self.commit_us = Some(metrics.register_histogram(&format!("{component}.commit_us")));
    }
}

/// The whole-stream [`OperatorState`]: one [`Synopsis`] and the closure
/// that folds a tuple into it. A copy seeds one key-group of a sharded
/// task.
#[derive(Clone)]
pub struct SynopsisState<S, F> {
    summary: S,
    update: F,
}

impl<S: Synopsis + Send, F: FnMut(&Tuple, &mut S) + Send> OperatorState for SynopsisState<S, F> {
    fn apply(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        (self.update)(input, &mut self.summary);
    }

    fn encode(&mut self) -> Vec<u8> {
        self.summary.snapshot()
    }

    fn restore(&mut self, payload: &[u8]) -> Result<()> {
        self.summary.restore(payload)
    }

    fn partial(&self, key: &Arc<str>, snapshot: Vec<u8>, last_applied: u64) -> Option<Tuple> {
        // Checkpoint key, durable snapshot, and the progress marker
        // consumers fold into their `covers` watermark.
        let applied = Value::Int(last_applied as i64);
        Some(Tuple::new(vec![Value::Str(key.clone()), Value::Bytes(snapshot.into()), applied]))
    }

    fn drain(&mut self, key: &Arc<str>, out: &mut OutputCollector) {
        let snapshot = Value::Bytes(self.summary.snapshot().into());
        out.emit(Tuple::new(vec![Value::Str(key.clone()), snapshot]));
    }
}

/// A partition-local checkpointed synopsis operator: the
/// [`Checkpointed`] shell over one whole-stream [`Synopsis`].
///
/// `update` folds one tuple into the synopsis; it runs only for tuples
/// whose record id has not been applied before. On `flush()` the bolt
/// emits `[Str(checkpoint key), Bytes(snapshot)]` for a downstream
/// [`MergeBolt`] (or any consumer of partial aggregates).
pub type SynopsisBolt<S, F> = Checkpointed<SynopsisState<S, F>>;

impl<S: Synopsis + Send, F: FnMut(&Tuple, &mut S) + Send> SynopsisBolt<S, F> {
    /// A bolt checkpointing under `key` in `store`. If `store` already
    /// holds a checkpoint for `key`, the bolt *recovers*: `initial` is
    /// replaced by the checkpointed synopsis and deduplication resumes
    /// from the checkpointed id set. Each parallel instance of a
    /// component needs its own key (e.g. `"wordcount/3"`).
    pub fn new(key: &str, store: &CheckpointStore, initial: S, update: F) -> Result<Self> {
        Self::with_config(key, store, initial, update, OperatorConfig::default())
    }

    /// [`SynopsisBolt::new`] with explicit [`OperatorConfig`].
    pub fn with_config(
        key: &str,
        store: &CheckpointStore,
        initial: S,
        update: F,
        cfg: OperatorConfig,
    ) -> Result<Self> {
        Self::open(key, store, SynopsisState { summary: initial, update }, cfg)
    }

    /// The live synopsis (a sharded task's lowest materialised
    /// key-group's; its pristine one when none is).
    pub fn summary(&self) -> &S {
        let pristine = self.sharding.as_ref().map(|sh| &sh.pristine);
        &self.states().next().or(pristine).expect("an unsharded task has one slot").summary
    }
}

/// Restore each partial into a clone of `template` and merge them, in
/// key order (a deterministic merge order). A partial that fails to
/// restore or merge is reported to `bad_part` and skipped.
pub(crate) fn merge_partials<'a, S: Synopsis + Merge + Clone>(
    template: &S,
    parts: impl IntoIterator<Item = (&'a String, &'a Vec<u8>)>,
    mut bad_part: impl FnMut(SaError),
) -> S {
    let mut parts: Vec<_> = parts.into_iter().collect();
    parts.sort_by_key(|(key, _)| *key);
    let mut global = template.clone();
    for (_, bytes) in parts {
        let mut part = template.clone();
        if let Err(e) = part.restore(bytes).and_then(|()| global.merge(&part)) {
            bad_part(e);
        }
    }
    global
}

/// The global-view aggregator: collects the latest
/// `[Str(partition key), Bytes(snapshot)]` tuple per partition (emitted
/// by [`SynopsisBolt::flush`]) and, on its own flush, restores each
/// into a clone of the template and merges them into one synopsis,
/// emitting `[Str(name), Bytes(global snapshot)]`. Wire it with a
/// global (or fields) grouping downstream of the partitioned bolts.
pub struct MergeBolt<S> {
    name: std::sync::Arc<str>,
    template: S,
    parts: HashMap<String, Vec<u8>>,
    errors: u64,
}

impl<S: Synopsis + Merge + Clone + Send> MergeBolt<S> {
    /// An aggregator emitting under `name`; `template` supplies the
    /// synopsis configuration every partial must be compatible with.
    pub fn new(name: &str, template: S) -> Self {
        Self { name: std::sync::Arc::from(name), template, parts: HashMap::new(), errors: 0 }
    }

    /// Merge the collected partials into one synopsis.
    pub fn merged(&mut self) -> Result<S> {
        let mut first_error = None;
        let global = merge_partials(&self.template, &self.parts, |e| {
            first_error.get_or_insert(e);
        });
        first_error.map_or(Ok(global), Err)
    }

    /// Malformed or incompatible partials dropped so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl<S: Synopsis + Merge + Clone + Send> Bolt for MergeBolt<S> {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        match (input.get(0).and_then(Value::as_str), input.get(1).and_then(Value::as_bytes)) {
            (Some(key), Some(bytes)) => {
                self.parts.insert(key.to_string(), bytes.to_vec());
            }
            _ => self.errors += 1,
        }
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        match self.merged() {
            Ok(global) => out.emit(Tuple::new(vec![
                Value::Str(self.name.clone()),
                Value::Bytes(global.snapshot().into()),
            ])),
            Err(_) => self.errors += 1,
        }
    }
}

/// Records fetched from the log per read (amortises lock traffic).
const READ_CHUNK: usize = 256;

/// Periodic persistence of a [`LogSpout`]'s settled frontier — the
/// Samza/Kafka committed-offset pattern.
struct FrontierCheckpoint {
    store: CheckpointStore,
    key: String,
    every: u64,
    settles: u64,
    /// Frontier puts the store rejected (flaky durable backend). Each
    /// one only defers the advance to the next cadence hit.
    put_failures: u64,
}

/// A reliable spout over one [`Log`] partition. Record ids are stable
/// across replays and restarts: `id = id_base + offset + 1` (`id_base`
/// keeps multi-partition topologies in disjoint id spaces; offsets are
/// shifted by one so id 0 never occurs). Failed tuples are re-read
/// from the log — the log *is* the replay buffer, as in Samza/Kafka.
pub struct LogSpout<F> {
    log: Log,
    partition: usize,
    id_base: u64,
    next_offset: u64,
    decode: F,
    buf: VecDeque<Record>,
    in_flight: HashSet<u64>,
    requeue: VecDeque<u64>,
    frontier: Option<FrontierCheckpoint>,
    /// Re-emissions performed (diagnostic).
    pub replays: u64,
    /// Failed records no longer retained by the log (unrecoverable).
    pub lost: u64,
}

impl<F: FnMut(&Record) -> Tuple + Send> LogSpout<F> {
    /// A spout reading `partition` of `log` from `from_offset`, turning
    /// each record into a tuple via `decode`. On recovery, pass
    /// [`replay_offset`] as `from_offset` (with the same `id_base` used
    /// before the crash) — or, when tuples can settle out of order (see
    /// [`frontier_offset`]), enable [`LogSpout::with_frontier`] and pass
    /// [`frontier_offset`] instead.
    pub fn new(log: &Log, partition: usize, from_offset: u64, id_base: u64, decode: F) -> Self {
        Self {
            log: log.clone(),
            partition,
            id_base,
            next_offset: from_offset,
            decode,
            buf: VecDeque::new(),
            in_flight: HashSet::new(),
            requeue: VecDeque::new(),
            frontier: None,
            replays: 0,
            lost: 0,
        }
    }

    /// Persist the spout's *settled frontier* — the oldest offset whose
    /// record has not yet been acked — under `key` in `store`, every
    /// `every` settled records (Samza's committed consumer offset).
    ///
    /// An ack only reaches the spout once the record's effects are
    /// durable everywhere (checkpointed bolts hold acks until their
    /// commit succeeds), so every offset below the frontier is fully
    /// recovered state: a restart may replay from [`frontier_offset`]
    /// regardless of how far individual tasks' checkpoints ran ahead,
    /// closing the replay-from-minimum gap described in the module
    /// docs' correctness envelope.
    pub fn with_frontier(mut self, store: &CheckpointStore, key: &str, every: u64) -> Self {
        self.frontier = Some(FrontierCheckpoint {
            store: store.clone(),
            key: key.to_string(),
            every: every.max(1),
            settles: 0,
            put_failures: 0,
        });
        self
    }

    /// Frontier persists the store rejected (flaky durable backend) —
    /// each one deferred the advance to the next cadence, it never
    /// loses settled state.
    pub fn frontier_put_failures(&self) -> u64 {
        self.frontier.as_ref().map_or(0, |fc| fc.put_failures)
    }

    /// The oldest offset not yet settled (== `next_offset` when nothing
    /// is pending). Every offset below it has been acked — durable
    /// everywhere — and never needs replay.
    fn settled_frontier(&self) -> u64 {
        self.in_flight
            .iter()
            .chain(self.requeue.iter())
            .min()
            .map_or(self.next_offset, |&id| id - self.id_base - 1)
    }

    /// Count one settled record; persist the frontier on cadence.
    fn on_settle(&mut self) {
        let frontier = self.settled_frontier();
        if let Some(fc) = self.frontier.as_mut() {
            fc.settles += 1;
            if fc.settles % fc.every == 0 {
                // The frontier is pure optimization: a rejected put only
                // means a deeper replay after the next crash, so a flaky
                // durable store must not panic the spout — the next
                // cadence hit retries with a fresher frontier.
                if fc.store.try_put(&fc.key, encode_checkpoint(frontier, &[])).is_err() {
                    fc.put_failures += 1;
                }
            }
        }
    }

    fn emit(&mut self, rec: &Record) -> Tuple {
        let id = self.id_base + rec.offset + 1;
        let mut t = (self.decode)(rec);
        // The stable id rides in `root`; the runtime turns it into the
        // tuple's lineage (and assigns a fresh ack tree per attempt).
        t.root = id;
        // The log's event-time stamp survives replay, so recovered
        // tuples re-enter the same windows as the original attempt
        // (unless `decode` already chose a timestamp).
        if t.event_time.is_none() {
            t.event_time = rec.event_time;
        }
        self.in_flight.insert(id);
        t
    }
}

impl<F: FnMut(&Record) -> Tuple + Send> Spout for LogSpout<F> {
    fn next_tuple(&mut self) -> Option<Tuple> {
        while let Some(id) = self.requeue.pop_front() {
            let offset = id - self.id_base - 1;
            match self.log.read(self.partition, offset, 1).into_iter().next() {
                Some(rec) if rec.offset == offset => {
                    self.replays += 1;
                    return Some(self.emit(&rec));
                }
                // Trimmed out from under us: nothing left to replay.
                _ => self.lost += 1,
            }
        }
        if self.buf.is_empty() {
            self.buf.extend(self.log.read(self.partition, self.next_offset, READ_CHUNK));
        }
        let rec = self.buf.pop_front()?;
        self.next_offset = rec.offset + 1;
        Some(self.emit(&rec))
    }

    fn ack(&mut self, root: u64) {
        if self.in_flight.remove(&root) {
            self.on_settle();
        }
    }

    fn fail(&mut self, root: u64) -> bool {
        if self.in_flight.remove(&root) {
            self.requeue.push_back(root);
            true
        } else {
            false
        }
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.requeue.len()
    }

    fn quarantine(&mut self, root: u64) -> Option<Tuple> {
        // Retire the record so it is never replayed again, then re-read
        // it from the log so the DLQ carries the original payload.
        if !self.in_flight.remove(&root) {
            let pos = self.requeue.iter().position(|&id| id == root)?;
            self.requeue.remove(pos);
        }
        // A quarantined record is settled: it will never be replayed,
        // so the frontier may advance past it.
        self.on_settle();
        let offset = root - self.id_base - 1;
        match self.log.read(self.partition, offset, 1).into_iter().next() {
            Some(rec) if rec.offset == offset => Some((self.decode)(&rec)),
            _ => {
                // Trimmed: quarantined *and* unrecoverable.
                self.lost += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple_of;

    /// Minimal mergeable synopsis for operator-protocol tests: a count
    /// and a sum.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct CountSum {
        n: u64,
        sum: i64,
    }

    impl CountSum {
        fn push(&mut self, v: i64) {
            self.n += 1;
            self.sum += v;
        }
    }

    impl Synopsis for CountSum {
        fn snapshot(&self) -> Vec<u8> {
            let mut w = ByteWriter::with_capacity(17);
            w.tag(b'T').put_u64(self.n).put_i64(self.sum);
            w.finish()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            let mut r = ByteReader::new(bytes);
            r.expect_tag(b'T', "CountSum")?;
            let n = r.get_u64()?;
            let sum = r.get_i64()?;
            r.finish()?;
            *self = Self { n, sum };
            Ok(())
        }
    }

    impl Merge for CountSum {
        fn merge(&mut self, other: &Self) -> Result<()> {
            self.n += other.n;
            self.sum += other.sum;
            Ok(())
        }
    }

    fn int_tuple(v: i64, lineage: u64) -> Tuple {
        let mut t = tuple_of([v]);
        t.lineage = lineage;
        t
    }

    fn apply(t: &Tuple, s: &mut CountSum) {
        s.push(t.get(0).unwrap().as_int().unwrap());
    }

    #[test]
    fn checkpoint_commits_batches_and_skips_duplicates() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 4, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        assert!(!bolt.recovered());
        let mut out = OutputCollector::new();
        for id in 1..=6u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        // Ids 1..=4 committed; 5, 6 still pending.
        let (applied, snap) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 4);
        let mut cp = CountSum::default();
        cp.restore(&snap).unwrap();
        assert_eq!(cp, CountSum { n: 4, sum: 4 });
        // Replays of committed AND pending ids are both dropped.
        bolt.execute(&int_tuple(1, 2), &mut out);
        bolt.execute(&int_tuple(1, 5), &mut out);
        assert_eq!(bolt.duplicates_skipped(), 2);
        assert_eq!(bolt.summary(), &CountSum { n: 6, sum: 6 });
        // Flush commits the tail and emits the snapshot.
        bolt.flush(&mut out);
        let (applied, _) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 6);
        let emitted = &out.emitted[0];
        assert_eq!(emitted.get(0).unwrap().as_str(), Some("k"));
        let mut from_emit = CountSum::default();
        from_emit.restore(emitted.get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(from_emit, *bolt.summary());
    }

    #[test]
    fn failed_commit_keeps_pending_and_never_advances_offset() {
        let store = CheckpointStore::new();
        store.inject_commit_failures(1.0, 7);
        let cfg = OperatorConfig { checkpoint_every: 2, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        bolt.execute(&int_tuple(1, 1), &mut out);
        assert!(out.hold && !out.release, "below cadence: ack must be held");
        bolt.execute(&int_tuple(1, 2), &mut out);
        // The commit failed: acks stay held, nothing is persisted, and
        // the replay offset must NOT advance past the unpersisted ids.
        assert!(out.hold && !out.release, "failed commit must not release acks");
        assert_eq!(bolt.commit_failures(), 1);
        assert!(store.get("k").is_none());
        assert_eq!(replay_offset(&store, &["k"]), 0);
        // State stays intact; the next interval retries and commits
        // the whole backlog.
        store.inject_commit_failures(0.0, 0);
        out.hold = false;
        bolt.execute(&int_tuple(1, 3), &mut out);
        assert!(out.release, "successful commit releases the held acks");
        let (applied, snap) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 3);
        let mut cp = CountSum::default();
        cp.restore(&snap).unwrap();
        assert_eq!(cp, CountSum { n: 3, sum: 3 });
        assert_eq!(replay_offset(&store, &["k"]), 3);
    }

    #[test]
    fn on_idle_commits_the_tail_and_releases() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 100, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=3u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert!(out.hold && store.get("k").is_none());
        bolt.on_idle(&mut out);
        assert!(out.release);
        assert_eq!(replay_offset(&store, &["k"]), 3);
        // Idle with nothing pending is a no-op.
        out.release = false;
        bolt.on_idle(&mut out);
        assert!(!out.release);
    }

    #[test]
    fn emit_on_commit_streams_durable_partials() {
        let store = CheckpointStore::new();
        let cfg =
            OperatorConfig { checkpoint_every: 2, emit_on_commit: true, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=4u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert_eq!(out.emitted.len(), 2, "one partial per commit");
        let t = &out.emitted[1];
        assert_eq!(t.get(0).unwrap().as_str(), Some("k"));
        assert_eq!(t.get(2).unwrap().as_int(), Some(4), "partial carries its progress marker");
        let mut part = CountSum::default();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(part, CountSum { n: 4, sum: 4 }, "partial is the durable snapshot");
        // The on_idle tail commit publishes too.
        bolt.execute(&int_tuple(1, 5), &mut out);
        bolt.on_idle(&mut out);
        assert_eq!(out.emitted.len(), 3);
        assert_eq!(out.emitted[2].get(2).unwrap().as_int(), Some(5));
    }

    #[test]
    fn restart_recovers_checkpoint_and_dedups_replay() {
        let store = CheckpointStore::new();
        let mut out = OutputCollector::new();
        {
            let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
            for id in 1..=10u64 {
                bolt.execute(&int_tuple(id as i64, id), &mut out);
            }
            bolt.flush(&mut out);
        }
        // "Restart": same key, fresh initial state.
        let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
        assert!(bolt.recovered());
        assert_eq!(bolt.last_applied(), 10);
        assert_eq!(bolt.summary(), &CountSum { n: 10, sum: 55 });
        // Full replay: every id rejected, state unchanged.
        for id in 1..=10u64 {
            bolt.execute(&int_tuple(id as i64, id), &mut out);
        }
        assert_eq!(bolt.duplicates_skipped(), 10);
        bolt.execute(&int_tuple(100, 11), &mut out);
        assert_eq!(bolt.summary(), &CountSum { n: 11, sum: 155 });
    }

    #[test]
    fn gc_keeps_seen_set_bounded() {
        let store = CheckpointStore::new();
        let cfg =
            OperatorConfig { checkpoint_every: 10, gc_horizon: Some(20), ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=1_000u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert!(store.seen_tokens("k") <= 30, "seen set leaked: {} tokens", store.seen_tokens("k"));
        // Dedup still covers the GC'd range via the watermark.
        bolt.execute(&int_tuple(1, 3), &mut out);
        assert_eq!(bolt.summary().n, 1_000);
    }

    #[test]
    fn commit_and_restore_latencies_are_observed() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 4, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg.clone())
                .unwrap();
        let metrics = Metrics::new();
        bolt.register_metrics(&metrics, "agg");
        let commit_us = || *metrics.snapshot().histogram("agg.commit_us").expect("registered");
        assert_eq!(commit_us().count, 0, "no commits yet");
        assert!(!bolt.recovered(), "fresh start restores nothing");
        let mut out = OutputCollector::new();
        for id in 1..=20u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        let h = commit_us();
        assert_eq!(h.count, 5, "one sample per commit");
        assert!(h.p50 > 0.0 && h.p50 <= h.p90 && h.p90 <= h.p99, "bad quantiles: {h:?}");
        drop(bolt);
        let restarted =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        assert!(restarted.recovered());
    }

    /// What an unsharded task stores is a compatibility surface — a
    /// restart after an upgrade reads it: under exactly the caller's
    /// key, envelope tag `O`, the last applied id, the length-prefixed
    /// synopsis snapshot.
    #[test]
    fn checkpoint_key_and_bytes_keep_the_documented_layout() {
        let golden = |last_applied: u64, state: CountSum| {
            let mut w = ByteWriter::new();
            w.tag(b'O').put_u64(last_applied).put_bytes(&state.snapshot());
            w.finish()
        };
        let store = CheckpointStore::new();
        store.put("k", golden(7, CountSum { n: 3, sum: 30 }));
        let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
        assert!(bolt.recovered());
        assert_eq!((bolt.last_applied(), bolt.summary()), (7, &CountSum { n: 3, sum: 30 }));
        let mut out = OutputCollector::new();
        bolt.execute(&int_tuple(5, 9), &mut out);
        bolt.on_idle(&mut out);
        assert_eq!(store.get("k").unwrap().1, golden(9, CountSum { n: 4, sum: 35 }));
        assert_eq!(store.len(), 1, "nothing is written beside the caller's key");
    }

    #[test]
    fn corrupt_checkpoint_rejected_at_construction() {
        let store = CheckpointStore::new();
        store.put("k", vec![0xFF, 1, 2, 3]);
        assert!(SynopsisBolt::new("k", &store, CountSum::default(), apply).is_err());
        assert!(decode_checkpoint(&[CHECKPOINT_TAG, 0]).is_err());
    }

    #[test]
    fn merge_bolt_builds_global_view() {
        let mut merge = MergeBolt::new("global", CountSum::default());
        let mut out = OutputCollector::new();
        for (i, (n, sum)) in [(3u64, 30i64), (2, 5), (5, 15)].iter().enumerate() {
            let part = CountSum { n: *n, sum: *sum };
            let t = Tuple::new(vec![
                Value::Str(format!("p{i}").into()),
                Value::Bytes(part.snapshot().into()),
            ]);
            merge.execute(&t, &mut out);
        }
        // Re-delivery of a newer partial for the same partition replaces
        // the old one instead of double counting.
        let t = Tuple::new(vec![
            Value::Str("p1".into()),
            Value::Bytes(CountSum { n: 4, sum: 6 }.snapshot().into()),
        ]);
        merge.execute(&t, &mut out);
        merge.flush(&mut out);
        let mut global = CountSum::default();
        global.restore(out.emitted[0].get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(global, CountSum { n: 12, sum: 51 });
        assert_eq!(merge.errors(), 0);
        merge.execute(&tuple_of([1i64]), &mut out);
        assert_eq!(merge.errors(), 1);
    }

    #[test]
    fn log_spout_replays_failures_from_the_log() {
        let log = Log::new(1).unwrap();
        for w in ["a", "b", "c"] {
            log.append(w, Vec::new());
        }
        let mut spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()]));
        let t1 = spout.next_tuple().unwrap();
        let t2 = spout.next_tuple().unwrap();
        assert_eq!(t1.root, 1);
        assert_eq!(t2.root, 2);
        assert_eq!(spout.pending(), 2);
        spout.ack(1);
        spout.fail(2);
        // The failed record comes back, re-read from the log.
        let replayed = spout.next_tuple().unwrap();
        assert_eq!(replayed.root, 2);
        assert_eq!(replayed.get(0).unwrap().as_str(), Some("b"));
        assert_eq!(spout.replays, 1);
        let t3 = spout.next_tuple().unwrap();
        assert_eq!(t3.root, 3);
        assert!(spout.next_tuple().is_none());
        spout.ack(2);
        spout.ack(3);
        assert_eq!(spout.pending(), 0);
    }

    #[test]
    fn log_spout_resumes_mid_log_with_id_base() {
        let log = Log::new(1).unwrap();
        for i in 0..5u8 {
            log.append("k", vec![i]);
        }
        let base = 1u64 << 40;
        let mut spout =
            LogSpout::new(&log, 0, 3, base, |r: &Record| tuple_of([i64::from(r.value[0])]));
        let t = spout.next_tuple().unwrap();
        assert_eq!(t.root, base + 4);
        assert_eq!(t.get(0).unwrap().as_int(), Some(3));
    }

    #[test]
    fn log_spout_quarantine_retires_and_returns_the_record() {
        let log = Log::new(1).unwrap();
        for i in 0..3u8 {
            log.append("k", vec![i]);
        }
        let mut spout =
            LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([i64::from(r.value[0])]));
        let t = spout.next_tuple().unwrap();
        let root = t.root;
        // In-flight → quarantined: body comes back, nothing pends.
        let body = spout.quarantine(root).expect("record still in the log");
        assert_eq!(body.get(0).unwrap().as_int(), Some(0));
        assert_eq!(spout.pending(), 0);
        // Failed-and-requeued → quarantined before replay.
        let t = spout.next_tuple().unwrap();
        assert!(spout.fail(t.root));
        assert!(spout.quarantine(t.root).is_some());
        assert_eq!(spout.pending(), 0);
        // Unknown root: nothing to retire.
        assert!(spout.quarantine(9_999).is_none());
    }

    /// The persisted frontier is the oldest *unsettled* offset: acks
    /// arriving out of order must not advance it past a live record.
    #[test]
    fn log_spout_frontier_tracks_oldest_unsettled_offset() {
        let log = Log::new(1).unwrap();
        for i in 0..4u8 {
            log.append("k", vec![i]);
        }
        let store = CheckpointStore::new();
        let mut spout =
            LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([i64::from(r.value[0])]))
                .with_frontier(&store, "f", 1);
        for _ in 0..4 {
            spout.next_tuple().unwrap();
        }
        // Out-of-order settles: the frontier is pinned by root 1
        // (offset 0) no matter how far later acks run ahead.
        spout.ack(3);
        spout.ack(2);
        assert_eq!(frontier_offset(&store, "f"), 0);
        // Settling the oldest record jumps the frontier over the
        // already-settled run, stopping at the next live record.
        spout.ack(1);
        assert_eq!(frontier_offset(&store, "f"), 3);
        // A quarantined record settles too (it will never replay).
        spout.quarantine(4);
        assert_eq!(frontier_offset(&store, "f"), 4);
        // A key never committed reads as "replay everything".
        assert_eq!(frontier_offset(&store, "missing"), 0);
    }

    #[test]
    fn replay_offset_is_min_over_keys() {
        let store = CheckpointStore::new();
        let snap = CountSum::default().snapshot();
        store.put("a", encode_checkpoint(42, &snap));
        store.put("b", encode_checkpoint(17, &snap));
        assert_eq!(replay_offset(&store, &["a", "b"]), 17);
        // A task with no checkpoint forces a full replay.
        assert_eq!(replay_offset(&store, &["a", "b", "c"]), 0);
        assert_eq!(replay_offset(&store, &[]), 0);
    }
}
