//! Windowed operators: `sa-windows` assigners wired to the executor's
//! event-time layer, with exactly-once state.
//!
//! [`WindowBolt`] groups tuples by key fields, assigns each to its
//! event-time windows (tumbling, sliding, or session — the vocabulary
//! shared by every Table-2 system), and folds it into a per-window
//! [`Synopsis`] aggregate. Windows *fire* when the bolt's merged
//! watermark passes their end, in `(end, key, start)` order, and the
//! firing emits `[Str(key), Int(start), Int(end), Bytes(snapshot)]`.
//! The live panes are the only timer state: a pane's window and the
//! watermark decide when it fires and when it expires, whichever way
//! the pane was created.
//!
//! Lateness semantics (Flink's model, which the survey credits as the
//! production treatment of out-of-order data):
//!
//! * a tuple is **on time** while `watermark < window.end` — it
//!   accumulates silently and the window fires once, on passage;
//! * a **straggler** arrives with `window.end <= watermark <
//!   window.end + allowed_lateness` — the window's state is still
//!   alive, the update is applied, and the window *re-fires*
//!   immediately with the amended aggregate (downstream consumers see
//!   a corrected result for the same `[start, end)`);
//! * a **too-late** tuple (`watermark >= window.end + lateness` for
//!   every window it maps to) is diverted to the
//!   [`OutputCollector::emit_late`] side output and counted by the
//!   component's `dropped_late` metric — it can no longer change any
//!   result, but it is not silently discarded. Its window's pane was
//!   dropped when the watermark reached `window.end + lateness`.
//!
//! [`WindowBolt`] is the [`Checkpointed`] exactly-once shell over
//! [`WindowState`] — every `(key, window)` aggregate and the open
//! sessions. Dedup, the atomic `commit_batch` of state plus applied
//! ids, token GC and held acks are the shell's, shared with
//! [`crate::operator::SynopsisBolt`], so crash recovery via log replay
//! reproduces the exact window results of an uncrashed run.

use crate::checkpoint::CheckpointStore;
use crate::operator::{Checkpointed, OperatorConfig, OperatorState};
use crate::topology::OutputCollector;
use crate::tuple::{Tuple, Value};
use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::{Merge, Result, Synopsis};
use sa_windows::assigners::{sliding, tumbling, SessionWindows, Window};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Which windows a timestamp maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Fixed, non-overlapping `[k·size, (k+1)·size)` windows.
    Tumbling {
        /// Window length (event-time units).
        size: u64,
    },
    /// Overlapping windows of `size` advancing by `slide` (≤ size).
    Sliding {
        /// Window length.
        size: u64,
        /// Hop between window starts.
        slide: u64,
    },
    /// Per-key activity sessions separated by `gap` of inactivity.
    Session {
        /// Inactivity gap that closes a session.
        gap: u64,
    },
}

/// Configuration of a [`WindowBolt`].
#[derive(Clone, Debug)]
pub struct WindowConfig {
    /// Window shape.
    pub spec: WindowSpec,
    /// Tuple field indices forming the grouping key (their `Display`
    /// forms joined; empty = one global key). Wire the bolt with a
    /// fields grouping on the same indices so each key owns one task.
    pub key_fields: Vec<usize>,
    /// How long past a window's end its state stays alive for
    /// stragglers. 0 = fire once and drop immediately.
    pub allowed_lateness: u64,
    /// Checkpoint cadence/GC (the `SynopsisBolt` knobs).
    pub checkpoint: OperatorConfig,
}

impl WindowConfig {
    /// Config with the given shape, keyed on `key_fields`, with
    /// defaults for lateness (0) and checkpointing.
    pub fn new(spec: WindowSpec, key_fields: Vec<usize>) -> Self {
        Self { spec, key_fields, allowed_lateness: 0, checkpoint: OperatorConfig::default() }
    }

    /// Builder: set the allowed lateness.
    pub fn lateness(mut self, l: u64) -> Self {
        self.allowed_lateness = l;
        self
    }
}

/// One live `(key, window)` aggregate.
#[derive(Clone)]
struct Pane<S> {
    agg: S,
    /// Updates applied since the last firing — the drain emits only
    /// dirty groups, so a fired-and-unchanged window is not repeated.
    dirty: bool,
    /// This pane's checkpoint record `(key, start, end, dirty, agg)` as
    /// last encoded; `None` once `agg` or `dirty` changed since. A
    /// commit re-encodes only the panes whose record is `None`.
    record: Option<Vec<u8>>,
}

impl<S: Synopsis> Pane<S> {
    fn new(agg: S, dirty: bool) -> Self {
        Self { agg, dirty, record: None }
    }

    /// The pane's checkpoint record, encoded now if stale.
    fn record(&mut self, key: &str, win: &Window) -> &[u8] {
        self.record.get_or_insert_with(|| {
            let snapshot = self.agg.snapshot();
            let mut w = ByteWriter::with_capacity(8 + key.len() + 8 + 8 + 1 + 8 + snapshot.len());
            w.put_str(key)
                .put_u64(win.start)
                .put_u64(win.end)
                .put_bool(self.dirty)
                .put_bytes(&snapshot);
            w.finish()
        })
    }

    /// The result tuple of a firing; the pane is clean afterwards.
    fn fire(&mut self, key: &str, win: Window) -> Tuple {
        self.dirty = false;
        self.record = None;
        Tuple::new(vec![
            Value::Str(key.into()),
            Value::Int(win.start as i64),
            Value::Int(win.end as i64),
            Value::Bytes(self.agg.snapshot().into()),
        ])
        .at(win.end.saturating_sub(1))
    }
}

/// When the pane of `w` next needs the watermark: its firing at `end`
/// until the watermark reaches it, then its expiry at `end + lateness`.
fn deadline(w: &Window, wm: Option<u64>, lateness: u64) -> u64 {
    if wm.is_some_and(|wm| w.end <= wm) {
        w.end.saturating_add(lateness)
    } else {
        w.end
    }
}

const WINDOW_TAG: u8 = b'W';

/// The keyed, windowed [`OperatorState`]: assigners, sessions and
/// lateness over one synopsis per `(key, window)`. See the module
/// docs for semantics. `update` folds one tuple into the per-window
/// synopsis; `Merge` is required because session windows that grow
/// together must merge their aggregates.
#[derive(Clone)]
pub struct WindowState<S, F> {
    template: S,
    update: F,
    cfg: WindowConfig,
    /// Live aggregates, ordered for deterministic emission/encoding.
    groups: BTreeMap<(String, Window), Pane<S>>,
    /// Open sessions per key (session spec only).
    sessions: HashMap<String, SessionWindows>,
    /// No pane's [`deadline`] is below this (`u64::MAX` when none is
    /// live), so a watermark below it has nothing to fire or expire.
    due: u64,
    /// Local watermark (None until the first `on_watermark`).
    wm: Option<u64>,
    /// The watermark the restored checkpoint was taken under. Only
    /// expiry reads it: a tuple whose window expired before a crash
    /// stays late after the restart, while restored panes still re-fire
    /// on the first live watermark (`wm` stays `None` until then).
    restored_wm: Option<u64>,
    /// Session-aggregate merges that failed (incompatible synopses).
    merge_errors: u64,
}

/// A keyed, windowed, checkpointed aggregation bolt: the
/// [`Checkpointed`] shell over [`WindowState`].
pub type WindowBolt<S, F> = Checkpointed<WindowState<S, F>>;

impl<S: Synopsis + Merge + Clone + Send, F: FnMut(&Tuple, &mut S) + Send> WindowBolt<S, F> {
    /// A bolt checkpointing under `key` in `store`. If a checkpoint
    /// for `key` exists, the bolt recovers every live window, session,
    /// and dedup id from it. Each parallel instance needs its own key.
    pub fn new(
        key: &str,
        store: &CheckpointStore,
        template: S,
        cfg: WindowConfig,
        update: F,
    ) -> Result<Self> {
        let checkpoint = cfg.checkpoint.clone();
        Self::open(key, store, WindowState::new(template, cfg, update), checkpoint)
    }

    /// Live `(key, window)` groups.
    pub fn live_windows(&self) -> usize {
        self.states().map(|st| st.groups.len()).sum()
    }

    /// Failed session-aggregate merges.
    pub fn merge_errors(&self) -> u64 {
        self.states().map(|st| st.merge_errors).sum()
    }
}

impl<S: Synopsis + Merge + Clone + Send, F: FnMut(&Tuple, &mut S) + Send> WindowState<S, F> {
    fn new(template: S, cfg: WindowConfig, update: F) -> Self {
        Self {
            template,
            update,
            cfg,
            groups: BTreeMap::new(),
            sessions: HashMap::new(),
            due: u64::MAX,
            wm: None,
            restored_wm: None,
            merge_errors: 0,
        }
    }

    /// The grouping key of a tuple: key fields' `Display` forms joined
    /// by a unit separator.
    fn group_key(&self, t: &Tuple) -> String {
        let mut s = String::new();
        for (i, &f) in self.cfg.key_fields.iter().enumerate() {
            if i > 0 {
                s.push('\u{1f}');
            }
            if let Some(v) = t.get(f) {
                let _ = write!(s, "{v}");
            }
        }
        s
    }

    /// Whether a window is past its allowed lateness (tuples for it go
    /// to the side output).
    fn expired(&self, w: &Window) -> bool {
        self.expiry_wm().is_some_and(|wm| w.end.saturating_add(self.cfg.allowed_lateness) <= wm)
    }

    /// The newest watermark seen, live or restored (`None` orders
    /// first, so `max` keeps whichever is known).
    fn expiry_wm(&self) -> Option<u64> {
        self.wm.max(self.restored_wm)
    }

    /// Whether a window already fired (stragglers re-fire immediately).
    fn already_fired(&self, w: &Window) -> bool {
        self.wm.is_some_and(|wm| w.end <= wm)
    }

    /// Lower [`WindowState::due`] to the deadline of `w`'s live pane.
    fn track(&mut self, w: &Window) {
        self.due = self.due.min(deadline(w, self.wm, self.cfg.allowed_lateness));
    }

    /// Fold a tuple into one live (possibly already-fired) window.
    fn apply_to(&mut self, key: &str, w: Window, input: &Tuple, out: &mut OutputCollector) {
        let fired = self.already_fired(&w);
        let pane = self
            .groups
            .entry((key.to_string(), w))
            .or_insert_with(|| Pane::new(self.template.clone(), false));
        (self.update)(input, &mut pane.agg);
        pane.dirty = true;
        pane.record = None;
        if fired {
            // Straggler inside the lateness horizon: re-fire now with
            // the amended aggregate (the downstream sees a correction).
            out.emit(pane.fire(key, w));
        }
        self.track(&w);
    }

    /// Session-spec path: extend/merge sessions and their aggregates.
    fn apply_session(
        &mut self,
        key: &str,
        et: u64,
        gap: u64,
        input: &Tuple,
        out: &mut OutputCollector,
    ) {
        let sess = self.sessions.entry(key.to_string()).or_insert_with(|| SessionWindows::new(gap));
        let (merged, absorbed) = sess.add_tracking(et);
        let mut agg = self.template.clone();
        for w in &absorbed {
            if let Some(old) = self.groups.remove(&(key.to_string(), *w)) {
                if agg.merge(&old.agg).is_err() {
                    self.merge_errors += 1;
                }
            }
        }
        (self.update)(input, &mut agg);
        let mut pane = Pane::new(agg, true);
        if self.already_fired(&merged) {
            out.emit(pane.fire(key, merged));
        }
        self.groups.insert((key.to_string(), merged), pane);
        self.track(&merged);
    }
}

impl<S: Synopsis + Merge + Clone + Send, F: FnMut(&Tuple, &mut S) + Send> OperatorState
    for WindowState<S, F>
{
    fn apply(&mut self, input: &Tuple, out: &mut OutputCollector) {
        // A tuple diverted to the late side output still counts as
        // applied: the shell records its id either way, since a replay
        // of it would be just as late.
        let Some(et) = input.event_time else {
            // Unstamped tuples cannot be windowed.
            out.emit_late(input.clone());
            return;
        };
        let key = self.group_key(input);
        match self.cfg.spec {
            WindowSpec::Tumbling { size } => {
                let w = tumbling(et, size);
                if self.expired(&w) {
                    out.emit_late(input.clone());
                } else {
                    self.apply_to(&key, w, input, out);
                }
            }
            WindowSpec::Sliding { size, slide } => {
                let live: Vec<Window> =
                    sliding(et, size, slide).into_iter().filter(|w| !self.expired(w)).collect();
                if live.is_empty() {
                    out.emit_late(input.clone());
                }
                for w in live {
                    self.apply_to(&key, w, input, out);
                }
            }
            WindowSpec::Session { gap } => {
                // The session this event would create ends at
                // et + gap; merging into an open session only
                // pushes the end later, so this bound decides.
                let probe = Window { start: et, end: et.saturating_add(gap) };
                if self.expired(&probe) {
                    out.emit_late(input.clone());
                } else {
                    self.apply_session(&key, et, gap, input, out);
                }
            }
        }
    }

    /// Encode every live group and session as the checkpoint's snapshot
    /// payload (the newest applied id travels in the standard operator
    /// envelope, see [`crate::operator::decode_checkpoint`]), then
    /// the newest watermark, when one was seen. Only panes changed since
    /// the last encode are re-serialised; the rest are copied from their
    /// cached records.
    fn encode(&mut self) -> Vec<u8> {
        // Refresh stale records and size the buffer, then copy.
        let records: usize =
            self.groups.iter_mut().map(|((key, win), pane)| pane.record(key, win).len()).sum();
        let mut w = ByteWriter::with_capacity(1 + 8 + records + 8);
        w.tag(WINDOW_TAG);
        w.put_u64(self.groups.len() as u64);
        for ((key, win), pane) in &mut self.groups {
            w.put_raw(pane.record(key, win));
        }
        let mut session_keys: Vec<&String> = self.sessions.keys().collect();
        session_keys.sort(); // deterministic encoding
        w.put_u64(session_keys.len() as u64);
        for key in session_keys {
            let open = self.sessions[key].open();
            w.put_str(key).put_u64(open.len() as u64);
            for s in open {
                w.put_u64(s.start).put_u64(s.end);
            }
        }
        if let Some(wm) = self.expiry_wm() {
            w.put_u64(wm);
        }
        w.finish()
    }

    /// Rebuild groups, sessions and the expiry watermark from a
    /// snapshot payload.
    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(bytes);
        r.expect_tag(WINDOW_TAG, "window checkpoint")?;
        let n_groups = r.get_len(17)?;
        for _ in 0..n_groups {
            let key = r.get_str()?;
            let win = Window { start: r.get_u64()?, end: r.get_u64()? };
            let dirty = r.get_bool()?;
            let mut agg = self.template.clone();
            agg.restore(r.get_bytes()?)?;
            self.groups.insert((key, win), Pane::new(agg, dirty));
            self.track(&win);
        }
        let n_sessions = r.get_len(9)?;
        let gap = match self.cfg.spec {
            WindowSpec::Session { gap } => gap,
            _ if n_sessions != 0 => {
                return Err(sa_core::SaError::Platform(
                    "session state in a non-session window checkpoint".into(),
                ));
            }
            _ => 0,
        };
        for _ in 0..n_sessions {
            let key = r.get_str()?;
            let n_open = r.get_len(16)?;
            let mut sess = SessionWindows::new(gap);
            for _ in 0..n_open {
                // Re-adding the start reproduces [start, start+gap);
                // wider recorded ends are restored by a second add at
                // end - gap (sessions only widen in whole events, but
                // the pair of adds reconstructs any [start, end)).
                let start = r.get_u64()?;
                let end = r.get_u64()?;
                sess.add(start);
                if end > start.saturating_add(gap) {
                    sess.add(end - gap);
                }
            }
            self.sessions.insert(key, sess);
        }
        if r.remaining() > 0 {
            self.restored_wm = Some(r.get_u64()?);
        }
        r.finish()
    }

    fn on_watermark(&mut self, wm: u64, out: &mut OutputCollector) {
        // The executor's merger is monotone; max() guards unit tests
        // driving this directly.
        let prev = self.wm;
        let wm = prev.map_or(wm, |prev| prev.max(wm));
        self.wm = Some(wm);
        if wm < self.due {
            return;
        }
        // One pass over the live panes: fire every window this advance
        // passed, drop every pane whose lateness ran out (with its
        // session), and find the next deadline.
        let lateness = self.cfg.allowed_lateness;
        let sessions = &mut self.sessions;
        let (mut fired, mut due) = (Vec::new(), u64::MAX);
        self.groups.retain(|(key, win), pane| {
            if win.end <= wm && prev.is_none_or(|prev| prev < win.end) {
                fired.push((win.end, pane.fire(key, *win)));
            }
            let next = deadline(win, Some(wm), lateness);
            if next <= wm {
                if let Some(sess) = sessions.get_mut(key) {
                    sess.remove(win);
                }
                return false;
            }
            due = due.min(next);
            true
        });
        self.due = due;
        // The map iterates in (key, start) order; a stable sort by end
        // makes it the (end, key, start) order windows fire in.
        fired.sort_by_key(|&(end, _)| end);
        for (_, result) in fired {
            out.emit(result);
        }
    }

    fn drain(&mut self, _key: &Arc<str>, out: &mut OutputCollector) {
        // Emit windows that never fired (no watermark reached them —
        // e.g. watermarks disabled, or an unclean drain). Fired-and-
        // unchanged groups are clean and not repeated.
        for ((key, win), pane) in &mut self.groups {
            if pane.dirty {
                out.emit(pane.fire(key, *win));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::decode_checkpoint;
    use crate::topology::Bolt;
    use crate::tuple::tuple_of;
    use sa_core::codec::{ByteReader, ByteWriter};
    use sa_core::rng::SplitMix64;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Count-and-sum synopsis (mirrors the operator-layer test type).
    #[derive(Clone, Debug, Default, PartialEq)]
    struct CountSum {
        n: u64,
        sum: i64,
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

    fn apply(t: &Tuple, s: &mut CountSum) {
        s.n += 1;
        s.sum += t.get(1).and_then(Value::as_int).unwrap_or(0);
    }

    fn keyed(key: &str, v: i64, et: u64, lineage: u64) -> Tuple {
        let mut t = tuple_of([Value::Str(key.into()), Value::Int(v)]).at(et);
        t.lineage = lineage;
        t
    }

    fn bolt(
        store: &CheckpointStore,
        spec: WindowSpec,
        lateness: u64,
    ) -> WindowBolt<CountSum, fn(&Tuple, &mut CountSum)> {
        WindowBolt::new(
            "w/0",
            store,
            CountSum::default(),
            WindowConfig::new(spec, vec![0]).lateness(lateness),
            apply as fn(&Tuple, &mut CountSum),
        )
        .unwrap()
    }

    fn decode_result(t: &Tuple) -> (String, u64, u64, CountSum) {
        let mut agg = CountSum::default();
        agg.restore(t.get(3).unwrap().as_bytes().unwrap()).unwrap();
        (
            t.get(0).unwrap().as_str().unwrap().to_string(),
            t.get(1).unwrap().as_int().unwrap() as u64,
            t.get(2).unwrap().as_int().unwrap() as u64,
            agg,
        )
    }

    #[test]
    fn tumbling_fires_on_watermark_passage() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 3, 1), &mut out);
        b.execute(&keyed("a", 2, 7, 2), &mut out);
        b.execute(&keyed("a", 4, 12, 3), &mut out);
        assert!(out.emitted.is_empty(), "nothing fires before the watermark");
        b.on_watermark(10, &mut out);
        assert_eq!(out.emitted.len(), 1);
        let (key, start, end, agg) = decode_result(&out.emitted[0]);
        assert_eq!((key.as_str(), start, end), ("a", 0, 10));
        assert_eq!(agg, CountSum { n: 2, sum: 3 });
        assert_eq!(out.emitted[0].event_time, Some(9), "result stamped at window close");
        assert_eq!(b.live_windows(), 1, "lateness 0: fired window dropped");
        b.on_watermark(20, &mut out);
        assert_eq!(out.emitted.len(), 2);
        let (_, start, _, agg) = decode_result(&out.emitted[1]);
        assert_eq!((start, agg.sum), (10, 4));
    }

    #[test]
    fn straggler_refires_and_too_late_goes_to_side_output() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 15);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 5, 1), &mut out);
        b.on_watermark(12, &mut out);
        assert_eq!(out.emitted.len(), 1, "on-time firing");
        // Straggler: wm 12 < end 10 + lateness 15 → refire with n=2.
        b.execute(&keyed("a", 10, 8, 2), &mut out);
        assert_eq!(out.emitted.len(), 2, "straggler re-fires immediately");
        let (_, _, _, agg) = decode_result(&out.emitted[1]);
        assert_eq!(agg, CountSum { n: 2, sum: 11 });
        assert!(out.late.is_empty());
        // A straggler of a key with no on-time tuple creates its pane
        // inside the fired window: it fires once, and expires with it.
        b.execute(&keyed("b", 4, 9, 4), &mut out);
        assert_eq!(out.emitted.len(), 3, "new-key straggler fires once");
        let (key, _, _, agg) = decode_result(&out.emitted[2]);
        assert_eq!((key.as_str(), agg), ("b", CountSum { n: 1, sum: 4 }));
        // Too late: wm 25 ≥ 10 + 15.
        b.on_watermark(25, &mut out);
        assert_eq!(b.live_windows(), 0, "expiry dropped both panes");
        b.execute(&keyed("a", 99, 9, 3), &mut out);
        assert_eq!(out.late.len(), 1, "expired window: side output");
        assert_eq!(out.emitted.len(), 3, "no further firing");
    }

    #[test]
    fn unstamped_tuple_goes_to_side_output() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        let mut t = tuple_of([Value::Str("a".into()), Value::Int(1)]);
        t.lineage = 1;
        b.execute(&t, &mut out);
        assert_eq!(out.late.len(), 1);
        assert_eq!(b.live_windows(), 0);
    }

    #[test]
    fn sliding_assigns_to_overlapping_windows() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Sliding { size: 10, slide: 5 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 7, 1), &mut out);
        assert_eq!(b.live_windows(), 2, "t=7 lives in [0,10) and [5,15)");
        b.on_watermark(u64::MAX, &mut out);
        assert_eq!(out.emitted.len(), 2);
        let (_, s0, _, a0) = decode_result(&out.emitted[0]);
        let (_, s1, _, a1) = decode_result(&out.emitted[1]);
        assert_eq!((s0, s1), (0, 5));
        assert_eq!(a0, a1);
    }

    #[test]
    fn sessions_merge_aggregates_across_bridged_windows() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Session { gap: 10 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 100, 1), &mut out);
        b.execute(&keyed("a", 2, 120, 2), &mut out);
        assert_eq!(b.live_windows(), 2, "two separate sessions");
        b.execute(&keyed("a", 4, 110, 3), &mut out); // bridges both
        assert_eq!(b.live_windows(), 1, "bridge merged the sessions");
        b.on_watermark(u64::MAX, &mut out);
        assert_eq!(out.emitted.len(), 1);
        let (key, start, end, agg) = decode_result(&out.emitted[0]);
        assert_eq!((key.as_str(), start, end), ("a", 100, 130));
        assert_eq!(agg, CountSum { n: 3, sum: 7 }, "absorbed aggregates merged");
        assert_eq!(b.merge_errors(), 0);
    }

    #[test]
    fn keys_are_isolated() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 5, 1), &mut out);
        b.execute(&keyed("b", 7, 5, 2), &mut out);
        b.on_watermark(10, &mut out);
        assert_eq!(out.emitted.len(), 2);
        let mut results: Vec<(String, i64)> = out
            .emitted
            .iter()
            .map(|t| {
                let (k, _, _, agg) = decode_result(t);
                (k, agg.sum)
            })
            .collect();
        results.sort();
        assert_eq!(results, vec![("a".into(), 1), ("b".into(), 7)]);
    }

    #[test]
    fn replayed_lineage_is_deduplicated() {
        let store = CheckpointStore::new();
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 5, 7), &mut out);
        b.execute(&keyed("a", 1, 5, 7), &mut out);
        assert_eq!(b.duplicates_skipped(), 1);
        b.on_watermark(10, &mut out);
        let (_, _, _, agg) = decode_result(&out.emitted[0]);
        assert_eq!(agg.n, 1, "replay must not double count");
    }

    #[test]
    fn checkpoint_roundtrip_restores_windows_sessions_and_dedup() {
        let store = CheckpointStore::new();
        let cfg = WindowConfig::new(WindowSpec::Session { gap: 10 }, vec![0]).lateness(5);
        let mut b = WindowBolt::new(
            "w/0",
            &store,
            CountSum::default(),
            cfg.clone(),
            apply as fn(&Tuple, &mut CountSum),
        )
        .unwrap();
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 100, 1), &mut out);
        b.execute(&keyed("a", 2, 105, 2), &mut out);
        b.execute(&keyed("b", 3, 500, 3), &mut out);
        b.flush(&mut out); // commits
        let flushed = out.emitted.len();

        // "Restart": fresh bolt, same key.
        let mut b2 = WindowBolt::new(
            "w/0",
            &store,
            CountSum::default(),
            cfg,
            apply as fn(&Tuple, &mut CountSum),
        )
        .unwrap();
        assert!(b2.recovered());
        assert_eq!(b2.live_windows(), 2);
        assert_eq!(b2.last_applied(), 3);
        let mut out2 = OutputCollector::new();
        // Replays are absorbed…
        b2.execute(&keyed("a", 1, 100, 1), &mut out2);
        assert_eq!(b2.duplicates_skipped(), 1);
        // …sessions still merge (restored session [100,115) + new event)…
        b2.execute(&keyed("a", 8, 110, 4), &mut out2);
        assert_eq!(b2.live_windows(), 2, "extension merged, not duplicated");
        // …and firing produces the same totals an uncrashed run would.
        b2.on_watermark(u64::MAX, &mut out2);
        let mut sums: Vec<(String, u64, i64)> = out2
            .emitted
            .iter()
            .map(|t| {
                let (k, _, e, agg) = decode_result(t);
                (k, e, agg.sum)
            })
            .collect();
        sums.sort();
        assert_eq!(sums, vec![("a".into(), 120, 11), ("b".into(), 510, 3)]);
        assert_eq!(flushed, 2, "pre-crash flush emitted the dirty groups");
    }

    /// What an unsharded task stores is a compatibility surface — a
    /// restart after an upgrade reads it: the operator envelope (`O`,
    /// last applied id) around the window payload (`W`, the groups in
    /// key order, the open sessions in key order).
    #[test]
    fn checkpoint_key_and_bytes_keep_the_documented_layout() {
        let golden = |last_applied: u64, end: u64, agg: CountSum| {
            let mut payload = ByteWriter::new();
            payload.tag(b'W').put_u64(1);
            payload
                .put_str("a")
                .put_u64(100)
                .put_u64(end)
                .put_bool(true)
                .put_bytes(&agg.snapshot());
            payload.put_u64(1).put_str("a").put_u64(1).put_u64(100).put_u64(end);
            let mut w = ByteWriter::new();
            w.tag(b'O').put_u64(last_applied).put_bytes(&payload.finish());
            w.finish()
        };
        let store = CheckpointStore::new();
        // One open session of key "a", [100, 115), two events folded.
        store.put("w/0", golden(2, 115, CountSum { n: 2, sum: 3 }));
        let mut b = bolt(&store, WindowSpec::Session { gap: 10 }, 0);
        assert!(b.recovered());
        assert_eq!((b.last_applied(), b.live_windows()), (2, 1));
        // A third event extends the restored session to [100, 120).
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 8, 110, 4), &mut out);
        b.on_idle(&mut out);
        assert!(!out.release, "an idle after input defers the commit");
        assert_eq!(store.get("w/0").unwrap().1, golden(2, 115, CountSum { n: 2, sum: 3 }));
        b.on_idle(&mut out);
        assert_eq!(store.get("w/0").unwrap().1, golden(4, 120, CountSum { n: 3, sum: 11 }));
        assert_eq!(store.len(), 1, "nothing is written beside the caller's key");
    }

    /// A checkpoint taken after a watermark ends with it: a trailing
    /// u64 after the sessions (one taken before any watermark, as
    /// above, has none). A restart keeps it and writes it again.
    #[test]
    fn checkpoint_carries_the_watermark_as_a_trailing_field() {
        let golden = |last_applied: u64, agg: CountSum| {
            let mut payload = ByteWriter::new();
            payload.tag(b'W').put_u64(1);
            payload.put_str("a").put_u64(10).put_u64(20).put_bool(true).put_bytes(&agg.snapshot());
            payload.put_u64(0).put_u64(15);
            let mut w = ByteWriter::new();
            w.tag(b'O').put_u64(last_applied).put_bytes(&payload.finish());
            w.finish()
        };
        let store = CheckpointStore::new();
        store.put("w/0", golden(2, CountSum { n: 1, sum: 2 }));
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        assert!(b.recovered());
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 100, 5, 3), &mut out);
        assert_eq!(out.late.len(), 1, "[0,10) expired under the restored watermark 15");
        b.execute(&keyed("a", 3, 14, 4), &mut out);
        b.on_idle(&mut out);
        assert!(!out.release, "an idle after input defers the commit");
        assert_eq!(store.get("w/0").unwrap().1, golden(2, CountSum { n: 1, sum: 2 }));
        b.on_idle(&mut out);
        assert!(out.emitted.is_empty());
        assert_eq!(store.get("w/0").unwrap().1, golden(4, CountSum { n: 2, sum: 5 }));
    }

    /// A too-late tuple applied but not committed before a crash is late
    /// again on replay: the restart must not resurrect its expired
    /// window and fire it a second time.
    #[test]
    fn a_restart_does_not_resurrect_an_expired_window() {
        let store = CheckpointStore::new();
        let inputs = [
            keyed("a", 1, 3, 1),
            keyed("a", 2, 12, 2),
            keyed("a", 3, 13, 3),
            keyed("a", 100, 5, 4),
        ];
        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        b.execute(&inputs[0], &mut out);
        b.execute(&inputs[1], &mut out);
        b.on_watermark(15, &mut out);
        assert_eq!(decode_result(&out.emitted[0]), ("a".into(), 0, 10, CountSum { n: 1, sum: 1 }));
        b.execute(&inputs[2], &mut out);
        b.on_idle(&mut out);
        assert!(!out.release && store.get("w/0").is_none(), "an idle after input defers");
        b.on_idle(&mut out); // the quiet idle commits ids 1-3
        assert!(out.release);
        b.execute(&inputs[3], &mut out);
        assert_eq!(out.late.len(), 1);
        drop(b); // crash with id 4 uncommitted

        let mut b = bolt(&store, WindowSpec::Tumbling { size: 10 }, 0);
        let mut out = OutputCollector::new();
        for t in &inputs {
            b.execute(t, &mut out);
        }
        b.on_watermark(15, &mut out);
        assert_eq!(b.duplicates_skipped(), 3);
        assert!(out.emitted.is_empty(), "[0,10) fired before the crash: {:?}", out.emitted);
        assert_eq!(out.late.len(), 1, "the replayed too-late tuple is late again");
        assert_eq!(out.late[0].get(1).and_then(Value::as_int), Some(100));
    }

    #[test]
    fn corrupt_checkpoint_rejected_at_construction() {
        let store = CheckpointStore::new();
        store.put("w/0", vec![0xFF, 1, 2, 3]);
        assert!(WindowBolt::new(
            "w/0",
            &store,
            CountSum::default(),
            WindowConfig::new(WindowSpec::Tumbling { size: 10 }, vec![0]),
            apply as fn(&Tuple, &mut CountSum),
        )
        .is_err());
    }

    type TestState = WindowState<CountSum, fn(&Tuple, &mut CountSum)>;

    /// A full encode of `st`, with every cached pane record dropped.
    fn encode_from_scratch<S: Synopsis + Merge + Clone + Send>(
        st: &WindowState<S, fn(&Tuple, &mut S)>,
    ) -> Vec<u8> {
        let mut fresh = st.clone();
        fresh.groups.values_mut().for_each(|pane| pane.record = None);
        fresh.encode()
    }

    /// Seeded interleavings of on-time applies, stragglers inside the
    /// lateness horizon (re-fires) and past it, watermark fires and
    /// cleanups, drains, and a restore from a mid-sequence checkpoint,
    /// over all three window shapes: after every step the cached encode
    /// is the full encode, byte for byte, and no pane outlived its
    /// lateness.
    #[test]
    fn cached_encode_equals_a_full_encode_after_every_step() {
        let specs = [
            WindowSpec::Tumbling { size: 10 },
            WindowSpec::Sliding { size: 20, slide: 5 },
            WindowSpec::Session { gap: 8 },
        ];
        let keys = ["a", "b", "c", "d"];
        let drain_key: Arc<str> = Arc::from("w/0");
        for seed in 0..240u64 {
            let mut rng = SplitMix64::new(seed);
            let spec = specs[seed as usize % specs.len()];
            let cfg = WindowConfig::new(spec, vec![0]).lateness(1 + rng.next_below(30));
            let fresh = || -> TestState {
                WindowState::new(CountSum::default(), cfg.clone(), apply as fn(&Tuple, &mut _))
            };
            let mut st = fresh();
            let mut out = OutputCollector::new();
            let mut wm = 0u64;
            let mut checkpoint = None;
            for step in 0..150 {
                let key = keys[rng.index(keys.len())];
                let v = rng.next_below(100) as i64;
                match rng.next_below(12) {
                    0..=4 => st.apply(&keyed(key, v, wm + rng.next_below(40), 0), &mut out),
                    5..=6 => {
                        let et = wm.saturating_sub(rng.next_below(cfg.allowed_lateness + 10));
                        st.apply(&keyed(key, v, et, 0), &mut out);
                    }
                    7..=8 => {
                        wm += rng.next_below(25);
                        st.on_watermark(wm, &mut out);
                    }
                    9 => st.drain(&drain_key, &mut out),
                    10 => checkpoint = Some(st.encode()),
                    _ => {
                        if let Some(bytes) = checkpoint.take() {
                            st = fresh();
                            st.restore(&bytes).unwrap();
                            st.on_watermark(wm, &mut out);
                        }
                    }
                }
                assert_eq!(st.encode(), encode_from_scratch(&st), "seed {seed}, step {step}");
                let expired = st.groups.keys().find(|(_, w)| w.end + cfg.allowed_lateness <= wm);
                assert!(
                    expired.is_none(),
                    "seed {seed}, step {step}: {expired:?} outlived lateness"
                );
            }
        }
    }

    /// A synopsis that counts its `snapshot()` calls in a shared cell.
    #[derive(Clone, Default)]
    struct Counting {
        n: u64,
        snapshots: Arc<AtomicUsize>,
    }

    impl Synopsis for Counting {
        fn snapshot(&self) -> Vec<u8> {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
            self.n.to_le_bytes().to_vec()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            let mut r = ByteReader::new(bytes);
            self.n = r.get_u64()?;
            r.finish()
        }
    }

    impl Merge for Counting {
        fn merge(&mut self, other: &Self) -> Result<()> {
            self.n += other.n;
            Ok(())
        }
    }

    fn count(_: &Tuple, s: &mut Counting) {
        s.n += 1;
    }

    /// A commit costs what changed: with 1 001 live panes, a commit
    /// after touching 3 of them snapshots exactly those 3, and a fire
    /// that flips a pane's `dirty` bit re-encodes that pane once.
    #[test]
    fn a_commit_re_encodes_only_touched_panes() {
        let snapshots = Arc::new(AtomicUsize::new(0));
        let taken = || snapshots.swap(0, Ordering::Relaxed);
        let store = CheckpointStore::new();
        let mut cfg = WindowConfig::new(WindowSpec::Tumbling { size: 10 }, vec![0]).lateness(100);
        cfg.checkpoint.checkpoint_every = u64::MAX; // commit on a quiet idle only
        let template = Counting { n: 0, snapshots: snapshots.clone() };
        let mut b =
            WindowBolt::new("w/0", &store, template, cfg, count as fn(&Tuple, &mut Counting))
                .unwrap();
        let mut lineage = 0;
        let mut touch = |b: &mut WindowBolt<_, _>, key: &str, et: u64| {
            lineage += 1;
            b.execute(&keyed(key, 1, et, lineage), &mut OutputCollector::new());
        };
        for k in 0..1_000 {
            touch(&mut b, &format!("k{k}"), 55);
        }
        touch(&mut b, "early", 5);
        // An idle after input defers the commit; the quiet one after it
        // commits and releases.
        let idle_twice = |b: &mut WindowBolt<_, _>| {
            let (before, mut out) = (store.get("w/0"), OutputCollector::new());
            b.on_idle(&mut out);
            assert!(!out.release && store.get("w/0") == before, "the fed idle defers");
            b.on_idle(&mut out);
            assert!(out.release, "the quiet idle commits");
        };
        idle_twice(&mut b);
        assert_eq!(taken(), 1_001, "the first commit encodes every pane");

        for k in ["k1", "k2", "k3"] {
            touch(&mut b, k, 55);
        }
        idle_twice(&mut b);
        assert_eq!(taken(), 3, "the second commit encodes only the touched panes");

        let mut out = OutputCollector::new();
        b.on_watermark(10, &mut out);
        assert_eq!((out.emitted.len(), taken()), (1, 1), "only 'early' fired");
        touch(&mut b, "k4", 55);
        idle_twice(&mut b);
        assert_eq!(taken(), 2, "the touched pane and the fired one, whose dirty bit flipped");
        touch(&mut b, "k5", 55);
        idle_twice(&mut b);
        assert_eq!(taken(), 1, "the fired pane is not re-encoded again");

        let (_, payload) = decode_checkpoint(&store.get("w/0").unwrap().1).unwrap();
        assert_eq!(payload, encode_from_scratch(b.states().next().unwrap()));
    }

    #[test]
    fn global_key_windows_everything_together() {
        let store = CheckpointStore::new();
        let mut b = WindowBolt::new(
            "w/0",
            &store,
            CountSum::default(),
            WindowConfig::new(WindowSpec::Tumbling { size: 100 }, vec![]),
            apply as fn(&Tuple, &mut CountSum),
        )
        .unwrap();
        let mut out = OutputCollector::new();
        b.execute(&keyed("a", 1, 5, 1), &mut out);
        b.execute(&keyed("b", 2, 50, 2), &mut out);
        b.on_watermark(100, &mut out);
        assert_eq!(out.emitted.len(), 1);
        let (_, _, _, agg) = decode_result(&out.emitted[0]);
        assert_eq!(agg, CountSum { n: 2, sum: 3 });
    }
}
