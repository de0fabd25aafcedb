//! Event time: watermarks.
//!
//! This module implements the MillWheel-style "notion of logical time"
//! the paper singles out: a *low watermark* is a promise that no tuple
//! with `event_time < wm` will arrive on a link again. Spouts generate
//! watermarks from the event times they observe (minus a configured
//! out-of-orderness bound), the executor carries them through links as
//! in-band control markers, and multi-input bolts merge them by taking
//! the minimum across inputs — so one slow upstream correctly holds
//! back downstream time. A bolt sees each strict advance of its merged
//! watermark once, through `Bolt::on_watermark`; windowed operators
//! fire and expire their panes from it (see [`crate::window`]).
//!
//! Watermarks here are *logical*: `u64` event-time units, not wall
//! clock. `u64::MAX` is the end-of-stream watermark a finished source
//! broadcasts so every pending window fires before shutdown.

use std::time::Duration;

/// Watermark policy for a topology (set on
/// [`ExecutorConfig::watermarks`](crate::executor::ExecutorConfig)).
#[derive(Clone, Debug)]
pub struct WatermarkConfig {
    /// Bounded out-of-orderness: the watermark trails the maximum
    /// observed event time by this many time units. A tuple more than
    /// `bound` behind the newest one already seen is late.
    pub bound: u64,
    /// Spouts broadcast a watermark after every `emit_every` emitted
    /// tuples (and always when they go idle or finish).
    pub emit_every: usize,
    /// When a spout emits nothing for this long, it (a) collapses its
    /// watermark to its max observed event time — nothing more is in
    /// flight, so the safety margin is no longer needed — and (b)
    /// marks itself *idle*, excluding it from downstream min-merges so
    /// a silent source cannot freeze event time for everyone else.
    pub idle_timeout: Option<Duration>,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self { bound: 0, emit_every: 32, idle_timeout: None }
    }
}

impl WatermarkConfig {
    /// Config with the given out-of-orderness bound.
    pub fn bounded(bound: u64) -> Self {
        Self { bound, ..Self::default() }
    }

    /// Builder: set the per-spout emission cadence.
    pub fn emit_every(mut self, n: usize) -> Self {
        self.emit_every = n.max(1);
        self
    }

    /// Builder: set the idle-source timeout.
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = Some(d);
        self
    }
}

/// Spout-side watermark generator: tracks the max event time observed
/// and produces a monotone watermark `max - bound`.
#[derive(Clone, Debug)]
pub struct WatermarkGen {
    bound: u64,
    max_ts: Option<u64>,
    last: Option<u64>,
}

impl WatermarkGen {
    /// Generator with the given out-of-orderness bound.
    pub fn new(bound: u64) -> Self {
        Self { bound, max_ts: None, last: None }
    }

    /// Record an observed event time.
    pub fn observe(&mut self, t: u64) {
        self.max_ts = Some(self.max_ts.map_or(t, |m| m.max(t)));
    }

    /// Max event time observed so far.
    pub fn max_ts(&self) -> Option<u64> {
        self.max_ts
    }

    /// Current watermark candidate (`max - bound`), without advancing.
    pub fn current(&self) -> Option<u64> {
        self.max_ts.map(|m| m.saturating_sub(self.bound))
    }

    /// Advance: returns `Some(wm)` only when the watermark strictly
    /// moved past the last one this returned (so callers can broadcast
    /// exactly the advances). Monotone by construction.
    pub fn advance(&mut self) -> Option<u64> {
        let cand = self.current()?;
        match self.last {
            Some(prev) if cand <= prev => None,
            _ => {
                self.last = Some(cand);
                Some(cand)
            }
        }
    }

    /// Advance ignoring the bound — used when the source goes idle or
    /// finishes: everything it will ever emit has been emitted, so the
    /// safety margin is no longer needed.
    pub fn advance_to_max(&mut self) -> Option<u64> {
        let cand = self.max_ts?;
        match self.last {
            Some(prev) if cand <= prev => None,
            _ => {
                self.last = Some(cand);
                Some(cand)
            }
        }
    }
}

/// State of one upstream input as seen by a [`WatermarkMerger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InputState {
    /// No watermark received yet — blocks the merge (we cannot promise
    /// anything about an input we have not heard from).
    Unseen,
    /// Actively producing; last watermark received.
    Active(u64),
    /// Declared idle: excluded from the min until it speaks again.
    Idle,
}

/// Min-across-inputs watermark merge for a bolt task. The merged
/// output is monotone even if (buggy or restarted) upstreams regress.
#[derive(Clone, Debug)]
pub struct WatermarkMerger {
    inputs: Vec<(u32, InputState)>,
    merged: Option<u64>,
}

impl WatermarkMerger {
    /// Merger expecting watermarks from exactly these upstream task ids.
    pub fn new(upstream_ids: impl IntoIterator<Item = u32>) -> Self {
        Self {
            inputs: upstream_ids.into_iter().map(|id| (id, InputState::Unseen)).collect(),
            merged: None,
        }
    }

    /// Apply a watermark (or idle marker) from `source`. Returns
    /// `Some(new_wm)` only when the merged watermark strictly advanced.
    pub fn update(&mut self, source: u32, wm: u64, idle: bool) -> Option<u64> {
        let slot = self.inputs.iter_mut().find(|(id, _)| *id == source)?;
        slot.1 = if idle { InputState::Idle } else { InputState::Active(wm) };

        // Min over active inputs; any Unseen input blocks the merge,
        // and all-idle yields no advance (there is no basis to promise
        // new time when nobody is producing).
        let mut min: Option<u64> = None;
        for (_, st) in &self.inputs {
            match st {
                InputState::Unseen => return None,
                InputState::Active(w) => min = Some(min.map_or(*w, |m| m.min(*w))),
                InputState::Idle => {}
            }
        }
        let cand = min?;
        match self.merged {
            Some(prev) if cand <= prev => None,
            _ => {
                self.merged = Some(cand);
                Some(cand)
            }
        }
    }

    /// Current merged watermark.
    pub fn current(&self) -> Option<u64> {
        self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_monotone_and_bounded() {
        let mut g = WatermarkGen::new(10);
        assert_eq!(g.advance(), None, "no observations yet");
        g.observe(100);
        assert_eq!(g.advance(), Some(90));
        g.observe(50); // out of order: must not regress
        assert_eq!(g.advance(), None);
        g.observe(105);
        assert_eq!(g.advance(), Some(95));
        assert_eq!(g.advance(), None, "no re-advance without progress");
    }

    #[test]
    fn gen_epoch_zero_and_saturation() {
        let mut g = WatermarkGen::new(10);
        g.observe(0);
        assert_eq!(g.advance(), Some(0), "bound saturates at 0, not underflow");
        g.observe(3);
        assert_eq!(g.advance(), None, "3 - 10 saturates to 0, already promised");
    }

    #[test]
    fn gen_advance_to_max_drops_bound() {
        let mut g = WatermarkGen::new(10);
        g.observe(100);
        assert_eq!(g.advance(), Some(90));
        assert_eq!(g.advance_to_max(), Some(100));
        assert_eq!(g.advance(), None, "regular advance cannot regress below max");
    }

    #[test]
    fn merger_takes_min_and_blocks_on_unseen() {
        let mut m = WatermarkMerger::new([1, 2]);
        assert_eq!(m.update(1, 50, false), None, "input 2 unseen: blocked");
        assert_eq!(m.update(2, 30, false), Some(30));
        assert_eq!(m.update(1, 60, false), None, "min still 30");
        assert_eq!(m.update(2, 55, false), Some(55));
    }

    #[test]
    fn merger_is_monotone_under_regression() {
        let mut m = WatermarkMerger::new([1, 2]);
        m.update(1, 50, false);
        m.update(2, 50, false);
        assert_eq!(m.update(1, 20, false), None, "upstream regressed; output holds");
        assert_eq!(m.current(), Some(50));
    }

    #[test]
    fn merger_excludes_idle_inputs() {
        let mut m = WatermarkMerger::new([1, 2]);
        m.update(1, 10, false);
        m.update(2, 5, false);
        assert_eq!(m.current(), Some(5));
        assert_eq!(m.update(2, 5, true), Some(10), "idle input no longer gates");
        assert_eq!(m.update(2, 99, false), None, "wakes up behind: min(10,99) <= 10");
        assert_eq!(m.update(1, 40, false), Some(40));
    }

    #[test]
    fn merger_all_idle_does_not_advance() {
        let mut m = WatermarkMerger::new([1]);
        m.update(1, 10, false);
        assert_eq!(m.update(1, 10, true), None);
        assert_eq!(m.current(), Some(10));
    }

    #[test]
    fn merger_ignores_unknown_source() {
        let mut m = WatermarkMerger::new([1]);
        assert_eq!(m.update(9, 10, false), None);
        assert_eq!(m.update(1, 10, false), Some(10));
    }
}
