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

/// Watermark policy for a topology (set on
/// [`ExecutorConfig::watermarks`](crate::executor::ExecutorConfig)).
#[derive(Clone, Debug)]
pub struct WatermarkConfig {
    /// Bounded out-of-orderness: the watermark trails the maximum
    /// observed event time by this many time units. A tuple more than
    /// `bound` behind the newest one already seen is late.
    pub bound: u64,
    /// Spouts broadcast a watermark after every `emit_every` emitted
    /// tuples (and always when they finish).
    pub emit_every: usize,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self { bound: 0, emit_every: 32 }
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
}

/// Min-across-inputs watermark merge for a bolt task. The merged
/// output is monotone even if (buggy or restarted) upstreams regress.
#[derive(Clone, Debug)]
pub struct WatermarkMerger {
    /// Last watermark per upstream task; `None` (unseen) blocks the
    /// merge — nothing can be promised about an input not yet heard from.
    inputs: Vec<(u32, Option<u64>)>,
    merged: Option<u64>,
}

impl WatermarkMerger {
    /// Merger expecting watermarks from exactly these upstream task ids.
    pub fn new(upstream_ids: impl IntoIterator<Item = u32>) -> Self {
        Self { inputs: upstream_ids.into_iter().map(|id| (id, None)).collect(), merged: None }
    }

    /// Apply a watermark from `source`. Returns `Some(new_wm)` only
    /// when the merged watermark strictly advanced.
    pub fn update(&mut self, source: u32, wm: u64) -> Option<u64> {
        let slot = self.inputs.iter_mut().find(|(id, _)| *id == source)?;
        slot.1 = Some(wm);
        // Min over all inputs; `None` orders first, so any unseen input
        // blocks the merge.
        let cand = self.inputs.iter().map(|&(_, w)| w).min()??;
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
    fn merger_takes_min_and_blocks_on_unseen() {
        let mut m = WatermarkMerger::new([1, 2]);
        assert_eq!(m.update(1, 50), None, "input 2 unseen: blocked");
        assert_eq!(m.update(2, 30), Some(30));
        assert_eq!(m.update(1, 60), None, "min still 30");
        assert_eq!(m.update(2, 55), Some(55));
    }

    #[test]
    fn merger_is_monotone_under_regression() {
        let mut m = WatermarkMerger::new([1, 2]);
        m.update(1, 50);
        m.update(2, 50);
        assert_eq!(m.update(1, 20), None, "upstream regressed; output holds");
        assert_eq!(m.current(), Some(50));
    }

    #[test]
    fn merger_ignores_unknown_source() {
        let mut m = WatermarkMerger::new([1]);
        assert_eq!(m.update(9, 10), None);
        assert_eq!(m.update(1, 10), Some(10));
    }
}
