//! The supervision layer: panic isolation, restart policies, and chaos
//! injection.
//!
//! Table 2 separates the platforms by their failure story as much as by
//! their semantics: Storm replays failed tuple trees, MillWheel
//! recovers operators from checkpointed state, and Heron isolates each
//! task in its own process so one crash cannot take down a worker. The
//! executor reproduces all three behaviours:
//!
//! * **Isolation (Heron).** Every spout `next_tuple` and bolt
//!   `execute`/`flush`/`on_watermark`/`on_idle` call runs under
//!   `catch_unwind`: a panic kills the *call*, not the worker thread,
//!   and never the topology. One supervisor (`executor/task.rs`) does
//!   this for both task kinds, using the policy and tracker below.
//! * **Restart (Storm's supervisor / Heron's stream manager).** A
//!   [`RestartPolicy`] grants each task a budget of restarts inside a
//!   sliding window, with a deterministic (jitterless) exponential
//!   backoff between attempts. Bolts declared through builders
//!   (`BoltFactory::builders`) are *rebuilt* on restart —
//!   a checkpointed bolt ([`crate::operator::SynopsisBolt`],
//!   [`crate::window::WindowBolt`]) then recovers its state through the
//!   same checkpoint + replay path it uses at topology start, mid-run.
//! * **Escalation.** When the budget is exhausted the failure escalates:
//!   the topology aborts, drains, and `run_topology` returns an
//!   [`sa_core::SaError::Platform`] naming the component and task.
//! * **Quarantine (dead-letter queue).** A spout message whose tree
//!   keeps failing — `ExecutorConfig::max_replays` replays exhausted,
//!   whether by repeated panics, drops, or explicit fails — is routed
//!   to the `"{spout}.dlq"` terminal sink and counted, instead of being
//!   replayed forever (the classic poison-tuple defence).
//!
//! [`FaultPlan`] is the one chaos harness: per-component panic
//! probability, per-link drop injection, a crash switch, and storage
//! I/O faults (applied through [`FaultPlan::wrap_storage`]); every
//! random draw is seeded and deterministic.

use crate::storage::{FaultyStorage, Storage, StorageFaults};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Per-component restart policy: a deterministic exponential backoff
/// schedule plus a sliding-window restart budget.
///
/// The backoff before restart attempt `n` (0-based, counted over the
/// restarts currently inside the window) is
/// `min(backoff_base · backoff_factor^n, backoff_cap)` — jitterless,
/// so schedules are reproducible under a fixed fault seed.
#[derive(Clone, Debug, PartialEq)]
pub struct RestartPolicy {
    /// Backoff before the first restart in a window.
    pub backoff_base: Duration,
    /// Multiplier per consecutive restart (values < 1 are clamped to 1
    /// so the schedule stays monotone non-decreasing).
    pub backoff_factor: f64,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
    /// Restarts allowed inside `window`; the next panic past the budget
    /// escalates to topology failure. 0 = never restart.
    pub max_restarts: u32,
    /// Sliding window over which `max_restarts` is counted.
    pub window: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_micros(100),
            backoff_factor: 2.0,
            backoff_cap: Duration::from_millis(10),
            max_restarts: 1024,
            window: Duration::from_secs(10),
        }
    }
}

impl RestartPolicy {
    /// Never restart: the first panic escalates to topology failure
    /// (the pre-supervision behaviour, made explicit).
    pub fn none() -> Self {
        Self { max_restarts: 0, ..Self::default() }
    }

    /// Builder: set the base backoff.
    pub fn base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Builder: set the backoff cap.
    pub fn cap(mut self, d: Duration) -> Self {
        self.backoff_cap = d;
        self
    }

    /// Builder: set the restart budget within its sliding window.
    pub fn budget(mut self, max_restarts: u32, window: Duration) -> Self {
        self.max_restarts = max_restarts;
        self.window = window;
        self
    }

    /// The backoff before restart attempt `n` (0-based): monotone
    /// non-decreasing in `n` and capped at `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.backoff_base.as_secs_f64();
        let cap = self.backoff_cap.as_secs_f64();
        // powi past 64 only matters when base is subnormal; clamping the
        // exponent keeps the arithmetic finite without changing the
        // capped result.
        let factor = self.backoff_factor.max(1.0);
        let raw = base * factor.powi(attempt.min(64) as i32);
        Duration::from_secs_f64(raw.min(cap).max(0.0))
    }
}

/// What the supervisor decided after a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartDecision {
    /// Restart the task after this backoff.
    Restart(Duration),
    /// Budget exhausted: escalate to topology failure.
    Escalate,
}

/// Per-task restart accounting against one [`RestartPolicy`].
///
/// Time is injected (`now` = elapsed since run start) so schedules are
/// testable without sleeping.
#[derive(Debug)]
pub struct RestartTracker {
    policy: RestartPolicy,
    /// Grant times (run-relative) of restarts inside the window.
    grants: VecDeque<Duration>,
}

impl RestartTracker {
    /// Fresh tracker for one task.
    pub fn new(policy: RestartPolicy) -> Self {
        Self { policy, grants: VecDeque::new() }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &RestartPolicy {
        &self.policy
    }

    /// Restarts currently inside the sliding window ending at `now`.
    pub fn restarts_in_window(&mut self, now: Duration) -> u32 {
        let horizon = now.saturating_sub(self.policy.window);
        while self.grants.front().is_some_and(|&t| t < horizon) {
            self.grants.pop_front();
        }
        self.grants.len() as u32
    }

    /// Account one panic at `now`: either grant a restart (recording it
    /// against the budget and returning the backoff to sleep) or
    /// escalate.
    pub fn on_panic(&mut self, now: Duration) -> RestartDecision {
        let used = self.restarts_in_window(now);
        if used >= self.policy.max_restarts {
            return RestartDecision::Escalate;
        }
        let delay = self.policy.backoff(used);
        self.grants.push_back(now);
        RestartDecision::Restart(delay)
    }
}

/// A declarative chaos plan: which faults to inject where, under one
/// seed. The executor applies the panic and link faults and the crash
/// switch (`ExecutorConfig::faults`); storage faults wrap a storage handle
/// explicitly with [`FaultPlan::wrap_storage`], since stores live
/// outside the executor.
///
/// Component lookups fall back to the `""` entry, so
/// `FaultPlan::new(seed).panic_on("", 0.01)` injects everywhere.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Deterministic seed for every injected fault decision.
    pub seed: u64,
    /// Per-component probability that a unit of work (one `next_tuple`
    /// or `execute` call) panics.
    panic_prob: Vec<(String, f64)>,
    /// Per-component probability that an outgoing delivery is dropped
    /// in flight.
    link_drop: Vec<(String, f64)>,
    /// Storage-level I/O faults (torn appends, bit flips, transient
    /// errors), applied via [`FaultPlan::wrap_storage`].
    storage_faults: Option<StorageFaults>,
    /// Crash switch ([`FaultPlan::kill_switch`]).
    pub(crate) kill: Option<Arc<AtomicBool>>,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_prob.is_empty()
            && self.link_drop.is_empty()
            && self.storage_faults.is_none()
            && self.kill.is_none()
    }

    /// Builder: panic probability per unit of work for `component`
    /// (`""` = every component).
    pub fn panic_on(mut self, component: &str, prob: f64) -> Self {
        self.panic_prob.push((component.to_string(), prob));
        self
    }

    /// Builder: drop probability per delivery emitted by `component`
    /// (`""` = every component).
    pub fn drop_on(mut self, component: &str, prob: f64) -> Self {
        self.link_drop.push((component.to_string(), prob));
        self
    }

    /// Builder: crash injection. Once `flag` reads `true`, spouts stop
    /// emitting and shutdown skips the flush phase, as if the process
    /// died (recovery tests then restart from checkpoints + replay).
    pub fn kill_switch(mut self, flag: Arc<AtomicBool>) -> Self {
        self.kill = Some(flag);
        self
    }

    /// Builder: storage-level I/O faults ([`StorageFaults`]), taking
    /// effect via [`FaultPlan::wrap_storage`]. The fault set's own seed
    /// is overridden by the plan's seed, so one knob governs every
    /// injected decision.
    pub fn storage(mut self, faults: StorageFaults) -> Self {
        self.storage_faults = Some(StorageFaults { seed: self.seed, ..faults });
        self
    }

    /// The plan's storage-fault set, when declared.
    pub fn storage_faults(&self) -> Option<&StorageFaults> {
        self.storage_faults.as_ref()
    }

    /// Wrap `storage` in a [`FaultyStorage`] chaos proxy when the plan
    /// declares storage faults; otherwise pass it through untouched.
    /// Durable stores built over the returned handle see the plan's
    /// torn appends, bit flips, and transient errors.
    pub fn wrap_storage(&self, storage: Arc<dyn Storage>) -> Arc<dyn Storage> {
        match &self.storage_faults {
            Some(f) => Arc::new(FaultyStorage::new(storage, f.clone())),
            None => storage,
        }
    }

    fn lookup<'a, T>(table: &'a [(String, T)], component: &str) -> Option<&'a T> {
        table
            .iter()
            .find(|(c, _)| c == component)
            .or_else(|| table.iter().find(|(c, _)| c.is_empty()))
            .map(|(_, v)| v)
    }

    /// Panic probability for `component` (0 when unplanned).
    pub fn panic_prob_for(&self, component: &str) -> f64 {
        Self::lookup(&self.panic_prob, component).copied().unwrap_or(0.0)
    }

    /// Link drop probability for `component`, when planned.
    pub fn drop_for(&self, component: &str) -> Option<f64> {
        Self::lookup(&self.link_drop, component).copied()
    }
}

/// Best-effort human-readable message from a `catch_unwind`/join panic
/// payload (`&str` and `String` payloads cover `panic!` and `assert!`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_and_capped() {
        let p =
            RestartPolicy::default().base(Duration::from_millis(1)).cap(Duration::from_millis(100));
        let mut prev = Duration::ZERO;
        for n in 0..200 {
            let d = p.backoff(n);
            assert!(d >= prev, "backoff regressed at attempt {n}: {prev:?} -> {d:?}");
            assert!(d <= p.backoff_cap, "backoff exceeded cap at attempt {n}: {d:?}");
            prev = d;
        }
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(199), Duration::from_millis(100), "schedule must reach the cap");
    }

    #[test]
    fn backoff_clamps_shrinking_factor() {
        let mut p = RestartPolicy::default().base(Duration::from_millis(4));
        p.backoff_factor = 0.5; // would decay; clamped to constant
        assert_eq!(p.backoff(0), p.backoff(10));
    }

    #[test]
    fn tracker_escalates_past_budget_and_window_slides() {
        let policy = RestartPolicy::default().budget(2, Duration::from_secs(10));
        let mut t = RestartTracker::new(policy);
        let s = Duration::from_secs;
        assert!(matches!(t.on_panic(s(0)), RestartDecision::Restart(_)));
        assert!(matches!(t.on_panic(s(1)), RestartDecision::Restart(_)));
        assert_eq!(t.on_panic(s(2)), RestartDecision::Escalate);
        // 11s: the grant at t=0 left the window; one slot is free again.
        assert!(matches!(t.on_panic(s(11)), RestartDecision::Restart(_)));
        assert_eq!(t.on_panic(s(11)), RestartDecision::Escalate);
    }

    #[test]
    fn none_policy_escalates_immediately() {
        let mut t = RestartTracker::new(RestartPolicy::none());
        assert_eq!(t.on_panic(Duration::ZERO), RestartDecision::Escalate);
    }

    #[test]
    fn fault_plan_lookup_falls_back_to_wildcard() {
        let plan = FaultPlan::new(7).panic_on("", 0.5).panic_on("wc", 0.25).drop_on("spout", 0.1);
        assert_eq!(plan.panic_prob_for("wc"), 0.25);
        assert_eq!(plan.panic_prob_for("other"), 0.5, "wildcard fallback");
        assert_eq!(plan.drop_for("spout"), Some(0.1));
        assert_eq!(plan.drop_for("wc"), None, "no wildcard declared for drops");
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(1).is_empty());
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let static_payload: Box<dyn Any + Send> = Box::new("boom");
        let string_payload: Box<dyn Any + Send> = Box::new(String::from("kaboom"));
        let odd_payload: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(static_payload.as_ref()), "boom");
        assert_eq!(panic_message(string_payload.as_ref()), "kaboom");
        assert_eq!(panic_message(odd_payload.as_ref()), "non-string panic payload");
    }
}
