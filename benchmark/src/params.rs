//! The frozen load: every size and rate the harness applies. Calibrated
//! once on the 2-core reference host (README "Calibration") and then
//! fixed, so a parent commit and a change always see identical load —
//! the harness never calibrates per run.

/// Sizes and rates of one pass.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Records per saturated drain round: a multiple of the spout's
    /// frontier cadence (256), see [`FRONTIER_EVERY`].
    pub round_records: u64,
    /// Share of `--seconds` spent on drain rounds by the three drain
    /// workloads; the rest is their open-loop probe phase.
    pub drain_share: f64,
    /// Open-loop rate (records/s) of the probe phase of the two
    /// `J.window` drains: ~17 % of `drain_mem`'s capacity.
    pub probe_rate_window: u64,
    /// The same for `sketch_drain`: ~45 % of its capacity. At 20 k/s the
    /// sketch job idles four fifths of the time, and its sub-millisecond
    /// freshness then measures how the source's 2 ms idle poll happens
    /// to phase against the producer (spread 13–21 % between passes).
    pub probe_rate_sketch: u64,
    /// `paced_mem`'s three steps (records/s): `R1` trickle, `R2` ≈ 40 %
    /// and `R3` ≈ 80 % of the calibrated `drain_mem` rate (115 k/s, engine
    /// on one CPU).
    pub paced_rates: [u64; 3],
    /// Open-loop point reads per second.
    pub read_rate: u64,
    /// Seconds discarded at the start of every open-loop step.
    pub warmup_s: f64,
    /// Restart measurements after each drain round on memory storage: a
    /// few milliseconds each.
    pub restarts_mem: usize,
    /// The same on disk, where a restart replays the log and the WAL.
    pub restarts_disk: usize,
    /// Set-ups timed per open-loop run (drain rounds time their own).
    pub setup_repeats: usize,
}

/// Settled records between the spout's frontier commits. Every input
/// the harness offers is a multiple of it, so the frontier committed at
/// the end of a run is the end of the log and a restart replays
/// nothing. (A replay under shuffle grouping may reach the other task,
/// whose dedup tokens do not know the record: `J.sketch` would count it
/// twice. README "Findings" has the details.)
pub const FRONTIER_EVERY: u64 = 256;

/// `--seconds` when the caller gives none.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--seconds` under `--quick` when the caller gives none.
pub const QUICK_SECONDS: f64 = 2.0;

impl Params {
    /// The benchmark's load.
    pub const FULL: Params = Params {
        round_records: 204_800,
        drain_share: 0.7,
        probe_rate_window: 20_000,
        probe_rate_sketch: 60_000,
        paced_rates: [2_000, 45_000, 90_000],
        read_rate: 5_000,
        warmup_s: 1.0,
        restarts_mem: 6,
        restarts_disk: 2,
        setup_repeats: 5,
    };

    /// Smoke-test load: the same code on a tenth of the data.
    pub const QUICK: Params = Params {
        round_records: 20_480,
        warmup_s: 0.2,
        restarts_mem: 3,
        restarts_disk: 2,
        setup_repeats: 3,
        ..Params::FULL
    };
}
