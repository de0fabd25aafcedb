//! The shared input generator. Everything the engine sees is produced
//! here from the `--seed` argument: keys Zipf(1.1) over 2 000 ids, an
//! `i64` value, and an event time with 2 % of records delayed by up to
//! the watermark bound and 0.1 % delayed far beyond allowed lateness.
//!
//! The generator is pure (`std` only) so both benchmark binaries and
//! the reference share it without touching the engine.

/// Number of distinct keys.
pub const KEYS: usize = 2_000;
/// Zipf exponent of the key distribution.
pub const ZIPF_S: f64 = 1.1;
/// Tumbling window length (event-time ms).
pub const WINDOW_MS: u64 = 100;
/// Watermark out-of-orderness bound (event-time ms).
pub const WM_BOUND_MS: u64 = 20;
/// Allowed lateness of `J.window` (event-time ms).
pub const LATENESS_MS: u64 = 50;
/// Share of records delayed by `1..=WM_BOUND_MS` (never late: the
/// watermark trails the newest event time by the same bound).
pub const DELAYED_SHARE: f64 = 0.02;
/// Share of records delayed beyond allowed lateness.
pub const TOO_LATE_SHARE: f64 = 0.001;
/// How far back a too-late record is stamped. Window + lateness +
/// bound is 170 ms; the rest is slack for the watermark cadence (one
/// marker per 32 source tuples), so the engine's verdict on these
/// records never depends on timing.
pub const TOO_LATE_MS: u64 = 1_000;
/// No too-late records are generated before this event time (a stamp
/// cannot go below 0, and no watermark exists yet to be late against).
pub const TOO_LATE_AFTER_MS: u64 = 1_500;
/// Synthetic event-time density of the prefilled drains: records per
/// event-time millisecond (10 000 records per window).
pub const RECORDS_PER_MS: u64 = 100;

/// What the generator did to a record's event time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Stamped with the current event time.
    OnTime,
    /// Stamped up to the watermark bound in the past (still on time).
    Delayed,
    /// Stamped beyond allowed lateness: must land in the late output.
    TooLate,
}

/// One generated record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    /// Key id in `0..KEYS`.
    pub key: u32,
    /// The value pushed into the aggregate.
    pub value: i64,
    /// Event time in ms.
    pub event_time: u64,
    /// Delay class.
    pub kind: Kind,
}

/// The clock-independent part of a record: what the seed decides.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Draw {
    pub key: u32,
    pub value: i64,
    /// Uniform in `[0, 1)`: selects the delay class.
    class: f64,
    /// Raw bits the delay within the class is taken from.
    jitter: u64,
}

impl Draw {
    /// Stamp the draw at event time `now_ms`.
    pub fn stamp(&self, now_ms: u64) -> Rec {
        let (event_time, kind) = if self.class < TOO_LATE_SHARE && now_ms >= TOO_LATE_AFTER_MS {
            (now_ms - TOO_LATE_MS - self.jitter % WINDOW_MS, Kind::TooLate)
        } else if self.class < TOO_LATE_SHARE + DELAYED_SHARE {
            (now_ms.saturating_sub(1 + self.jitter % WM_BOUND_MS), Kind::Delayed)
        } else {
            (now_ms, Kind::OnTime)
        };
        Rec { key: self.key, value: self.value, event_time, kind }
    }
}

/// SplitMix64 (same constants as `sa_core::rng`; duplicated so the
/// generator has no dependency to drift with).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Seeded record source. `next(now_ms)` draws the next record at event
/// time `now_ms`; the prefilled drains pass a synthetic clock
/// ([`Generator::synthetic`]), the paced workload passes the producer's
/// wall clock.
pub struct Generator {
    rng: Rng,
    /// Zipf CDF over key ranks (rank r ↦ key id r).
    cdf: Vec<f64>,
    /// Key names, indexed by key id.
    names: Vec<String>,
    emitted: u64,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(KEYS);
        let mut acc = 0.0;
        for r in 1..=KEYS {
            acc += 1.0 / (r as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let names = (0..KEYS).map(|k| format!("k{k:04}")).collect();
        Self { rng: Rng::new(seed ^ 0x5A_BE7C), cdf, names, emitted: 0 }
    }

    /// The key's name as the engine sees it.
    pub fn name(&self, key: u32) -> &str {
        &self.names[key as usize]
    }

    /// All key names, indexed by key id.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Draw the next record's clock-independent part. The stream of
    /// draws depends on the seed alone, never on the clock.
    pub fn draw(&mut self) -> Draw {
        let u = self.rng.next_f64();
        let key = self.cdf.partition_point(|&c| c <= u).min(KEYS - 1) as u32;
        let value = self.rng.below(1_000) as i64;
        let class = self.rng.next_f64();
        let jitter = self.rng.next_u64();
        self.emitted += 1;
        Draw { key, value, class, jitter }
    }

    /// Draw the next record at event time `now_ms`.
    pub fn next(&mut self, now_ms: u64) -> Rec {
        self.draw().stamp(now_ms)
    }

    /// The next record on the synthetic clock of the prefilled drains:
    /// record `i` is drawn at event time `i / RECORDS_PER_MS`.
    pub fn synthetic(&mut self) -> Rec {
        let now = self.emitted / RECORDS_PER_MS;
        self.next(now)
    }

    /// Key id of a name produced by [`Generator::name`].
    pub fn key_of(name: &str) -> Option<u32> {
        name.strip_prefix('k')?.parse().ok().filter(|&k| (k as usize) < KEYS)
    }
}

/// The window `[start, end)` a timestamp falls into.
pub fn window_of(event_time: u64) -> (u64, u64) {
    let start = event_time - event_time % WINDOW_MS;
    (start, start + WINDOW_MS)
}

/// FNV-1a over a record stream: the determinism fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn push(&mut self, r: &Rec) {
        for word in [u64::from(r.key), r.value as u64, r.event_time, r.kind as u64] {
            for b in word.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Hash of the first `n` synthetic records under `seed`.
pub fn stream_hash(seed: u64, n: u64) -> u64 {
    let mut g = Generator::new(seed);
    let mut h = StreamHash::default();
    for _ in 0..n {
        h.push(&g.synthetic());
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        assert_eq!(stream_hash(7, 50_000), stream_hash(7, 50_000));
        assert_ne!(stream_hash(7, 50_000), stream_hash(8, 50_000));
    }

    #[test]
    fn delay_classes_have_their_shares_and_margins() {
        let mut g = Generator::new(1);
        let n = 1_000_000u64;
        let (mut delayed, mut late) = (0u64, 0u64);
        for i in 0..n {
            let now = i / RECORDS_PER_MS;
            let r = g.synthetic();
            match r.kind {
                Kind::OnTime => assert_eq!(r.event_time, now),
                Kind::Delayed => {
                    delayed += 1;
                    assert!(now - r.event_time <= WM_BOUND_MS);
                }
                Kind::TooLate => {
                    late += 1;
                    assert!(now - r.event_time >= TOO_LATE_MS);
                }
            }
        }
        assert!((delayed as f64 / n as f64 - DELAYED_SHARE).abs() < 0.002);
        assert!((late as f64 / n as f64 - TOO_LATE_SHARE).abs() < 0.0003);
    }
}
