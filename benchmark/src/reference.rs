//! Single-threaded reference computations of the two jobs, and the
//! checkers that compare what the engine served against them.
//!
//! `J.window` is checked exactly: a (key, window) aggregate is the
//! `OnlineStats` of that group's values in log order (one source, FIFO
//! links and key grouping preserve it), so the served snapshot must be
//! bit-identical to the reference's. `J.sketch`'s merged `CountMin` is
//! a cell-wise sum, so it must be bit-identical to a sequential sketch
//! whatever the shuffle did.

use crate::gen::{window_of, Kind, Rec};
use sa_core::stats::OnlineStats;
use sa_core::Synopsis;
use sa_sketches::frequency::CountMinSketch;
use std::collections::HashMap;

/// `J.sketch`'s geometry: 1 024 × 4 counters (32 KiB per snapshot).
pub const SKETCH_WIDTH: usize = 1_024;
pub const SKETCH_DEPTH: usize = 4;

/// The empty sketch every task starts from.
pub fn sketch_template() -> CountMinSketch {
    CountMinSketch::new(SKETCH_WIDTH, SKETCH_DEPTH).expect("fixed geometry is valid")
}

/// One served `J.window` entry as a reader saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedWindow {
    pub start: u64,
    pub end: u64,
    /// `OnlineStats::snapshot` of the served aggregate.
    pub snapshot: Vec<u8>,
}

/// What one `J.window` run served and counted.
#[derive(Clone, Debug, Default)]
pub struct WindowObserved {
    /// The final epoch's table, by key name.
    pub table: HashMap<String, ServedWindow>,
    /// (key, window) results the window operator fired.
    pub fired: u64,
    /// Records the window operator diverted to its late output.
    pub late: u64,
}

/// The reference `J.window`: every (key, window) aggregate.
#[derive(Default)]
pub struct WindowReference {
    groups: HashMap<(u32, u64), OnlineStats>,
    /// Newest window start seen per key id.
    newest: HashMap<u32, u64>,
    late: u64,
    records: u64,
}

impl WindowReference {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one generated record, in log order.
    pub fn push(&mut self, r: &Rec) {
        self.records += 1;
        if r.kind == Kind::TooLate {
            self.late += 1;
            return;
        }
        let (start, _) = window_of(r.event_time);
        // Not `or_default()`: the derived `Default` starts min and max at
        // 0, the job's template (`new`) at ±infinity.
        #[allow(clippy::unwrap_or_default)]
        self.groups.entry((r.key, start)).or_insert_with(OnlineStats::new).push(r.value as f64);
        let newest = self.newest.entry(r.key).or_insert(start);
        *newest = (*newest).max(start);
    }

    /// Records folded so far (late ones included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Distinct (key, window) groups: each fires exactly once.
    pub fn groups(&self) -> u64 {
        self.groups.len() as u64
    }

    /// Records that must land in the late output.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Keys that have at least one on-time record.
    pub fn keys(&self) -> usize {
        self.newest.len()
    }

    /// Whether a served entry is exactly the reference's aggregate for
    /// that (key, window).
    pub fn entry_matches(&self, key: u32, served: &ServedWindow) -> bool {
        served.end == served.start + crate::gen::WINDOW_MS
            && self
                .groups
                .get(&(key, served.start))
                .is_some_and(|agg| agg.snapshot() == served.snapshot)
    }

    /// Check a finished run: every key's final entry is its newest
    /// window with the reference's aggregate, no key is missing or
    /// extra, and the fired and late counts agree.
    pub fn check(&self, names: &[String], obs: &WindowObserved) -> Result<(), String> {
        if obs.fired != self.groups() {
            return Err(format!(
                "fired {} (key, window) results, reference has {}",
                obs.fired,
                self.groups()
            ));
        }
        if obs.late != self.late {
            return Err(format!("{} records went late, reference says {}", obs.late, self.late));
        }
        if obs.table.len() != self.newest.len() {
            return Err(format!(
                "view serves {} keys, reference has {}",
                obs.table.len(),
                self.newest.len()
            ));
        }
        for (&key, &start) in &self.newest {
            let name = &names[key as usize];
            let Some(served) = obs.table.get(name) else {
                return Err(format!("key {name} missing from the view"));
            };
            if served.start != start {
                return Err(format!(
                    "key {name} serves window {}..{}, newest is {start}..",
                    served.start, served.end
                ));
            }
            if !self.entry_matches(key, served) {
                return Err(format!(
                    "key {name} window {start}: aggregate differs from the reference"
                ));
            }
        }
        Ok(())
    }
}

/// The reference `J.sketch`: one sequential `CountMin` over every key.
pub struct SketchReference {
    sketch: CountMinSketch,
}

impl Default for SketchReference {
    fn default() -> Self {
        Self { sketch: sketch_template() }
    }
}

impl SketchReference {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one record's key (late stamps do not matter: no windows).
    pub fn push(&mut self, key_name: &str) {
        self.sketch.add(key_name, 1);
    }

    pub fn total(&self) -> i64 {
        self.sketch.total()
    }

    /// The served merged sketch must be bit-identical.
    pub fn check(&self, served_snapshot: &[u8]) -> Result<(), String> {
        if self.sketch.snapshot() == served_snapshot {
            Ok(())
        } else {
            Err("merged CountMin differs from the sequential reference".into())
        }
    }
}

/// The checkers must reject a wrong answer: perturb one count, drop one
/// window, flip one `CountMin` cell, and require each to fail. Returns
/// the first perturbation that slipped through.
pub fn negative_self_test(
    window: Option<(&WindowReference, &[String], &WindowObserved)>,
    sketch: Option<(&SketchReference, &[u8])>,
) -> Result<(), String> {
    if let Some((reference, names, obs)) = window {
        reference.check(names, obs).map_err(|e| format!("self-test needs a passing run: {e}"))?;
        let victim = obs.table.keys().min().ok_or("self-test needs a non-empty view")?.clone();

        let mut perturbed = obs.clone();
        // Byte 1 is the low byte of the little-endian count.
        perturbed.table.get_mut(&victim).expect("victim present").snapshot[1] ^= 1;
        if reference.check(names, &perturbed).is_ok() {
            return Err("a perturbed count passed the window check".into());
        }

        let mut dropped = obs.clone();
        dropped.table.remove(&victim);
        if reference.check(names, &dropped).is_ok() {
            return Err("a dropped window passed the window check".into());
        }

        let mut miscounted = obs.clone();
        miscounted.fired += 1;
        if reference.check(names, &miscounted).is_ok() {
            return Err("a wrong fired count passed the window check".into());
        }
    }
    if let Some((reference, served)) = sketch {
        reference.check(served).map_err(|e| format!("self-test needs a passing run: {e}"))?;
        let mut flipped = served.to_vec();
        let cell = flipped.len() / 2;
        flipped[cell] ^= 1;
        if reference.check(&flipped).is_ok() {
            return Err("a flipped CountMin cell passed the sketch check".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;

    /// A faithful "engine": serve each key's newest window.
    fn observe(reference: &WindowReference, names: &[String]) -> WindowObserved {
        let mut obs = WindowObserved {
            fired: reference.groups(),
            late: reference.late(),
            ..Default::default()
        };
        for (&key, &start) in &reference.newest {
            obs.table.insert(
                names[key as usize].clone(),
                ServedWindow {
                    start,
                    end: start + crate::gen::WINDOW_MS,
                    snapshot: reference.groups[&(key, start)].snapshot(),
                },
            );
        }
        obs
    }

    #[test]
    fn faithful_output_passes_and_every_perturbation_fails() {
        let mut g = Generator::new(11);
        let mut window = WindowReference::new();
        let mut sketch = SketchReference::new();
        for _ in 0..300_000 {
            let r = g.synthetic();
            window.push(&r);
            sketch.push(g.name(r.key));
        }
        assert!(window.late() > 0 && window.groups() > 1_000);
        let names = g.names().to_vec();
        let obs = observe(&window, &names);
        window.check(&names, &obs).unwrap();
        let served = sketch.sketch.snapshot();
        sketch.check(&served).unwrap();
        negative_self_test(Some((&window, &names, &obs)), Some((&sketch, &served))).unwrap();
    }

    #[test]
    fn each_perturbation_is_rejected_on_its_own() {
        let mut g = Generator::new(5);
        let mut window = WindowReference::new();
        for _ in 0..50_000 {
            window.push(&g.synthetic());
        }
        let names = g.names().to_vec();
        let good = observe(&window, &names);
        let victim = good.table.keys().next().unwrap().clone();

        let mut count = good.clone();
        count.table.get_mut(&victim).unwrap().snapshot[1] ^= 1;
        assert!(window.check(&names, &count).unwrap_err().contains("aggregate differs"));

        let mut dropped = good.clone();
        dropped.table.remove(&victim);
        assert!(window.check(&names, &dropped).is_err());

        let mut late = good.clone();
        late.late += 1;
        assert!(window.check(&names, &late).unwrap_err().contains("late"));

        let mut old = good;
        old.table.get_mut(&victim).unwrap().start -= crate::gen::WINDOW_MS;
        assert!(window.check(&names, &old).is_err());
    }
}
