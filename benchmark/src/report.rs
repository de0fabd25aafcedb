//! One pass's result: tri-state metrics, the host fingerprint, the raw
//! operation counts, and the three renderings (`name unit value` table,
//! the detailed JSON under `benchmark/out/`, the driver's result line).

use crate::catalog;
use crate::host::Host;
use std::fmt::Write as _;

/// A metric either has a measured value or a reason it could not be
/// evaluated here — never a placeholder number.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Num(f64),
    Skipped(String),
}

/// The result of one (workload, seed, trace) pass.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub host: Host,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in report order; units come from the catalogue.
    pub metrics: Vec<(String, Val)>,
    /// Free-form facts worth keeping next to the numbers: sample counts,
    /// the percentile actually used for a tail, per-round raw values.
    pub notes: Vec<(String, String)>,
    /// Why `correct` is false, when it is.
    pub errors: Vec<String>,
}

impl Report {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        quick: bool,
        host: Host,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            quick,
            host,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Record a measured value (non-finite values are a harness bug and
    /// become `skipped` rather than poisoning the JSON).
    pub fn num(&mut self, name: &str, value: f64) {
        debug_assert!(catalog::unit_of(name).is_some(), "{name} is not catalogued");
        let val =
            if value.is_finite() { Val::Num(value) } else { Val::Skipped("not finite".into()) };
        self.set(name, val);
    }

    /// Record a value when there is one, else the reason there is not.
    pub fn num_or(&mut self, name: &str, value: Option<f64>, reason: &str) {
        match value {
            Some(v) => self.num(name, v),
            None => self.skip(name, reason),
        }
    }

    /// Record that a metric cannot be evaluated here, and why.
    pub fn skip(&mut self, name: &str, reason: &str) {
        debug_assert!(catalog::unit_of(name).is_some(), "{name} is not catalogued");
        self.set(name, Val::Skipped(reason.to_string()));
    }

    fn set(&mut self, name: &str, val: Val) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = val,
            None => self.metrics.push((name.to_string(), val)),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Val> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Val::Num(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Every metric as `name unit value` (or `name unit skipped: why`).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, val) in &self.metrics {
            let unit = catalog::unit_of(name).unwrap_or("?");
            match val {
                Val::Num(v) => writeln!(out, "{name} {unit} {}", fmt_num(*v)),
                Val::Skipped(why) => writeln!(out, "{name} {unit} skipped: {why}"),
            }
            .expect("writing to a String");
        }
        out
    }

    /// The detailed result kept under `benchmark/out/`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\
             \"claim\":null,\"host\":{},\"correct\":{},\"ops_attempted\":{},\"ops_failed\":{},",
            escape(&self.workload),
            self.seed,
            fmt_num(self.seconds),
            self.trace,
            self.quick,
            self.host.to_json(),
            self.correct,
            self.attempted,
            self.failed,
        )
        .expect("writing to a String");
        out.push_str("\"metrics\":{");
        for (i, (name, val)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let unit = catalog::unit_of(name).unwrap_or("?");
            match val {
                Val::Num(v) => write!(
                    out,
                    "\n\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    escape(name),
                    fmt_num(*v)
                ),
                Val::Skipped(why) => write!(
                    out,
                    "\n\"{}\":{{\"skipped\":\"{}\",\"unit\":\"{unit}\"}}",
                    escape(name),
                    escape(why)
                ),
            }
            .expect("writing to a String");
        }
        out.push_str("\n},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\n\"{}\":\"{}\"", escape(k), escape(v)).expect("writing to a String");
        }
        out.push_str("\n},\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\"", escape(e)).expect("writing to a String");
        }
        out.push_str("]}");
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being every end-to-end metric
    /// (untraced pass) or every per-layer metric (traced pass).
    ///
    /// The line's format has no place for "skipped", so a skipped
    /// metric reads 0 there; `to_json` and `table` carry the reason.
    pub fn contract_line(&self) -> String {
        let names = if self.trace { catalog::PER_LAYER } else { catalog::END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.value(name).unwrap_or(0.0);
            write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(v))
                .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with all the digits it was measured
/// with.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn report(trace: bool) -> Report {
        Report::new("drain_mem", 1, 2.0, trace, true, Host::probe(Path::new("."), "unpinned"))
    }

    #[test]
    fn contract_line_lists_exactly_the_catalogued_metrics() {
        let mut r = report(false);
        r.num("setup_s", 0.25);
        r.attempted = 10;
        let line = r.contract_line();
        for (name, _) in catalog::END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(!line.contains("budget."));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        let traced = report(true).contract_line();
        assert!(traced.contains("budget.unattributed_share") && !traced.contains("\"setup_s\""));
    }

    #[test]
    fn skipped_metrics_never_print_a_number_in_table_or_json() {
        let mut r = report(true);
        r.skip("sched.steals", "thread-per-task scheduler has no steal counter");
        r.num("window.fired", 12.0);
        assert!(r.table().contains("sched.steals count skipped: thread-per-task"));
        assert!(r.table().contains("window.fired count 12"));
        let json = r.to_json();
        assert!(json.contains("\"sched.steals\":{\"skipped\":"));
        assert!(json.contains("\"claim\":null"));
        r.errors.push("mismatch \"x\"".into());
        assert!(r.to_json().contains("mismatch \\\"x\\\""));
    }
}
