//! In-memory span recorder for the traced pass. Spans are recorded by
//! the harness's own decorators (around `Spout`, `Storage`, the update
//! closure, the producer and the reader); nothing here reaches into the
//! engine. Spans stay in memory and are written once, at exit.

use std::cell::Cell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per pass; later ones are counted, not stored.
const SPAN_CAP: usize = 400_000;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Span id of the enclosing harness span on the same thread (0 = root).
    pub parent: u64,
    /// This span's id.
    pub id: u64,
    /// The identifier spans of one unit of work share: a record offset,
    /// a commit sequence number, an epoch, or a window end.
    pub key: u64,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The span sink of one pass.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

/// An open span; closes (and records itself) on drop.
pub struct Open<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
    id: u64,
    parent: u64,
    key: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Open a span; spans opened on this thread before it closes become
    /// its children.
    pub fn open(&self, name: &'static str, key: u64) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Open { tracer: self, name, start: Instant::now(), id, parent, key }
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, key: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(Cell::get);
        self.push(Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, id, key });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"unit\":\"ns\",\"dropped\":{},\"spans\":[",
            self.dropped.load(Ordering::Relaxed)
        )?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"id\":{},\"key\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id, s.key
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("spans", &self.len()).finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        CURRENT.with(|c| c.set(self.parent));
        self.tracer.push(Span {
            name: self.name,
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
            parent: self.parent,
            id: self.id,
            key: self.key,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new();
        {
            let outer = t.open("outer", 1);
            let outer_id = outer.id;
            {
                let _inner = t.open("inner", 2);
            }
            t.record("leaf", Instant::now(), Instant::now(), 3);
            let spans = t.spans.lock().unwrap();
            assert!(spans.iter().all(|s| s.parent == outer_id));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans.lock().unwrap()[2].parent, 0);
    }
}
