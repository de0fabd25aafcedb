//! Process-wide allocation accounting: a counting shim around the
//! system allocator, surfaced through [`crate::metrics::MetricsSnapshot`].
//!
//! The data plane's zero-copy claim (`Arc`-interned tuple payloads, so
//! an `All`-grouped fan-out clone is a refcount bump) is an allocation
//! claim, so the runtime measures it directly: every
//! `alloc`/`realloc`/`alloc_zeroed` bumps two relaxed atomics, and
//! tests and benchmarks difference [`totals`] across a run to report
//! `allocs_per_tuple`. Frees are not tracked — the interesting number
//! for a streaming hot loop is allocation *rate*, not live bytes.
//!
//! The counters are global to the process (there is exactly one global
//! allocator), so concurrent runs share them; diff-based measurements
//! must run serially, as the bench harness does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting shim. Installed as the crate's `#[global_allocator]`,
/// so every binary linking `sa-platform` gets accounting for free; the
/// cost is two relaxed fetch-adds per allocation.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System` for memory; the counters are
// plain relaxed atomics with no allocation or locking of their own, so
// the shim cannot recurse or change allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cumulative `(allocations, bytes requested)` since process start.
/// Monotone; diff two readings to meter a region.
pub fn totals() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_advance_on_allocation() {
        let (a0, b0) = totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (a1, b1) = totals();
        assert!(a1 > a0, "allocation not counted");
        assert!(b1 - b0 >= 4096, "bytes under-counted: {}", b1 - b0);
        drop(v);
        let (a2, _) = totals();
        assert!(a2 >= a1, "counter went backwards");
    }
}
