//! Allocation census: a counting wrapper around the system allocator.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`] and
//! bumps two process-wide atomic counters (allocation calls, allocated
//! bytes). It is *not* registered anywhere in the serving stack — only the
//! census harness (`memorydb-bench`'s `alloc_census` binary) installs it as
//! `#[global_allocator]`, so production builds pay nothing. The counters
//! measure the zero-copy hot-path claim (DESIGN.md §15): at pipeline depth
//! 1, allocations-per-command *is* the latency floor, and being a count,
//! not a time, this census is meaningful on a 1-core host.
//!
//! Only `alloc`/`alloc_zeroed`/`realloc` count (each is one heap round-trip
//! the serve path asked for); `dealloc` is free to the census because every
//! counted allocation already implies its eventual free.

// The one sanctioned unsafe block in the workspace: implementing
// `GlobalAlloc` is inherently unsafe and this impl is a pure pass-through
// to `System` plus two Relaxed counter bumps — no pointer arithmetic of
// its own, nothing retained.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting pass-through allocator. Register with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` in a
/// bench/test binary, then diff [`alloc_counts`] snapshots around the
/// region of interest.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// One snapshot of the census counters (monotonic since process start,
/// zero unless a [`CountingAlloc`] is the registered global allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Heap allocation calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub calls: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counter deltas since an `earlier` snapshot.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            calls: self.calls.saturating_sub(earlier.calls),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Reads the current census counters.
pub fn alloc_counts() -> AllocCounts {
    AllocCounts {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the counter plumbing without registering the allocator
    /// globally: drive the `GlobalAlloc` impl directly and assert both
    /// counters move by exactly what was requested.
    #[test]
    fn counters_track_direct_alloc_calls() {
        let a = CountingAlloc;
        let before = alloc_counts();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            a.dealloc(z, layout);
        }
        let d = alloc_counts().since(before);
        assert_eq!(d.calls, 3, "alloc + realloc + alloc_zeroed");
        assert_eq!(d.bytes, 64 + 128 + 64);
        // dealloc never counts.
        let after = alloc_counts();
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        assert_eq!(alloc_counts().since(after).calls, 1);
    }

    #[test]
    fn since_saturates_and_defaults_to_zero() {
        let zero = AllocCounts::default();
        let some = AllocCounts { calls: 5, bytes: 9 };
        assert_eq!(zero.since(some), zero);
        assert_eq!(some.since(zero), some);
    }
}
