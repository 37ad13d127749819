//! A counting global allocator for the Table II "Memory size" column.
//!
//! Wraps the system allocator and tracks current and peak live bytes. The
//! harness binary that produces Table II installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bots_profile::CountingAlloc = bots_profile::CountingAlloc;
//! ```
//!
//! and brackets each kernel run with [`reset_peak`] / [`peak_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// A counting allocator wrapper around the system allocator; see the
/// module-level docs for usage.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            track_alloc(new_size as u64);
        }
        p
    }
}

#[inline]
fn track_alloc(size: u64) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Live heap bytes right now (as seen by the counting allocator).
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Number of allocation calls (`alloc`, `alloc_zeroed`, and the allocating
/// half of `realloc`) since process start. Monotonic; diff two readings to
/// count the allocations a code region performed — this is what the
/// runtime's zero-allocation-spawn test asserts on.
pub fn alloc_calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The counters are process-global and libtest runs tests in parallel:
    /// each test holds this lock so no other test's traffic lands between
    /// its reads.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
    }

    // The tests do not install the allocator globally (that would affect the
    // whole test binary); they exercise the raw GlobalAlloc entry points.
    #[test]
    fn tracks_alloc_and_dealloc() {
        let _serial = exclusive();
        let a = CountingAlloc;
        reset_peak();
        let before = current_bytes();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(current_bytes() - before, 4096);
        assert!(peak_bytes() >= before + 4096);
        unsafe { a.dealloc(p, layout) };
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn realloc_adjusts_current() {
        let _serial = exclusive();
        let a = CountingAlloc;
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let p = unsafe { a.alloc(layout) };
        let before = current_bytes();
        let q = unsafe { a.realloc(p, layout, 2048) };
        assert!(!q.is_null());
        assert_eq!(current_bytes(), before + 1024);
        unsafe { a.dealloc(q, Layout::from_size_align(2048, 8).unwrap()) };
    }

    #[test]
    fn peak_reset() {
        let _serial = exclusive();
        let a = CountingAlloc;
        let layout = Layout::from_size_align(1 << 16, 8).unwrap();
        let p = unsafe { a.alloc(layout) };
        unsafe { a.dealloc(p, layout) };
        assert!(peak_bytes() >= current_bytes() + (1 << 16) - 64);
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }
}
