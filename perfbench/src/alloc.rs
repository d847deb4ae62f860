//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! Each thread batches its size changes locally and folds them into the
//! shared counters once they reach [`BATCH`] bytes (and when the thread
//! ends), so campaign worker threads do not contend on one cache line
//! per allocation. The peak is therefore exact to within
//! `BATCH` × live threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Wraps the system allocator and tracks live bytes and the peak.
pub struct Counting;

/// Bytes a thread may allocate or free before it updates the shared
/// counters.
const BATCH: isize = 64 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's size change not yet folded into [`LIVE`].
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn record(delta: isize) {
    let batched = PENDING.try_with(|pending| {
        let sum = pending.0.get() + delta;
        if sum.abs() < BATCH {
            pending.0.set(sum);
            0
        } else {
            pending.0.set(0);
            sum
        }
    });
    // A thread whose local state is gone publishes directly.
    match batched {
        Ok(0) => {}
        Ok(sum) => publish(sum),
        Err(_) => publish(delta),
    }
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Starts a new high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed).max(0) as usize
}
