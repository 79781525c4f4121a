//! A counting global allocator: the live and peak heap bytes of the
//! benchmark process, which also hosts the server.
//!
//! The process's `VmHWM` swings by a quarter between runs of the same jobs,
//! because the system allocator keeps freed memory in per-thread arenas
//! in whatever pattern the threads' timing leaves.  The bytes the program
//! itself holds live do not depend on that, so the memory metric counts
//! them here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to the `System` allocator and
// only updates relaxed counters around it, so `GlobalAlloc`'s
// layout/aliasing contract holds exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `Layout` obligations are forwarded unchanged to
    // `System`, which imposes the same contract this trait declares
    // (likewise for the other three methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: `Layout` obligations forwarded unchanged to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for, passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: `ptr` was returned by this allocator, which is `System`
    // memory with the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pointer and layout forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    // SAFETY: `ptr`/`layout` obligations forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: pointer, layout and size forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const MIB: f64 = 1024.0 * 1024.0;

/// Starts a new peak window at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most heap bytes live at once since the last [`reset_peak`], in MiB.
#[must_use]
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        reset_peak();
        let block = vec![1u8; 8 << 20];
        assert!(peak_mb() >= 8.0);
        drop(std::hint::black_box(block));
    }
}
