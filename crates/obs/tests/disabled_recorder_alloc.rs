//! Proves the registry's record paths are allocation-free: counter
//! increments, gauge sets and histogram records.
//!
//! The binary installs a counting global allocator (the same pattern as
//! `crates/sim/tests/alloc_free.rs`) and asserts a zero delta across the
//! hot paths.  The file holds exactly one test so no concurrent test can
//! pollute the counter.

use micrograd_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator after
// bumping a relaxed counter, so `GlobalAlloc`'s layout/aliasing contract
// holds exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `Layout` and pointer obligations are forwarded
    // unchanged to `System`, which imposes the same contract this trait
    // declares (likewise for the other methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` was returned by `alloc`/`realloc` above, which is
    // `System` memory with the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pointer and layout forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr`/`layout` obligations forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pointer, layout and size forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_record_paths_do_not_allocate() {
    // Construct everything up front: handles and the registry families.
    let registry = Registry::new();
    let counter = registry.counter("test_events_total", "events");
    let gauge = registry.gauge("test_depth", "depth");
    let histogram = registry.histogram("test_latency_us", "latency");

    // The steady-state record paths are allocation-free: histogram buckets
    // are a fixed array, counters and gauges are single atomics.
    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            counter.inc();
            gauge.set(i);
            histogram.record(i * 37);
        }
    });
    assert_eq!(allocs, 0, "a record path allocated");
    assert_eq!(counter.value(), 10_000);
    assert_eq!(histogram.count(), 10_000);
}
