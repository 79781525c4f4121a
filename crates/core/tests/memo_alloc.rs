//! Bounds what a resident memo entry and the memo table hold, and proves
//! a memo hit allocates nothing.
//!
//! The binary installs a counting global allocator that tracks live bytes,
//! live blocks and allocation calls.  Importing one evaluation into a
//! platform whose table is already allocated, and below its first growth,
//! leaves exactly that entry behind: for resolved full-space inputs it
//! must hold at most 200 bytes in at most two blocks (the entry and its
//! packed key).  Evaluating an input whose result is resident must make no
//! allocation at all.  The table's slots grow with its entries, so 5,000
//! imports leave 256 KiB of slots beside them, half its 64 Ki-slot
//! ceiling.  The file holds exactly one test so no concurrent test can
//! pollute the counters.

use micrograd_codegen::GeneratorInput;
use micrograd_core::{ExecutionPlatform, KnobSpace, MetricKind, Metrics, SimPlatform};
use micrograd_sim::CoreConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator and
// only updates relaxed counters around it, so `GlobalAlloc`'s
// layout/aliasing contract holds exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `Layout` obligations are forwarded unchanged to
    // `System`, which imposes the same contract this trait declares
    // (likewise for the other methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `ptr` was returned by this allocator, which is `System`
    // memory with the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pointer and layout forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }

    // SAFETY: `ptr`/`layout` obligations forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pointer, layout and size forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The live bytes and blocks `f` leaves behind, and its allocation calls.
fn footprint(f: impl FnOnce()) -> (usize, usize, usize) {
    let bytes = LIVE_BYTES.load(Ordering::Relaxed);
    let blocks = LIVE_BLOCKS.load(Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    f();
    (
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        LIVE_BLOCKS.load(Ordering::Relaxed) - blocks,
        CALLS.load(Ordering::Relaxed) - calls,
    )
}

#[test]
fn a_resident_entry_is_small_and_a_hit_allocates_nothing() {
    let mut space = KnobSpace::full();
    space.loop_size = 300;
    let platform = SimPlatform::new(CoreConfig::large()).with_dynamic_len(2_000);
    // Allocates the platform's table, so an import adds only its entry.
    let (mut table_bytes, _, _) = footprint(|| assert_eq!(platform.cached_evaluations(), 0));

    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let metrics = MetricKind::ALL.iter().fold(Metrics::new(), |m, &kind| {
        m.with(kind, rng.gen_range(0.0..4.0))
    });
    // The live bytes one import adds; the copy imported is made and freed
    // inside the window.
    let import = |input: &GeneratorInput| {
        footprint(|| {
            assert_eq!(platform.import_cache([(input.clone(), metrics.clone())]), 1);
        })
    };
    let mut inputs = Vec::new();
    for seed in 0..200 {
        let input = space.resolve(&space.random_config(&mut rng), seed).unwrap();
        let (bytes, blocks, _) = import(&input);
        assert!(
            bytes <= 200 && blocks <= 2,
            "one resident entry holds {bytes} bytes in {blocks} blocks"
        );
        table_bytes += bytes;
        inputs.push(input);
    }

    // Imported entries and computed ones answer without allocating.
    let computed = space
        .resolve(&space.random_config(&mut rng), 7)
        .expect("a full-space configuration resolves");
    let metrics = platform.evaluate(&computed).unwrap();
    for input in inputs.iter().chain([&computed]) {
        let (_, _, calls) = footprint(|| {
            platform.evaluate(input).unwrap();
        });
        assert_eq!(calls, 0, "a memo hit allocated");
    }
    assert_eq!(platform.evaluate(&computed), Ok(metrics.clone()));
    assert_eq!(platform.cache_stats().hits, 202);

    // The same platform to 5,000 imports: the slot array has doubled to
    // 32 Ki slots, and a hit still allocates nothing.
    for seed in 200..5_000 {
        let input = space.resolve(&space.random_config(&mut rng), seed).unwrap();
        table_bytes += import(&input).0;
    }
    assert_eq!(platform.cache_stats().capacity, 1 << 15);
    assert!(
        table_bytes < 5_000 * 200 + (256 << 10),
        "the table holds {table_bytes} bytes after 5,000 imports"
    );
    let (_, _, calls) = footprint(|| {
        platform.evaluate(&computed).unwrap();
    });
    assert_eq!(calls, 0, "a memo hit in the grown table allocated");
}
