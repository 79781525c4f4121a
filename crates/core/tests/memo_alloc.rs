//! Bounds what a resident memo entry and the memo table hold, and proves
//! a memo hit allocates nothing.
//!
//! The binary installs a counting global allocator that tracks live bytes,
//! their peak, live blocks and allocation calls; a `realloc` counts by the
//! bytes it adds or frees.  Importing one evaluation into a platform whose
//! table is already allocated, and below its first growth, leaves exactly
//! that entry behind: for resolved full-space inputs it must hold at most
//! 200 bytes in at most two blocks (the entry and its packed key).
//! Evaluating an input whose result is resident must make no allocation at
//! all.  The table's slots grow with its entries, so 5,000 imports leave
//! 256 KiB of slots beside them, half its 64 Ki-slot ceiling.  A growth
//! doubles the slot array in place, so no import raises the peak by as
//! much as the doubled array: the 16 Ki -> 32 Ki doubling adds 128 KiB of
//! slots and 32 KiB of resident pointers held while they are re-placed.
//! The file holds exactly one test so no concurrent test can pollute the
//! counters.

use micrograd_codegen::GeneratorInput;
use micrograd_core::{ExecutionPlatform, KnobSpace, MetricKind, Metrics, SimPlatform};
use micrograd_sim::CoreConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn add_live(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

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
            add_live(layout.size());
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
            if new_size >= layout.size() {
                add_live(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// What `f` leaves behind and what it held at most.
struct Footprint {
    /// Live bytes left behind.
    bytes: usize,
    /// Live blocks left behind.
    blocks: usize,
    /// Allocation calls made.
    calls: usize,
    /// The most live bytes held above the start.
    peak: usize,
}

fn footprint(f: impl FnOnce()) -> Footprint {
    let bytes = LIVE_BYTES.load(Ordering::Relaxed);
    let blocks = LIVE_BLOCKS.load(Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    PEAK_BYTES.store(bytes, Ordering::Relaxed);
    f();
    Footprint {
        bytes: LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        blocks: LIVE_BLOCKS.load(Ordering::Relaxed) - blocks,
        calls: CALLS.load(Ordering::Relaxed) - calls,
        peak: PEAK_BYTES.load(Ordering::Relaxed) - bytes,
    }
}

#[test]
fn a_resident_entry_is_small_and_a_hit_allocates_nothing() {
    let mut space = KnobSpace::full();
    space.loop_size = 300;
    let platform = SimPlatform::new(CoreConfig::large()).with_dynamic_len(2_000);
    // Allocates the platform's table, so an import adds only its entry.
    let mut table_bytes = footprint(|| assert_eq!(platform.cached_evaluations(), 0)).bytes;

    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let metrics = MetricKind::ALL.iter().fold(Metrics::new(), |m, &kind| {
        m.with(kind, rng.gen_range(0.0..4.0))
    });
    // What one import adds and holds at most; the copy imported is made
    // and freed inside the window.  No import, growths included, may
    // raise the peak by 192 KiB: a growth that allocated the doubled
    // array beside the old one would.
    let import = |input: &GeneratorInput| {
        let import = footprint(|| {
            assert_eq!(platform.import_cache([(input.clone(), metrics.clone())]), 1);
        });
        assert!(
            import.peak < 192 << 10,
            "an import raised the peak by {} bytes",
            import.peak
        );
        import
    };
    let mut inputs = Vec::new();
    for seed in 0..200 {
        let input = space.resolve(&space.random_config(&mut rng), seed).unwrap();
        let Footprint { bytes, blocks, .. } = import(&input);
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
        let calls = footprint(|| {
            platform.evaluate(input).unwrap();
        })
        .calls;
        assert_eq!(calls, 0, "a memo hit allocated");
    }
    assert_eq!(platform.evaluate(&computed), Ok(metrics.clone()));
    assert_eq!(platform.cache_stats().hits, 202);

    // The same platform to 5,000 imports: the slot array has doubled to
    // 32 Ki slots, and a hit still allocates nothing.
    for seed in 200..5_000 {
        let input = space.resolve(&space.random_config(&mut rng), seed).unwrap();
        table_bytes += import(&input).bytes;
    }
    assert_eq!(platform.cache_stats().capacity, 1 << 15);
    assert!(
        table_bytes < 5_000 * 200 + (256 << 10),
        "the table holds {table_bytes} bytes after 5,000 imports"
    );
    let calls = footprint(|| {
        platform.evaluate(&computed).unwrap();
    })
    .calls;
    assert_eq!(calls, 0, "a memo hit in the grown table allocated");
}
