//! Bounds the heap a cache-dump append holds: `append_cache` of 1,000
//! memoized evaluations may raise the live heap by at most twice the
//! bytes of the chunk it writes.
//!
//! The binary installs a counting global allocator that tracks live and
//! peak bytes.  A writer that builds a value tree of the whole chunk before
//! rendering it holds several times the chunk's text; one that renders
//! entry by entry into a buffer sized for the chunk holds the text plus
//! one entry's tree.  The file holds exactly one test so no concurrent
//! test can pollute the counters.

use micrograd_codegen::GeneratorInput;
use micrograd_core::{MetricKind, Metrics};
use micrograd_service::ResultStore;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
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
    // (likewise for the other methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for, passed through.
        let ptr = unsafe { System.alloc(layout) };
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

/// `n` evaluations shaped like a tuning run's: random knob weights and a
/// full metric vector of full-precision values.
fn evaluations(n: usize) -> Vec<(GeneratorInput, Metrics)> {
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    (0..n)
        .map(|i| {
            let mut input = GeneratorInput {
                loop_size: 300,
                reg_dependency_distance: rng.gen_range(1..=10),
                branch_randomness: rng.gen_range(0.0..1.0),
                seed: i as u64,
                ..GeneratorInput::default()
            };
            for weight in input.instr_weights.values_mut() {
                *weight = f64::from(rng.gen_range(0..=10u32));
            }
            let metrics = MetricKind::ALL.iter().fold(Metrics::new(), |m, &kind| {
                m.with(kind, rng.gen_range(0.0..4.0))
            });
            (input, metrics)
        })
        .collect()
}

#[test]
fn appending_a_chunk_holds_at_most_twice_its_bytes() {
    let dir = std::env::temp_dir().join(format!("micrograd-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let entries = evaluations(1_000);
    let pairs: Vec<(&GeneratorInput, &Metrics)> = entries.iter().map(|(i, m)| (i, m)).collect();

    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    store
        .append_cache("large:25000:1", pairs)
        .expect("chunk lands");
    let held = PEAK.load(Ordering::Relaxed) - live;

    let chunk = std::fs::read_dir(&dir)
        .expect("store lists")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("cache-"))
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len() as usize);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(chunk > 500_000, "a realistic chunk: {chunk} bytes");
    assert!(
        held <= 2 * chunk,
        "appending a {chunk}-byte chunk held {held} heap bytes ({:.2}x)",
        held as f64 / chunk as f64
    );
}
