//! Bounds the allocations of code generation, and pins its output.
//!
//! The binary installs a counting global allocator.  `Generator::generate`
//! on a resolved full-space input (loop size 300) must make at most 100
//! allocation calls: an instruction keeps its source registers inline, so
//! the passes allocate nothing per instruction.  The generated test cases
//! must serialize, and print with `Debug`, exactly as they did when each
//! source list was a `Vec<Reg>`: FNV-1a digests of both outputs, recorded
//! from that representation, pin them.  The file holds exactly one test so
//! no concurrent test can pollute the counter.

use micrograd_codegen::Generator;
use micrograd_core::KnobSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator and
// only bumps a relaxed counter around it, so `GlobalAlloc`'s
// layout/aliasing contract holds exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `Layout` obligations are forwarded unchanged to
    // `System`, which imposes the same contract this trait declares
    // (likewise for the other methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` was returned by this allocator, which is `System`
    // memory with the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pointer and layout forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
    }

    // SAFETY: `ptr`/`layout` obligations forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pointer, layout and size forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generating_a_loop_makes_few_allocations_and_the_same_json() {
    let mut space = KnobSpace::full();
    space.loop_size = 300;
    let generator = Generator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut json_digest = 0xcbf2_9ce4_8422_2325;
    let mut debug_digest = 0xcbf2_9ce4_8422_2325;
    let mut most = 0;
    for seed in 0..20 {
        let input = space
            .resolve(&space.random_config(&mut rng), seed)
            .expect("a full-space configuration resolves");
        let before = CALLS.load(Ordering::Relaxed);
        let test_case = generator.generate(&input).expect("generate");
        let calls = CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(test_case.block().len(), 300);
        most = most.max(calls);
        let json = serde_json::to_string(&test_case).expect("serialize");
        json_digest = fnv1a(json_digest, json.as_bytes());
        debug_digest = fnv1a(debug_digest, format!("{test_case:?}").as_bytes());
    }
    assert!(most <= 100, "generate made {most} allocations");
    assert_eq!(json_digest, 0xa2de_4fee_5595_5a48, "JSON output changed");
    assert_eq!(debug_digest, 0x506f_17a5_abc6_4d4a, "Debug output changed");
}
