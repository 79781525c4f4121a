//! Proves the per-instruction simulation path performs zero heap
//! allocations: the total allocation count of a warmed-up run must be
//! independent of the dynamic trace length.
//!
//! The binary installs a counting global allocator and compares an
//! N-instruction run against a 2N-instruction run of the same compressed
//! workload, as a replay of a materialized trace and on the fused path
//! (`run_source` over a `StreamingExpander`), both over a private
//! expansion and over a shared `Keystream` as every evaluation reads it.
//! Any per-instruction allocation — a `Vec` per prefetch observation, a
//! clone per static lookup, a `HashMap` rehash per access, a growing
//! re-use history, a new window per keystream refill — would make the 2N
//! count strictly larger.  The file holds exactly one test so no
//! concurrent test can pollute the counter.

use micrograd_codegen::{Generator, GeneratorInput, Keystream, StreamingExpander, TraceExpander};
use micrograd_sim::{CoreConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator after
// bumping a relaxed counter, so `GlobalAlloc`'s layout/aliasing contract
// holds exactly as it does for `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `Layout` and pointer obligations are forwarded
    // unchanged to `System`, which imposes the same contract this trait
    // declares (likewise for the other three methods below).
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
fn run_allocation_count_is_independent_of_trace_length() {
    let input = GeneratorInput {
        loop_size: 200,
        seed: 17,
        mem_footprint_kb: 1024,
        mem_temporal_period: 3,
        branch_randomness: 0.3,
        ..GeneratorInput::default()
    };
    let compressed = Generator::new().generate(&input).unwrap();
    let short = TraceExpander::new(100_000, 17).expand(&compressed);
    let long = TraceExpander::new(200_000, 17).expand(&compressed);

    for config in [CoreConfig::small(), CoreConfig::large()] {
        let mut sim = Simulator::new(config);
        // Warm up: grow the decoded-instruction table, the prefetch scratch
        // and every ring to their steady-state capacities.
        let warm_short = sim.run(&short);
        let warm_long = sim.run(&long);

        let mut stats_short = None;
        let short_allocs = allocations_during(|| {
            stats_short = Some(sim.run(&short));
        });
        let mut stats_long = None;
        let long_allocs = allocations_during(|| {
            stats_long = Some(sim.run(&long));
        });

        // Reuse must not change results...
        assert_eq!(stats_short.unwrap(), warm_short);
        assert_eq!(stats_long.unwrap(), warm_long);
        // ...and doubling the instruction count must not change the
        // allocation count: every remaining allocation is per-run constant,
        // not per-instruction.
        assert_eq!(
            short_allocs, long_allocs,
            "per-instruction path allocated: {short_allocs} allocs for 100k \
             instructions vs {long_allocs} for 200k"
        );
        assert!(
            short_allocs < 64,
            "per-run constant allocation count unexpectedly high: {short_allocs}"
        );

        // The fused path: expander construction allocates per run (step
        // table, stream slots, re-use rings), the retire loop never does.
        let fused = |sim: &mut Simulator, len: usize| {
            let mut stats = None;
            let allocs = allocations_during(|| {
                let mut source = StreamingExpander::new(&compressed, len, 17);
                stats = Some(sim.run_source(&mut source));
            });
            (allocs, stats.unwrap())
        };
        let (fused_short_allocs, fused_short) = fused(&mut sim, 100_000);
        let (fused_long_allocs, fused_long) = fused(&mut sim, 200_000);
        assert_eq!(fused_short, warm_short, "fused run diverged from replay");
        assert_eq!(fused_long, warm_long, "fused run diverged from replay");
        assert_eq!(
            fused_short_allocs, fused_long_allocs,
            "fused path allocated per instruction: {fused_short_allocs} allocs for \
             100k instructions vs {fused_long_allocs} for 200k"
        );

        // The same over the platform's shared keystream (its 2^18-word
        // prefix is built outside the counted region, as a platform builds
        // it once).  This input draws about 1.76 words per instruction, so
        // the 100k run stays inside the prefix while the 200k and 400k runs
        // read past it from the window the expander computes.
        let shared = |sim: &mut Simulator, len: usize| {
            let keystream = Arc::new(Keystream::new(17, len));
            let mut stats = None;
            let allocs = allocations_during(|| {
                let mut source =
                    StreamingExpander::from_keystream(compressed.clone(), len, &keystream);
                stats = Some(sim.run_source(&mut source));
            });
            (allocs, stats.unwrap())
        };
        let (shared_short_allocs, shared_short) = shared(&mut sim, 100_000);
        let (shared_long_allocs, shared_long) = shared(&mut sim, 200_000);
        let (shared_longer_allocs, shared_longer) = shared(&mut sim, 400_000);
        assert_eq!(shared_short, warm_short, "shared run diverged from replay");
        assert_eq!(shared_long, warm_long, "shared run diverged from replay");
        assert_eq!(
            shared_longer,
            fused(&mut sim, 400_000).1,
            "shared run diverged from the private one"
        );
        // Reading past the prefix allocates the window once, its words and
        // their `Arc`; every later refill reuses it.
        assert_eq!(
            shared_long_allocs,
            shared_short_allocs + 2,
            "a run past the prefix allocated more than its window"
        );
        assert_eq!(
            shared_long_allocs, shared_longer_allocs,
            "shared path allocated per instruction or per refill: \
             {shared_long_allocs} allocs for 200k instructions vs \
             {shared_longer_allocs} for 400k"
        );
    }
}
