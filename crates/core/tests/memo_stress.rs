//! Seeded multi-thread stress tests for the [`MemoTable`].
//!
//! Writers and readers hammer one shared table with ChaCha8-derived key
//! streams drawn from a small id universe, so fingerprints collide inside
//! probe windows and replace-on-collision actually fires.  The invariant
//! under test is verify-on-hit: a `get` may miss (entries are displaced
//! under contention), but every hit must return the exact value that was
//! inserted for that key — never a torn entry, never another key's value.
//! A second case lets writers grow a table from 1,024 slots while readers
//! probe it: growth may lose no entry it does not count as displaced.

use micrograd_core::memo::MemoTable;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Id universe deliberately larger than the table so displacement occurs.
const IDS: u64 = 4_096;
const OPS_PER_THREAD: usize = 20_000;
const WRITERS: u64 = 4;
const READERS: u64 = 4;

/// A fat key: equality of all three limbs proves the entry is untorn.
fn key(id: u64) -> [u64; 3] {
    [id, id.wrapping_mul(0x9e37_79b9_7f4a_7c15), !id]
}

/// Compressed fingerprint: many ids share one (verify-on-hit must tell
/// them apart), and there are more distinct fingerprints than table
/// slots, so full probe windows and replace-on-collision actually occur.
fn fingerprint(id: u64) -> u64 {
    id % 509
}

/// The value an entry for `id` must carry.
fn value(id: u64) -> u64 {
    id.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xdead_beef
}

#[test]
fn concurrent_writers_and_readers_never_observe_torn_entries() {
    let table: Arc<MemoTable<[u64; 3], u64>> = Arc::new(MemoTable::new(256));
    let mut threads = Vec::new();

    for t in 0..WRITERS {
        let table = Arc::clone(&table);
        threads.push(std::thread::spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(0xC0FF_EE00 + t);
            for _ in 0..OPS_PER_THREAD {
                let id = rng.gen_range(0..IDS);
                if rng.gen_bool(0.25) {
                    // Warm-start import path: must be idempotent.
                    let _ = table.insert_if_absent(fingerprint(id), key(id), value(id));
                } else {
                    table.insert(fingerprint(id), key(id), value(id));
                }
            }
        }));
    }

    for t in 0..READERS {
        let table = Arc::clone(&table);
        threads.push(std::thread::spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(0xBAD_5EED + t);
            for _ in 0..OPS_PER_THREAD {
                let id = rng.gen_range(0..IDS);
                if let Some(&got) = table.get(fingerprint(id), &key(id)) {
                    assert_eq!(
                        got,
                        value(id),
                        "hit for id {id} returned another entry's value"
                    );
                }
            }
        }));
    }

    for thread in threads {
        thread.join().expect("stress thread panicked");
    }

    // Post-quiescence sweep: every surviving entry still verifies, and the
    // table respects its capacity bound.
    let mut survivors = 0u64;
    for id in 0..IDS {
        if let Some(&got) = table.get(fingerprint(id), &key(id)) {
            assert_eq!(got, value(id), "survivor for id {id} is inconsistent");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "at least some entries must survive");
    assert!(table.len() <= table.capacity());
    assert!(
        table.replacements() > 0,
        "the compressed fingerprint space must have forced displacement"
    );
}

#[test]
fn identical_seeds_produce_identical_single_thread_histories() {
    // Determinism cross-check: the same seeded op stream applied to two
    // tables leaves them answering identically for every id.
    let run = || {
        let table: MemoTable<[u64; 3], u64> = MemoTable::new(256);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            let id = rng.gen_range(0..IDS);
            table.insert(fingerprint(id), key(id), value(id));
        }
        (0..IDS)
            .map(|id| table.get(fingerprint(id), &key(id)).copied())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Distinct ids the growth case inserts, and its table's ceiling.
const GROWTH_IDS: u64 = 8_192;
const CEILING: usize = 1 << 16;

/// A well-spread fingerprint: the splitmix64 finalizer of `id`.
fn spread(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn readers_verify_every_hit_while_writers_grow_the_table() {
    let table: Arc<MemoTable<[u64; 3], u64>> = Arc::new(MemoTable::new(CEILING));
    assert_eq!(
        table.capacity(),
        1024,
        "a 64 Ki ceiling starts at 1,024 slots"
    );
    let writing = Arc::new(AtomicBool::new(true));

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for id in (t..GROWTH_IDS).step_by(WRITERS as usize) {
                    table.insert(spread(id), key(id), value(id));
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let writing = Arc::clone(&writing);
            std::thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(0x6_2077 + t);
                let mut hits = 0u64;
                while writing.load(Ordering::Relaxed) {
                    let id = rng.gen_range(0..GROWTH_IDS);
                    if let Some(&got) = table.get(spread(id), &key(id)) {
                        assert_eq!(got, value(id), "hit for id {id} returned another value");
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();

    for writer in writers {
        writer.join().expect("writer panicked");
    }
    writing.store(false, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }

    assert!(table.len() <= table.capacity());
    assert!(table.capacity() <= CEILING);
    assert!(
        table.capacity() >= 1 << 15,
        "8,192 entries grow the table to at least 32 Ki slots, not {}",
        table.capacity()
    );
    let found = (0..GROWTH_IDS)
        .filter(|&id| {
            table.get(spread(id), &key(id)).is_some_and(|&got| {
                assert_eq!(got, value(id), "survivor for id {id} is inconsistent");
                true
            })
        })
        .count() as u64;
    assert!(
        found >= GROWTH_IDS - table.replacements(),
        "found {found} of {GROWTH_IDS} ids with {} replacements",
        table.replacements()
    );
}
