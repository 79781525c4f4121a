//! A lock-free, fixed-capacity memoization table.
//!
//! This is the concurrency core of [`SimPlatform`](crate::SimPlatform)'s
//! evaluation cache.  The previous design sharded a `Mutex<HashMap>` 16
//! ways; under a batch worker pool every lookup still serialized on a shard
//! lock, and every insert could rehash while other workers waited.  The
//! table here is the transposition-table idiom from game-tree searchers: a
//! power-of-two array of atomic entry pointers, indexed by a 64-bit
//! fingerprint, probed over a short window, with *replace-on-collision* and
//! *verify-on-hit*.
//!
//! # Design
//!
//! * **Buckets** are `AtomicPtr<Entry>`; an entry owns the full key (for
//!   verification) and the value.  Readers never lock: a lookup is a handful
//!   of `Acquire` loads.
//! * **Probing**: an entry for fingerprint `fp` lives in one of the
//!   `PROBE_WINDOW` (8) slots starting at `fp & mask`.  The window absorbs
//!   near-collisions without displacement.
//! * **Replace-on-collision**: when the window is full, the incoming entry
//!   *replaces* the window's home slot (counted in
//!   [`replacements`](MemoTable::replacements)).  The table therefore never
//!   grows, never rehashes and never blocks — at the cost of possibly
//!   forgetting an old entry, which for a memo cache is always safe
//!   (recompute).
//! * **Verify-on-hit**: [`get`](MemoTable::get) compares the *full key*,
//!   not just the fingerprint, so a 64-bit collision degrades to a miss
//!   (recomputation) instead of wrong data.  The probe need not be a `K`:
//!   any `Q` the key compares with (`K: PartialEq<Q>`) will do, so a table
//!   can store a compact form of the key and be probed with the full one.
//! * **Reclamation**: displaced entries are pushed onto a retirement list
//!   and freed only by [`reclaim`](MemoTable::reclaim) or when the table is
//!   dropped.  Readers can therefore hold `&V` borrows of entries without
//!   epochs or hazard pointers: no entry is freed while any `&MemoTable`
//!   borrow is alive, because both take the table exclusively.  A
//!   long-lived table shared through an `Arc` reclaims whenever its owner
//!   holds the only handle (`Arc::get_mut`), so displaced entries do not
//!   pile up across its users.
//! * **Insertion marks**: every entry is stamped with the table's running
//!   insert count.  [`mark`](MemoTable::mark) reads the count and
//!   [`iter_since`](MemoTable::iter_since) borrows the entries stamped at
//!   or after it, so a user of a shared table can persist just the entries
//!   that appeared while it ran, without copying them.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Slots probed per fingerprint before replacing the home slot.
const PROBE_WINDOW: usize = 8;

struct Entry<K, V> {
    fingerprint: u64,
    /// The table's insert count when the entry was created.
    mark: u64,
    key: K,
    value: V,
}

/// A lock-free fingerprint-indexed memo table with verify-on-hit.
///
/// `K` is the key stored for hit verification; `V` the memoized value.
/// All operations but [`reclaim`](Self::reclaim) take `&self` and are safe
/// to call from any number of threads concurrently.
pub struct MemoTable<K, V> {
    buckets: Box<[AtomicPtr<Entry<K, V>>]>,
    mask: u64,
    occupied: AtomicU64,
    replacements: AtomicU64,
    /// The mark the next entry gets (see [`mark`](Self::mark)).
    next_mark: AtomicU64,
    /// Entries displaced by replacements; freed by `reclaim` or on drop
    /// (see module docs).
    retired: Mutex<Vec<*mut Entry<K, V>>>,
}

// SAFETY: the raw pointers in `buckets` / `retired` all point to
// `Box`-allocated entries owned by this table; entries are immutable after
// publication and freed only through `&mut self` (`reclaim`, `drop`).
// Sharing the table across threads is therefore sound whenever the payload
// types themselves are shareable, which the `K: Send + Sync, V: Send +
// Sync` bounds require.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for MemoTable<K, V> {}
// SAFETY: as above — `&MemoTable` only exposes immutable published entries
// and atomics, so concurrent shared access needs nothing beyond the bounds.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for MemoTable<K, V> {}

impl<K, V> MemoTable<K, V> {
    /// Creates a table with at least `capacity` slots (rounded up to a
    /// power of two, minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let buckets: Box<[AtomicPtr<Entry<K, V>>]> = (0..capacity)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        MemoTable {
            buckets,
            mask: capacity as u64 - 1,
            occupied: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            next_mark: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Number of live entries.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn len(&self) -> usize {
        self.occupied.load(Ordering::Relaxed) as usize
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries displaced by replace-on-collision so far.
    #[must_use]
    pub fn replacements(&self) -> u64 {
        self.replacements.load(Ordering::Relaxed)
    }

    /// The insertion mark: every entry inserted from now on — by
    /// [`insert`](Self::insert) or [`insert_if_absent`](Self::insert_if_absent)
    /// — is walked by [`iter_since`](Self::iter_since) with this mark.
    ///
    /// The count guards no data, so `Relaxed` suffices: an insert that
    /// happens after this call (in program order, or in a thread spawned
    /// after it) reads a count at least this one.
    #[must_use]
    pub fn mark(&self) -> u64 {
        self.next_mark.load(Ordering::Relaxed)
    }

    /// Probe window size for this table (bounded by the capacity).
    fn window(&self) -> usize {
        PROBE_WINDOW.min(self.buckets.len())
    }

    #[allow(clippy::cast_possible_truncation)]
    fn slot(&self, fingerprint: u64, probe: usize) -> usize {
        ((fingerprint.wrapping_add(probe as u64)) & self.mask) as usize
    }

    /// Looks up `fingerprint`, verifying the stored key against `key`.
    ///
    /// Returns a borrow of the memoized value.  A fingerprint match whose
    /// key differs (a 64-bit collision) is reported as a miss.
    #[must_use]
    pub fn get<Q: ?Sized>(&self, fingerprint: u64, key: &Q) -> Option<&V>
    where
        K: PartialEq<Q>,
    {
        for probe in 0..self.window() {
            let ptr = self.buckets[self.slot(fingerprint, probe)].load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            // SAFETY: non-null bucket pointers reference live boxed entries;
            // entries are only freed through `&mut self`, which cannot
            // coexist with this `&self` borrow.
            let entry = unsafe { &*ptr };
            if entry.fingerprint == fingerprint && entry.key == *key {
                return Some(&entry.value);
            }
        }
        None
    }

    /// A new unpublished entry, stamped with the next insertion mark.
    fn new_entry(&self, fingerprint: u64, key: K, value: V) -> *mut Entry<K, V> {
        Box::into_raw(Box::new(Entry {
            fingerprint,
            mark: self.next_mark.fetch_add(1, Ordering::Relaxed),
            key,
            value,
        }))
    }

    /// Inserts (or overwrites) the entry for `fingerprint`, and returns
    /// whether a resident entry of another fingerprint was displaced.
    ///
    /// Placement: an existing same-fingerprint entry in the probe window is
    /// replaced in place; otherwise the first empty slot is claimed;
    /// otherwise the window's home slot is sacrificed (replace-on-collision,
    /// counted in [`replacements`](Self::replacements)).
    pub fn insert(&self, fingerprint: u64, key: K, value: V) -> bool {
        let entry = self.new_entry(fingerprint, key, value);
        // Pass 1: same-fingerprint entry → replace in place.  Buckets are
        // never cleared outside `drop`, so a non-null load stays non-null;
        // the swapped-out entry may differ from the loaded one under a
        // racing insert, which is fine — it is retired either way.
        for probe in 0..self.window() {
            let bucket = &self.buckets[self.slot(fingerprint, probe)];
            let current = bucket.load(Ordering::Acquire);
            if current.is_null() {
                continue;
            }
            // SAFETY: see `get`.
            if unsafe { &*current }.fingerprint == fingerprint {
                let prev = bucket.swap(entry, Ordering::AcqRel);
                debug_assert!(!prev.is_null());
                self.retire(prev);
                return false;
            }
        }
        // Pass 2: first empty slot.
        for probe in 0..self.window() {
            let bucket = &self.buckets[self.slot(fingerprint, probe)];
            if bucket
                .compare_exchange(
                    std::ptr::null_mut(),
                    entry,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        // Window full and no fingerprint match: sacrifice the home slot.
        let prev = self.buckets[self.slot(fingerprint, 0)].swap(entry, Ordering::AcqRel);
        debug_assert!(!prev.is_null());
        self.retire(prev);
        self.replacements.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Inserts only when no entry with this fingerprint is resident;
    /// returns whether an insert happened.
    ///
    /// This is the warm-start import path: re-importing a dump must be
    /// idempotent and must never displace fresher results.
    pub fn insert_if_absent(&self, fingerprint: u64, key: K, value: V) -> bool {
        for probe in 0..self.window() {
            let ptr = self.buckets[self.slot(fingerprint, probe)].load(Ordering::Acquire);
            // SAFETY: see `get`.
            if !ptr.is_null() && unsafe { &*ptr }.fingerprint == fingerprint {
                return false;
            }
        }
        // Claim an empty slot; if the window is full, decline rather than
        // displace (imports are advisory, computed results are not).
        let entry = self.new_entry(fingerprint, key, value);
        for probe in 0..self.window() {
            let bucket = &self.buckets[self.slot(fingerprint, probe)];
            if bucket
                .compare_exchange(
                    std::ptr::null_mut(),
                    entry,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        // SAFETY: `entry` was never published; reclaim it.
        drop(unsafe { Box::from_raw(entry) });
        false
    }

    /// Borrows the live entries inserted at or after `mark` (see
    /// [`mark`](Self::mark)), imports included, as `(fingerprint, key,
    /// value)` in bucket order.  Entries other threads insert meanwhile may
    /// or may not be included.
    pub fn iter_since(&self, mark: u64) -> impl Iterator<Item = (u64, &K, &V)> {
        self.buckets.iter().filter_map(move |bucket| {
            let ptr = bucket.load(Ordering::Acquire);
            if ptr.is_null() {
                return None;
            }
            // SAFETY: see `get`; the borrows live no longer than `&self`.
            let entry = unsafe { &*ptr };
            (entry.mark >= mark).then_some((entry.fingerprint, &entry.key, &entry.value))
        })
    }

    fn retire(&self, ptr: *mut Entry<K, V>) {
        self.retired.lock().push(ptr);
    }

    /// Frees every entry displaced so far.  Resident entries stay.
    pub fn reclaim(&mut self) {
        for ptr in self.retired.get_mut().drain(..) {
            // SAFETY: exclusive access (`&mut self`), so no borrow of a
            // retired entry is alive; retired pointers were displaced from
            // buckets exactly once and never freed before.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

impl<K, V> Drop for MemoTable<K, V> {
    fn drop(&mut self) {
        // Exclusive access: plain reads.  An atomic swap per bucket made
        // dropping a large, mostly empty table cost a dozen times more.
        for bucket in &mut self.buckets {
            let ptr = *bucket.get_mut();
            if !ptr.is_null() {
                // SAFETY: exclusive access (`&mut self`); each live bucket
                // pointer is a unique boxed allocation, freed only here.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
        self.reclaim();
    }
}

impl<K, V> std::fmt::Debug for MemoTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoTable")
            .field("capacity", &self.buckets.len())
            .field("len", &self.occupied.load(Ordering::Relaxed))
            .field("replacements", &self.replacements.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(MemoTable::<u64, u64>::new(0).capacity(), 1);
        assert_eq!(MemoTable::<u64, u64>::new(1).capacity(), 1);
        assert_eq!(MemoTable::<u64, u64>::new(3).capacity(), 4);
        assert_eq!(MemoTable::<u64, u64>::new(1000).capacity(), 1024);
    }

    #[test]
    fn insert_then_get_round_trips() {
        let t: MemoTable<String, u32> = MemoTable::new(64);
        assert!(t.is_empty());
        t.insert(7, "seven".into(), 77);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7, &"seven".to_string()), Some(&77));
        assert_eq!(t.get(7, &"eight".to_string()), None, "verify-on-hit");
        assert_eq!(t.get(8, &"seven".to_string()), None);
    }

    #[test]
    fn same_fingerprint_reinsert_replaces_in_place() {
        let t: MemoTable<String, u32> = MemoTable::new(64);
        t.insert(7, "a".into(), 1);
        t.insert(7, "b".into(), 2);
        assert_eq!(t.len(), 1, "in-place replace does not grow the table");
        assert_eq!(t.get(7, &"a".to_string()), None);
        assert_eq!(t.get(7, &"b".to_string()), Some(&2));
    }

    #[test]
    fn collision_on_a_full_window_replaces_and_counts() {
        // Capacity 1 → every fingerprint shares the single slot.
        let t: MemoTable<u64, u64> = MemoTable::new(1);
        t.insert(10, 10, 100);
        assert_eq!(t.replacements(), 0);
        t.insert(11, 11, 110);
        assert_eq!(t.replacements(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(10, &10), None, "displaced entry is gone");
        assert_eq!(t.get(11, &11), Some(&110));
    }

    #[test]
    fn probe_window_absorbs_near_collisions() {
        // Distinct fingerprints that all collide modulo the capacity share
        // one home slot; the probe window keeps them resident without
        // displacing anything.
        let t: MemoTable<u64, u64> = MemoTable::new(8);
        for i in 0..4u64 {
            let fp = i * 8; // all map to slot 0 in an 8-slot table
            t.insert(fp, fp, fp + 1);
        }
        assert_eq!(t.replacements(), 0, "window absorbed the collisions");
        for i in 0..4u64 {
            let fp = i * 8;
            assert_eq!(t.get(fp, &fp), Some(&(fp + 1)));
        }
    }

    #[test]
    fn insert_if_absent_is_idempotent_and_never_displaces() {
        let t: MemoTable<u64, u64> = MemoTable::new(1);
        assert!(t.insert_if_absent(5, 5, 50));
        assert!(!t.insert_if_absent(5, 5, 51), "same fingerprint resident");
        assert_eq!(t.get(5, &5), Some(&50), "first value wins");
        assert!(
            !t.insert_if_absent(6, 6, 60),
            "full window declines instead of displacing"
        );
        assert_eq!(t.get(5, &5), Some(&50));
        assert_eq!(t.replacements(), 0);
    }

    #[test]
    fn iter_since_walks_exactly_the_entries_from_the_mark_on() {
        let t: MemoTable<u64, u64> = MemoTable::new(64);
        t.insert(1, 1, 10);
        assert!(t.insert_if_absent(2, 2, 20));
        let mark = t.mark();
        assert_eq!(t.iter_since(mark).count(), 0);
        t.insert(3, 3, 30);
        assert!(t.insert_if_absent(4, 4, 40), "imports are stamped too");
        assert!(
            !t.insert_if_absent(1, 1, 11),
            "a declined import adds nothing"
        );
        t.insert(2, 2, 21); // an in-place replace is a new entry
        let mut since: Vec<_> = t
            .iter_since(mark)
            .map(|(fp, &key, &value)| (fp, key, value))
            .collect();
        since.sort_unstable();
        assert_eq!(since, vec![(2, 2, 21), (3, 3, 30), (4, 4, 40)]);
        assert_eq!(t.iter_since(0).count(), 4);
        assert_eq!(t.iter_since(t.mark()).count(), 0);
    }

    #[test]
    fn reclaim_frees_displaced_entries_and_keeps_resident_ones() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        struct Counted(u64, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        // Capacity 1: every insert displaces the previous entry.
        let mut t: MemoTable<u64, Counted> = MemoTable::new(1);
        for fp in 0..5u64 {
            t.insert(fp, fp, Counted(fp, Arc::clone(&drops)));
        }
        assert_eq!(t.replacements(), 4);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "retired, not yet freed");
        t.reclaim();
        assert_eq!(drops.load(Ordering::SeqCst), 4, "every displaced entry");
        assert_eq!(
            t.get(4, &4).map(|v| v.0),
            Some(4),
            "resident stays readable"
        );
        t.reclaim();
        assert_eq!(drops.load(Ordering::SeqCst), 4, "nothing freed twice");
        drop(t);
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        // Many threads inserting and reading overlapping fingerprints in a
        // deliberately tiny table: every successful get must return the
        // value that was inserted under exactly that key.
        let t: MemoTable<u64, u64> = MemoTable::new(16);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for round in 0..1000u64 {
                        let fp = (worker * 31 + round) % 64;
                        t.insert(fp, fp, fp ^ 0xABCD);
                        for probe_fp in 0..8u64 {
                            if let Some(&v) = t.get(probe_fp, &probe_fp) {
                                assert_eq!(v, probe_fp ^ 0xABCD);
                            }
                        }
                    }
                });
            }
        });
        assert!(t.len() <= 16);
    }
}
