//! A fingerprint-indexed memoization table that grows to a fixed ceiling.
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
//! * **Slots** are `AtomicPtr<Entry>`; an entry owns the full key (for
//!   verification) and the value.  Lookups and inserts share a read guard
//!   on the slot array and otherwise take no lock: a lookup is a handful
//!   of `Acquire` loads, an insert a compare-and-swap.
//! * **Probing**: an entry for fingerprint `fp` lives in one of the
//!   `PROBE_WINDOW` (8) slots starting at `fp & mask`.  The window absorbs
//!   near-collisions without displacement.
//! * **Growth**: the capacity a table is built with is its ceiling.  The
//!   array starts at 1,024 slots, or at the ceiling if that is smaller,
//!   and doubles whenever an insert would leave it more than a quarter
//!   full or finds its window full, until it reaches the ceiling.  Only
//!   doubling takes the write guard: it takes the resident entries out,
//!   grows the array with one `realloc` and re-places them by
//!   fingerprint, so the table never keeps the old array alive beside the
//!   doubled one.  Entries are never moved.
//! * **Replace-on-collision**: at the ceiling, when the window is full,
//!   the incoming entry *replaces* the window's home slot (counted in
//!   [`replacements`](MemoTable::replacements)).  The table therefore
//!   never grows past its ceiling — at the cost of possibly forgetting an
//!   old entry, which for a memo cache is always safe (recompute).
//! * **Verify-on-hit**: [`get`](MemoTable::get) compares the *full key*,
//!   not just the fingerprint, so a 64-bit collision degrades to a miss
//!   (recomputation) instead of wrong data.  The probe need not be a `K`:
//!   any `Q` the key compares with (`K: PartialEq<Q>`) will do, so a table
//!   can store a compact form of the key and be probed with the full one.
//! * **Reclamation**: displaced entries are pushed onto a retirement list
//!   and freed only by [`reclaim`](MemoTable::reclaim) or when the table is
//!   dropped.  Readers can therefore hold `&V` borrows of entries without
//!   epochs or hazard pointers: no entry is freed while any `&MemoTable`
//!   borrow is alive, because both take the table exclusively, and growth
//!   moves only the pointers, so a borrow outlives the guard it was found
//!   under.  A long-lived table shared through an `Arc` reclaims whenever
//!   its owner holds the only handle (`Arc::get_mut`), so displaced
//!   entries do not pile up across its users.
//! * **Insertion marks**: every entry is stamped with the table's running
//!   insert count.  [`mark`](MemoTable::mark) reads the count and
//!   [`iter_since`](MemoTable::iter_since) borrows the entries stamped at
//!   or after it, so a user of a shared table can persist just the entries
//!   that appeared while it ran, without copying them.  The iterator holds
//!   a read guard: a thread collects it before it calls into the table
//!   again, or an insert that grows the table would wait on it forever.

use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Slots probed per fingerprint before replacing the home slot.
const PROBE_WINDOW: usize = 8;

/// Slots a table starts with, unless its ceiling is smaller.
const INITIAL_SLOTS: usize = 1 << 10;

struct Entry<K, V> {
    fingerprint: u64,
    /// The table's insert count when the entry was created.
    mark: u64,
    key: K,
    value: V,
}

/// A power-of-two array of entry pointers.
type Slots<K, V> = Vec<AtomicPtr<Entry<K, V>>>;

/// A fingerprint-indexed memo table with verify-on-hit that grows to a
/// fixed ceiling.
///
/// `K` is the key stored for hit verification; `V` the memoized value.
/// All operations but [`reclaim`](Self::reclaim) take `&self` and are safe
/// to call from any number of threads concurrently.
pub struct MemoTable<K, V> {
    /// Doubled in place under the write guard (see module docs).
    slots: RwLock<Slots<K, V>>,
    /// The most slots the array grows to.
    ceiling: usize,
    occupied: AtomicU64,
    replacements: AtomicU64,
    /// The mark the next entry gets (see [`mark`](Self::mark)).
    next_mark: AtomicU64,
    /// Entries displaced by replacements; freed by `reclaim` or on drop
    /// (see module docs).
    retired: Mutex<Vec<*mut Entry<K, V>>>,
}

// SAFETY: the raw pointers in `slots` / `retired` all point to
// `Box`-allocated entries owned by this table; entries are immutable after
// publication and freed only through `&mut self` (`reclaim`, `drop`).
// Sharing the table across threads is therefore sound whenever the payload
// types themselves are shareable, which the `K: Send + Sync, V: Send +
// Sync` bounds require.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for MemoTable<K, V> {}
// SAFETY: as above — `&MemoTable` only exposes immutable published entries,
// atomics and locks, so concurrent shared access needs nothing beyond the
// bounds.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for MemoTable<K, V> {}

impl<K, V> MemoTable<K, V> {
    /// Creates a table that grows to at most `capacity` slots (rounded up
    /// to a power of two, minimum 1).  It starts at 1,024 slots, or at
    /// that ceiling if it is smaller.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let ceiling = capacity.max(1).next_power_of_two();
        MemoTable {
            slots: RwLock::new(
                std::iter::repeat_with(AtomicPtr::default)
                    .take(ceiling.min(INITIAL_SLOTS))
                    .collect(),
            ),
            ceiling,
            occupied: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            next_mark: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Number of slots now, at most the ceiling the table was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.read().len()
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

    /// Whether claiming a free slot of an array of `len` slots leaves it at
    /// most a quarter full; always true at the ceiling, where it no longer
    /// grows.
    fn has_room(&self, len: usize) -> bool {
        len == self.ceiling || (self.len() + 1) * 4 <= len
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
        let slots = self.slots.read();
        let hit = window(&slots, fingerprint).find_map(|slot| {
            // SAFETY: non-null slot pointers reference live boxed entries;
            // entries are only freed through `&mut self`, which cannot
            // coexist with this `&self` borrow, and growth moves only the
            // pointers, so the borrow may outlive the read guard.
            let entry = unsafe { slot.load(Ordering::Acquire).as_ref() }?;
            (entry.fingerprint == fingerprint && entry.key == *key).then_some(&entry.value)
        });
        hit
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
    /// replaced in place; otherwise the first empty slot is claimed, after
    /// doubling the array if the claim would leave it more than a quarter
    /// full or the window has none; at the ceiling, a full window's home
    /// slot is sacrificed (replace-on-collision, counted in
    /// [`replacements`](Self::replacements)).
    pub fn insert(&self, fingerprint: u64, key: K, value: V) -> bool {
        let entry = self.new_entry(fingerprint, key, value);
        loop {
            let slots = self.slots.read();
            // Slots are never cleared outside `drop`, so a non-null load
            // stays non-null; the swapped-out entry may differ from the
            // loaded one under a racing insert, which is fine — it is
            // retired either way.
            if let Some(slot) = window(&slots, fingerprint).find(|slot| holds(slot, fingerprint)) {
                let prev = slot.swap(entry, Ordering::AcqRel);
                debug_assert!(!prev.is_null());
                self.retire(prev);
                return false;
            }
            if self.has_room(slots.len()) && claim(&slots, fingerprint, entry) {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // A full window at the ceiling: sacrifice the home slot.
            if slots.len() == self.ceiling {
                let prev = slot(&slots, fingerprint, 0).swap(entry, Ordering::AcqRel);
                debug_assert!(!prev.is_null());
                self.retire(prev);
                self.replacements.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            let len = slots.len();
            drop(slots);
            self.grow(len);
        }
    }

    /// Inserts only when no entry with this fingerprint is resident;
    /// returns whether an insert happened.  It grows the array as
    /// [`insert`](Self::insert) does.
    ///
    /// This is the warm-start import path: re-importing a dump must be
    /// idempotent and must never displace fresher results.
    pub fn insert_if_absent(&self, fingerprint: u64, key: K, value: V) -> bool {
        let entry = self.new_entry(fingerprint, key, value);
        loop {
            let slots = self.slots.read();
            if window(&slots, fingerprint).any(|slot| holds(slot, fingerprint)) {
                break;
            }
            if self.has_room(slots.len()) && claim(&slots, fingerprint, entry) {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // A full window at the ceiling declines rather than displaces
            // (imports are advisory, computed results are not).
            if slots.len() == self.ceiling {
                break;
            }
            let len = slots.len();
            drop(slots);
            self.grow(len);
        }
        // SAFETY: `entry` was never published; reclaim it.
        drop(unsafe { Box::from_raw(entry) });
        false
    }

    /// Doubles the slot array from `len` slots in place, unless a racing
    /// insert already has, and re-places every resident entry by its
    /// fingerprint.
    #[cold]
    fn grow(&self, len: usize) {
        let mut slots = self.slots.write();
        if slots.len() != len {
            return;
        }
        debug_assert!(len < self.ceiling);
        // The write guard excludes every other use of the slots: plain
        // reads and writes.
        let resident: Vec<_> = slots
            .iter_mut()
            .map(|slot| std::mem::replace(slot.get_mut(), std::ptr::null_mut()))
            .filter(|ptr| !ptr.is_null())
            .collect();
        slots.resize_with(len * 2, AtomicPtr::default);
        for ptr in resident {
            // SAFETY: see `get`; the entry stays live and unmoved.
            let fingerprint = unsafe { (*ptr).fingerprint };
            // A full window in an array at most an eighth full needs eight
            // entries of neighbouring homes; the entry is then forgotten
            // as a displaced one is.
            if !claim(&slots, fingerprint, ptr) {
                self.retire(ptr);
                self.occupied.fetch_sub(1, Ordering::Relaxed);
                self.replacements.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Borrows the live entries inserted at or after `mark` (see
    /// [`mark`](Self::mark)), imports included, as `(fingerprint, key,
    /// value)` in slot order.  Entries other threads insert meanwhile may
    /// or may not be included.
    ///
    /// The iterator holds the table's read guard until it is dropped, so
    /// collect it before calling into the table again on the same thread:
    /// an insert that grows the table would wait on the guard forever.
    pub fn iter_since(&self, mark: u64) -> impl Iterator<Item = (u64, &K, &V)> {
        let slots = self.slots.read();
        (0..slots.len()).filter_map(move |i| {
            // SAFETY: see `get`; the borrows live no longer than `&self`.
            let entry = unsafe { slots[i].load(Ordering::Acquire).as_ref() }?;
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
            // slots exactly once and never freed before.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// Slot `probe` of `fingerprint`'s probe window in `slots`.
#[allow(clippy::cast_possible_truncation)]
fn slot<T>(slots: &[T], fingerprint: u64, probe: usize) -> &T {
    let mask = slots.len() as u64 - 1;
    &slots[(fingerprint.wrapping_add(probe as u64) & mask) as usize]
}

/// The probe window of `fingerprint`: its home slot and the ones after it,
/// wrapping, bounded by the array's length.
fn window<T>(slots: &[T], fingerprint: u64) -> impl Iterator<Item = &T> {
    (0..PROBE_WINDOW.min(slots.len())).map(move |probe| slot(slots, fingerprint, probe))
}

/// Whether `slot` holds an entry of `fingerprint`.
fn holds<K, V>(slot: &AtomicPtr<Entry<K, V>>, fingerprint: u64) -> bool {
    // SAFETY: see `MemoTable::get`.
    unsafe { slot.load(Ordering::Acquire).as_ref() }.is_some_and(|e| e.fingerprint == fingerprint)
}

/// Publishes `entry` in the first empty slot of `fingerprint`'s window;
/// returns whether there was one.
fn claim<K, V>(
    slots: &[AtomicPtr<Entry<K, V>>],
    fingerprint: u64,
    entry: *mut Entry<K, V>,
) -> bool {
    window(slots, fingerprint).any(|slot| {
        slot.compare_exchange(
            std::ptr::null_mut(),
            entry,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_ok()
    })
}

impl<K, V> Drop for MemoTable<K, V> {
    fn drop(&mut self) {
        // Exclusive access: plain reads.  An atomic swap per slot made
        // dropping a large, mostly empty table cost a dozen times more.
        for slot in self.slots.write().iter_mut() {
            let ptr = *slot.get_mut();
            if !ptr.is_null() {
                // SAFETY: exclusive access (`&mut self`); each live slot
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
            .field("capacity", &self.capacity())
            .field("ceiling", &self.ceiling)
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
        assert_eq!(
            MemoTable::<u64, u64>::new(1 << 16).capacity(),
            1024,
            "a larger ceiling starts at 1,024 slots"
        );
    }

    /// Fingerprints whose low bits are a permutation of `i`'s: distinct
    /// homes for up to a power of two of consecutive `i`.
    fn spread(i: u64) -> u64 {
        i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn the_array_doubles_past_a_quarter_full_up_to_the_ceiling() {
        let t: MemoTable<u64, u64> = MemoTable::new(4096);
        for i in 0..2000u64 {
            t.insert(spread(i), i, i);
            let slots = match i + 1 {
                ..=256 => 1024,
                257..=512 => 2048,
                _ => 4096,
            };
            assert_eq!(t.capacity(), slots, "after {} inserts", i + 1);
        }
        assert_eq!(t.replacements(), 0);
        assert!((0..2000).all(|i| t.get(spread(i), &i) == Some(&i)));
    }

    #[test]
    fn a_full_window_below_the_ceiling_grows_instead_of_displacing() {
        // Nine fingerprints with one home in 1,024 slots, two in 2,048.
        let t: MemoTable<u64, u64> = MemoTable::new(1 << 16);
        for i in 0..9u64 {
            assert!(!t.insert(i << 10, i, i), "nothing displaced");
        }
        assert_eq!((t.capacity(), t.len(), t.replacements()), (2048, 9, 0));
        assert!((0..9).all(|i| t.get(i << 10, &i) == Some(&i)));
    }

    #[test]
    fn a_ceiling_of_four_never_grows_and_still_replaces_on_collision() {
        let t: MemoTable<u64, u64> = MemoTable::new(4);
        for fp in 0..4u64 {
            assert!(!t.insert(fp, fp, fp));
        }
        assert_eq!((t.capacity(), t.len(), t.replacements()), (4, 4, 0));
        assert!(t.insert(4, 4, 40), "a full window at the ceiling displaces");
        assert_eq!((t.capacity(), t.len(), t.replacements()), (4, 4, 1));
        assert_eq!(t.get(0, &0), None, "4's home slot held 0");
        assert_eq!(t.get(4, &4), Some(&40));
    }

    #[test]
    fn iter_since_a_mark_taken_before_three_growths_walks_the_later_entries() {
        let t: MemoTable<u64, u64> = MemoTable::new(1 << 16);
        for i in 0..100u64 {
            t.insert(spread(i), i, i);
        }
        let mark = t.mark();
        for i in 100..1100u64 {
            t.insert(spread(i), i, i);
        }
        assert_eq!(t.capacity(), 8192, "1,024 doubled three times");
        let mut since: Vec<u64> = t
            .iter_since(mark)
            .map(|(fp, &key, &value)| {
                assert_eq!((fp, value), (spread(key), key));
                key
            })
            .collect();
        since.sort_unstable();
        assert_eq!(since, (100..1100).collect::<Vec<_>>());
        assert_eq!(t.iter_since(0).count(), 1100);
    }

    #[test]
    fn insert_if_absent_grows_the_table_as_insert_does() {
        let imported: MemoTable<u64, u64> = MemoTable::new(1 << 16);
        let computed: MemoTable<u64, u64> = MemoTable::new(1 << 16);
        for i in 0..600u64 {
            assert!(imported.insert_if_absent(spread(i), i, i));
            computed.insert(spread(i), i, i);
            assert_eq!(imported.capacity(), computed.capacity());
        }
        assert_eq!(imported.capacity(), 4096);
        assert!(
            !imported.insert_if_absent(spread(0), 0, 1),
            "still idempotent"
        );
        assert!((0..600).all(|i| imported.get(spread(i), &i) == Some(&i)));
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
