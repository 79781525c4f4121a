//! Set-associative LRU cache model over a dense, flat tag store.

use crate::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups.
    pub accesses: u64,
    /// Number of lookups that hit.
    pub hits: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Number of misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; defined as 1.0 when there were no accesses
    /// (an idle cache is not a mis-behaving cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// The model tracks tags only (no data): `access` reports whether the line
/// was present and installs it if it was not, which is all the timing model
/// needs.
///
/// # Layout
///
/// Each set is `ways` tags in a dense flat array indexed by
/// `set * ways + way`, kept in recency order: most recently used first.
/// A hit on the front way is one compare and no write; a hit at way `k`
/// moves that tag to the front; a miss shifts the set back by one and
/// installs at the front, dropping the last way — the LRU line, or an
/// invalid one, since invalid ways always sit behind every valid one.
/// Tags are unique within a set, so this is exactly true LRU.  Set index
/// and tag are extracted with precomputed shifts and masks when the line
/// size and set count are powers of two (they are for every Table II
/// geometry), falling back to division otherwise; both paths compute
/// identical values, so the geometry never changes results.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * ways..][..ways]`: one set, most recently used first.
    tags: Vec<u64>,
    ways: usize,
    num_sets: u64,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// `(log2(num_sets), num_sets - 1)` when the set count is a power of two.
    set_shift_mask: Option<(u32, u64)>,
    stats: CacheStats,
}

/// The tag of a way that holds no line.
const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.associativity.max(1) as usize;
        let line_bytes = config.line_bytes.max(1);
        let line_shift = line_bytes
            .is_power_of_two()
            .then(|| line_bytes.trailing_zeros());
        let set_shift_mask = num_sets
            .is_power_of_two()
            .then(|| (num_sets.trailing_zeros(), num_sets - 1));
        Cache {
            config,
            tags: vec![INVALID; num_sets as usize * ways],
            ways,
            num_sets,
            line_shift,
            set_shift_mask,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Hit latency of this cache.
    #[must_use]
    pub fn hit_latency(&self) -> u32 {
        self.config.hit_latency
    }

    #[inline]
    fn set_and_tag(&self, address: u64) -> (usize, u64) {
        let line = match self.line_shift {
            Some(shift) => address >> shift,
            None => address / self.config.line_bytes.max(1),
        };
        match self.set_shift_mask {
            Some((shift, mask)) => ((line & mask) as usize, line >> shift),
            None => ((line % self.num_sets) as usize, line / self.num_sets),
        }
    }

    /// Looks `address` up and moves its line to the front of its set,
    /// installing it there over the last way on a miss.  Returns `true`
    /// on a hit.
    #[inline]
    fn touch(&mut self, address: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(address);
        let set = &mut self.tags[set_idx * self.ways..(set_idx + 1) * self.ways];
        if set[0] == tag {
            return true;
        }
        let (hit, way) = match set.iter().position(|&t| t == tag) {
            Some(way) => (true, way),
            None => (false, set.len() - 1),
        };
        set.copy_within(0..way, 1);
        set[0] = tag;
        hit
    }

    /// Looks up `address`; returns `true` on hit.  On a miss the line is
    /// installed, evicting the LRU way.
    pub fn access(&mut self, address: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(address);
        self.stats.hits += u64::from(hit);
        hit
    }

    /// Installs `address` without counting an access (prefetch fill).
    /// Returns `true` if the line was already present.
    pub fn fill(&mut self, address: u64) -> bool {
        let present = self.touch(address);
        self.stats.prefetch_fills += u64::from(!present);
        present
    }

    /// Checks presence of `address` without updating LRU state or stats.
    #[must_use]
    pub fn probe(&self, address: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(address);
        let base = set_idx * self.ways;
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig::new(512, 2, 64, 1))
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small_cache();
        // 32 distinct lines (2 KiB) in a 512 B cache, streamed twice
        for _round in 0..2 {
            for i in 0..32u64 {
                c.access(i * 64);
            }
        }
        assert!(
            c.stats().hit_rate() < 0.1,
            "hit rate {}",
            c.stats().hit_rate()
        );
    }

    #[test]
    fn working_set_that_fits_gets_high_hit_rate() {
        let mut c = small_cache();
        // 4 lines fit comfortably in 8 lines of capacity; stream 100 times
        for _ in 0..100 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert!(c.stats().hit_rate() > 0.95);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(CacheConfig::new(128, 2, 64, 1)); // 1 set, 2 ways
        c.access(0); // line A
        c.access(64); // line B
        c.access(0); // touch A so B is LRU
        c.access(128); // line C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn fill_installs_without_counting_access() {
        let mut c = small_cache();
        assert!(!c.fill(0x2000));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0x2000));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn hit_rate_of_idle_cache_is_one() {
        let c = small_cache();
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = small_cache();
        c.access(0x40);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(0x40));
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut c = small_cache();
        c.access(0x80);
        let before = c.stats();
        let _ = c.probe(0x80);
        let _ = c.probe(0xdead_0000);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn non_power_of_two_geometry_still_works() {
        // 3 ways x 64B lines → 3 sets of 3 ways: num_sets = 576/64/3 = 3,
        // exercising the division fallback for set index and tag.
        let mut c = Cache::new(CacheConfig::new(576, 3, 64, 1));
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        // distinct lines mapping to the same set (line % 3): lines 0, 3, 6, 9
        for line in [0u64, 3, 6] {
            c.access(line * 64);
        }
        assert!(c.probe(0));
        c.access(9 * 64); // fourth line in a 3-way set evicts the LRU (line 0)
        assert!(!c.probe(0));
        assert!(c.probe(3 * 64));
        assert!(c.probe(6 * 64));
        assert!(c.probe(9 * 64));
    }

    #[test]
    fn invalid_ways_are_filled_before_any_valid_line_is_evicted() {
        let mut c = Cache::new(CacheConfig::new(256, 4, 64, 1)); // 1 set, 4 ways
        c.access(0);
        c.access(64);
        c.access(0); // hit behind the front way
        c.access(128);
        c.access(192); // fills the last invalid way: nothing valid evicted
        assert!(c.probe(0));
        assert!(c.probe(64));
        assert!(c.probe(128));
        assert!(c.probe(192));
        c.access(256); // a full set evicts its LRU line: 64
        assert!(!c.probe(64));
        assert!(c.probe(0));
    }

    /// The stamp-based true LRU the move-to-front sets replaced: every way
    /// carries the access count of its last use (0 = invalid), a hit
    /// re-stamps, a miss replaces the first way with the smallest stamp.
    struct StampLru {
        sets: Vec<Vec<(u64, u64)>>,
        line_bytes: u64,
        stamp: u64,
    }

    impl StampLru {
        fn new(config: CacheConfig) -> Self {
            let ways = config.associativity.max(1) as usize;
            StampLru {
                sets: vec![vec![(0, 0); ways]; config.num_sets() as usize],
                line_bytes: config.line_bytes,
                stamp: 0,
            }
        }

        fn set_and_tag(&self, address: u64) -> (usize, u64) {
            let line = address / self.line_bytes;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn touch(&mut self, address: u64) -> bool {
            self.stamp += 1;
            let (set, tag) = self.set_and_tag(address);
            let set = &mut self.sets[set];
            if let Some(way) = set.iter_mut().find(|(t, s)| *s > 0 && *t == tag) {
                way.1 = self.stamp;
                return true;
            }
            let victim = (0..set.len()).min_by_key(|&w| set[w].1).unwrap();
            set[victim] = (tag, self.stamp);
            false
        }

        fn probe(&self, address: u64) -> bool {
            let (set, tag) = self.set_and_tag(address);
            self.sets[set].iter().any(|&(t, s)| s > 0 && t == tag)
        }
    }

    #[test]
    fn move_to_front_sets_match_stamp_lru() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for ways in 1..=16u32 {
            // Power-of-two geometries, a non-power-of-two set count and a
            // non-power-of-two line size.
            for config in [
                CacheConfig::new(u64::from(ways) * 64 * 8, ways, 64, 1),
                CacheConfig::new(u64::from(ways) * 64, ways, 64, 1),
                CacheConfig::new(u64::from(ways) * 64 * 5, ways, 64, 1),
                CacheConfig::new(u64::from(ways) * 48 * 3, ways, 48, 1),
            ] {
                let mut cache = Cache::new(config);
                let mut reference = StampLru::new(config);
                // Lines from a pool about twice the cache's capacity, so sets
                // both hit and thrash.
                let lines = 2 * config.num_sets() * u64::from(ways);
                let (mut hits, mut fills) = (0, 0);
                for i in 0..4_000 {
                    let address = (next() % lines) * config.line_bytes + next() % config.line_bytes;
                    let what = format!("{ways} ways, {config:?}, op {i}");
                    match next() % 4 {
                        0 => {
                            let present = reference.touch(address);
                            fills += u64::from(!present);
                            assert_eq!(cache.fill(address), present, "fill: {what}");
                        }
                        1 => assert_eq!(cache.probe(address), reference.probe(address), "{what}"),
                        _ => {
                            let hit = reference.touch(address);
                            hits += u64::from(hit);
                            assert_eq!(cache.access(address), hit, "access: {what}");
                        }
                    }
                }
                assert_eq!(cache.stats().hits, hits);
                assert_eq!(cache.stats().prefetch_fills, fills);
            }
        }
    }

    #[test]
    fn dense_layout_matches_reference_behaviour_on_mixed_traffic() {
        // Pseudo-random address soup on a pow2 geometry and a non-pow2
        // geometry must produce identical stats for both layouts of the same
        // logical model — guarded here by replaying the same stream twice
        // and checking determinism plus set-count expectations.
        for config in [
            CacheConfig::new(16 * 1024, 2, 64, 2),
            CacheConfig::new(768, 3, 64, 1),
        ] {
            let run = |cfg: CacheConfig| {
                let mut c = Cache::new(cfg);
                let mut x = 0x9e37_79b9_7f4a_7c15u64;
                for _ in 0..10_000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    c.access(x % (64 * 1024));
                }
                c.stats()
            };
            assert_eq!(run(config), run(config));
        }
    }
}
