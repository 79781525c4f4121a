//! A simple stride/next-line data prefetcher.

use crate::config::PrefetchConfig;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Statistics for the prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Prefetch requests issued.
    pub issued: u64,
    /// Demand misses observed (training events).
    pub trained: u64,
}

/// One training-table entry: the last observed address, the last observed
/// stride and a saturating confidence counter.
#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// A multiplicative hash of a PC key: one multiply where SipHash runs
/// several rounds.  The table is private and keyed by simulated addresses,
/// so SipHash's flooding resistance buys nothing here; the result does not
/// depend on the hash, only the lookup cost does.
#[derive(Debug, Clone, Copy, Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the well-mixed high half down: PCs are 4-byte aligned, and
        // the table indexes buckets by the low bits.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A per-PC stride prefetcher with next-line fallback.
///
/// The Large core of Table II has a prefetcher on its L1/L2; this model
/// trains on demand misses, detects a constant stride per (static) load PC
/// and issues `degree` prefetches along that stride (or the next line when
/// no stable stride exists yet).
///
/// [`observe`](StridePrefetcher::observe) sits on the demand-miss path of
/// every simulated evaluation, so the training table is indexed: a hash map
/// keyed by PC (with a one-multiply hash) for O(1) lookup, plus a FIFO ring
/// of insertion order for O(1) eviction.  Prediction behaviour is identical to the previous linear
/// table (entries update in place, eviction follows first-insertion order).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: PrefetchConfig,
    /// PC-indexed training entries.
    table: HashMap<u64, StrideEntry, BuildHasherDefault<PcHasher>>,
    /// Insertion-order ring over the table's PCs; the front is the next
    /// eviction victim.
    fifo: VecDeque<u64>,
    capacity: usize,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates a prefetcher with a 64-entry training table.
    #[must_use]
    pub fn new(config: PrefetchConfig) -> Self {
        const CAPACITY: usize = 64;
        StridePrefetcher {
            config,
            table: HashMap::with_capacity_and_hasher(CAPACITY, BuildHasherDefault::default()),
            fifo: VecDeque::with_capacity(CAPACITY),
            capacity: CAPACITY,
            stats: PrefetchStats::default(),
        }
    }

    /// Whether the prefetcher is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.enabled && self.config.degree > 0
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Observes a demand access from `pc` to `address` (line-aligned
    /// addresses recommended) and returns the addresses to prefetch.
    ///
    /// Allocating convenience wrapper over
    /// [`observe_into`](Self::observe_into); the simulator hot path uses the
    /// buffer-reusing form.
    pub fn observe(&mut self, pc: u64, address: u64, line_bytes: u64) -> Vec<u64> {
        if !self.enabled() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.config.degree as usize);
        self.observe_into(pc, address, line_bytes, &mut out);
        out
    }

    /// Observes a demand access and appends the addresses to prefetch into
    /// `out` (cleared first).
    ///
    /// This is the hot-path form: the caller owns `out` and reuses it across
    /// observations, so the demand-miss path performs no heap allocation
    /// once the buffer has grown to `degree` capacity.
    #[inline]
    pub fn observe_into(&mut self, pc: u64, address: u64, line_bytes: u64, out: &mut Vec<u64>) {
        out.clear();
        if !self.enabled() {
            return;
        }
        self.stats.trained += 1;
        let line = line_bytes.max(1);
        let mut predicted_stride = line as i64;
        if let Some(entry) = self.table.get_mut(&pc) {
            let observed = address as i64 - entry.last_addr as i64;
            if observed == entry.stride && observed != 0 {
                entry.confidence = entry.confidence.saturating_add(1);
            } else {
                entry.stride = observed;
                entry.confidence = 0;
            }
            entry.last_addr = address;
            if entry.confidence >= 1 && entry.stride != 0 {
                predicted_stride = entry.stride;
            }
        } else {
            if self.table.len() >= self.capacity {
                if let Some(victim) = self.fifo.pop_front() {
                    self.table.remove(&victim);
                }
            }
            self.fifo.push_back(pc);
            self.table.insert(
                pc,
                StrideEntry {
                    last_addr: address,
                    stride: 0,
                    confidence: 0,
                },
            );
        }
        for i in 1..=i64::from(self.config.degree) {
            let target = address as i64 + predicted_stride * i;
            if target >= 0 {
                out.push(target as u64);
                self.stats.issued += 1;
            }
        }
    }

    /// Resets training state and statistics (reused simulators call this
    /// between runs; a reset prefetcher is indistinguishable from a fresh
    /// one).
    pub fn reset(&mut self) {
        self.table.clear();
        self.fifo.clear();
        self.stats = PrefetchStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(degree: u32) -> PrefetchConfig {
        PrefetchConfig {
            enabled: true,
            degree,
        }
    }

    #[test]
    fn disabled_prefetcher_issues_nothing() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: false,
            degree: 2,
        });
        assert!(!p.enabled());
        assert!(p.observe(0x400, 0x1000, 64).is_empty());
        assert_eq!(p.stats().issued, 0);
    }

    #[test]
    fn next_line_prefetch_without_training() {
        let mut p = StridePrefetcher::new(enabled(1));
        let out = p.observe(0x400, 0x1000, 64);
        assert_eq!(out, vec![0x1040]);
    }

    #[test]
    fn learns_constant_stride() {
        let mut p = StridePrefetcher::new(enabled(1));
        p.observe(0x400, 0x1000, 64);
        p.observe(0x400, 0x1100, 64); // stride 0x100 observed
        let out = p.observe(0x400, 0x1200, 64); // stride confirmed
        assert_eq!(out, vec![0x1300]);
    }

    #[test]
    fn degree_controls_prefetch_count() {
        let mut p = StridePrefetcher::new(enabled(4));
        let out = p.observe(0x100, 0x8000, 64);
        assert_eq!(out.len(), 4);
        assert_eq!(p.stats().issued, 4);
        assert_eq!(p.stats().trained, 1);
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = StridePrefetcher::new(enabled(1));
        for pc in 0..200u64 {
            p.observe(pc * 4, pc * 0x100, 64);
        }
        assert!(p.table.len() <= 64);
        assert_eq!(p.fifo.len(), p.table.len());
    }

    #[test]
    fn eviction_follows_insertion_order() {
        // Fill the table, then keep re-training the very first PC: updates
        // must not refresh its eviction slot (first-insertion order, as in
        // the original linear table), so one more new PC evicts it.
        let mut p = StridePrefetcher::new(enabled(1));
        for pc in 0..64u64 {
            p.observe(0x1000 + pc * 4, pc * 0x100, 64);
        }
        p.observe(0x1000, 0x10_0000, 64);
        p.observe(0x1000, 0x10_0100, 64);
        assert!(p.table.contains_key(&0x1000));
        p.observe(0x9999, 0x55_0000, 64); // new PC → evicts the oldest
        assert!(!p.table.contains_key(&0x1000));
        assert!(p.table.contains_key(&0x9999));
        assert_eq!(p.table.len(), 64);
    }

    #[test]
    fn observe_into_reuses_the_buffer_and_matches_observe() {
        let mut a = StridePrefetcher::new(enabled(2));
        let mut b = StridePrefetcher::new(enabled(2));
        let mut buf = Vec::new();
        for i in 0..50u64 {
            let pc = 0x400 + (i % 4) * 4;
            let addr = 0x1000 + i * 0x40;
            b.observe_into(pc, addr, 64, &mut buf);
            assert_eq!(a.observe(pc, addr, 64), buf, "step {i}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(buf.capacity() >= 2, "buffer retained across observations");
    }

    #[test]
    fn reset_restores_a_fresh_prefetcher() {
        let mut p = StridePrefetcher::new(enabled(2));
        for i in 0..100u64 {
            p.observe(0x400 + i * 4, i * 0x100, 64);
        }
        p.reset();
        assert_eq!(p.stats(), PrefetchStats::default());
        let fresh = StridePrefetcher::new(enabled(2)).observe(0x400, 0x1000, 64);
        assert_eq!(p.observe(0x400, 0x1000, 64), fresh);
    }

    #[test]
    fn stride_relearns_after_a_break() {
        let mut p = StridePrefetcher::new(enabled(1));
        p.observe(0x400, 0x1000, 64);
        p.observe(0x400, 0x1100, 64);
        assert_eq!(p.observe(0x400, 0x1200, 64), vec![0x1300]);
        // Break the pattern: falls back to next-line until re-confirmed.
        assert_eq!(p.observe(0x400, 0x5000, 64), vec![0x5040]);
        p.observe(0x400, 0x5200, 64);
        assert_eq!(p.observe(0x400, 0x5400, 64), vec![0x5600]);
    }
}
