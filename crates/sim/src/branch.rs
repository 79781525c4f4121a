//! Branch prediction: gshare direction predictor.

use crate::config::BranchPredictorConfig;
use serde::{Deserialize, Serialize};

/// Branch predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub lookups: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl BranchStats {
    /// Misprediction rate in `[0, 1]` (0.0 when no branches executed).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.lookups as f64
        }
    }

    /// Prediction accuracy in `[0, 1]` (1.0 when no branches executed).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        1.0 - self.mispredict_rate()
    }
}

/// A gshare branch direction predictor.
///
/// The pattern history table holds 2-bit saturating counters indexed by the
/// XOR of the branch PC and the global history register — the structure used
/// by most mid-2010s cores and a reasonable stand-in for Gem5's tournament
/// predictor at the fidelity this reproduction needs: perfectly regular
/// branch patterns are learned quickly, random patterns converge to a ~50 %
/// misprediction rate, which is exactly the lever the `B_PATTERN` knob pulls.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    config: BranchPredictorConfig,
    table: Vec<u8>,
    history: u64,
    history_mask: u64,
    stats: BranchStats,
}

impl GsharePredictor {
    /// Creates a predictor with all counters weakly taken.
    #[must_use]
    pub fn new(config: BranchPredictorConfig) -> Self {
        let entries = config.table_entries.next_power_of_two().max(16);
        GsharePredictor {
            config,
            table: vec![2; entries],
            history: 0,
            history_mask: (1u64 << config.history_bits.min(63)) - 1,
            stats: BranchStats::default(),
        }
    }

    /// Misprediction redirect penalty in cycles.
    #[must_use]
    pub fn penalty(&self) -> u32 {
        self.config.mispredict_penalty
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        let folded = (pc >> 2) ^ self.history;
        (folded as usize) & (self.table.len() - 1)
    }

    /// Predicts and updates for one conditional branch; returns `true` if
    /// the prediction was correct.
    ///
    /// Branch-free: outcomes are random data, so the counter update is a
    /// table lookup and the misprediction count an add.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        /// A 2-bit saturating counter after an outcome:
        /// `NEXT[counter][taken]`.
        const NEXT: [[u8; 2]; 4] = [[0, 1], [0, 2], [1, 3], [2, 3]];
        let idx = self.index(pc);
        let counter = self.table[idx] & 3;
        // Predicted taken from 2 up.
        let correct = (counter >> 1) == u8::from(taken);
        self.stats.lookups += 1;
        self.stats.mispredictions += u64::from(!correct);
        self.table[idx] = NEXT[usize::from(counter)][usize::from(taken)];
        // update global history
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        correct
    }

    /// Resets predictor state and statistics.
    pub fn reset(&mut self) {
        for c in &mut self.table {
            *c = 2;
        }
        self.history = 0;
        self.stats = BranchStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn predictor() -> GsharePredictor {
        GsharePredictor::new(BranchPredictorConfig {
            table_entries: 4096,
            history_bits: 8,
            mispredict_penalty: 10,
        })
    }

    #[test]
    fn always_taken_branch_is_learned() {
        let mut p = predictor();
        for _ in 0..1000 {
            p.predict_and_update(0x400, true);
        }
        assert!(p.stats().accuracy() > 0.99);
    }

    #[test]
    fn alternating_pattern_is_learned_via_history() {
        let mut p = predictor();
        for i in 0..2000u64 {
            p.predict_and_update(0x400, i % 2 == 0);
        }
        // After warm-up the alternating pattern is captured by history bits.
        assert!(
            p.stats().accuracy() > 0.9,
            "accuracy {}",
            p.stats().accuracy()
        );
    }

    #[test]
    fn random_branches_mispredict_about_half_the_time() {
        let mut p = predictor();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20_000 {
            p.predict_and_update(0x400, rng.gen());
        }
        let rate = p.stats().mispredict_rate();
        assert!((0.4..=0.6).contains(&rate), "mispredict rate {rate}");
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias_much() {
        let mut p = predictor();
        for i in 0..10_000u64 {
            p.predict_and_update(0x400 + (i % 16) * 4, true);
        }
        assert!(p.stats().accuracy() > 0.98);
    }

    #[test]
    fn counter_table_matches_a_saturating_update() {
        // Every counter and outcome against the branchy update it replaced.
        for counter in 0..4u8 {
            for taken in [false, true] {
                let mut p = predictor();
                let idx = p.index(0x400);
                p.table[idx] = counter;
                let correct = p.predict_and_update(0x400, taken);
                assert_eq!(correct, (counter >= 2) == taken, "{counter} {taken}");
                let expected = if taken {
                    (counter + 1).min(3)
                } else {
                    counter.saturating_sub(1)
                };
                assert_eq!(p.table[idx], expected, "{counter} {taken}");
                assert_eq!(p.stats().mispredictions, u64::from(!correct));
            }
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = predictor();
        p.predict_and_update(0x100, false);
        p.reset();
        assert_eq!(p.stats(), BranchStats::default());
    }

    #[test]
    fn stats_rates_have_sane_defaults() {
        let s = BranchStats::default();
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.accuracy(), 1.0);
    }

    #[test]
    fn penalty_comes_from_config() {
        assert_eq!(predictor().penalty(), 10);
    }
}
