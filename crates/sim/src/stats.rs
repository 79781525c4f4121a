//! Simulation statistics: the metric source for cloning and stress testing.

use crate::branch::BranchStats;
use crate::hierarchy::HierarchyStats;
use micrograd_isa::InstrClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Activity counts consumed by the power model (McPAT-like interface).
///
/// These mirror the statistics Gem5 dumps and McPAT ingests: per-unit event
/// counts that, multiplied by per-event energies, yield dynamic energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityCounts {
    /// Instructions fetched (front-end activity).
    pub fetched: u64,
    /// Simple integer ALU operations executed.
    pub int_alu_ops: u64,
    /// Integer multiply/divide operations executed.
    pub int_complex_ops: u64,
    /// Floating point operations executed.
    pub fp_ops: u64,
    /// Load operations executed.
    pub loads: u64,
    /// Store operations executed.
    pub stores: u64,
    /// Branch-class operations executed: conditional branches and the
    /// `jal`/`jalr` jumps.
    pub branches: u64,
    /// Architectural register file reads.
    pub regfile_reads: u64,
    /// Architectural register file writes.
    pub regfile_writes: u64,
    /// Reorder-buffer allocations.
    pub rob_writes: u64,
    /// Load/store queue allocations.
    pub lsq_ops: u64,
    /// Sum of per-instruction execution energy weights
    /// ([`micrograd_isa::LatencyModel::energy_weight`]).
    pub weighted_exec_energy: f64,
}

/// Full statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Dynamic instructions committed.
    pub instructions: u64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Core clock frequency the run was configured with (Hz).
    pub frequency_hz: u64,
    /// Memory hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// Branch predictor statistics.
    pub branch: BranchStats,
    /// Power-model activity counts, which also hold the per-class
    /// instruction counts.
    pub activity: ActivityCounts,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Wall-clock execution time in seconds at the configured frequency.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        if self.frequency_hz == 0 {
            0.0
        } else {
            self.cycles as f64 / self.frequency_hz as f64
        }
    }

    /// Fraction of dynamic instructions in `class` (0.0 if nothing ran).
    #[must_use]
    pub fn class_fraction(&self, class: InstrClass) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let a = &self.activity;
        let count = match class {
            InstrClass::Integer => a.int_alu_ops + a.int_complex_ops,
            InstrClass::Float => a.fp_ops,
            InstrClass::Branch => a.branches,
            InstrClass::Load => a.loads,
            InstrClass::Store => a.stores,
        };
        count as f64 / self.instructions as f64
    }

    /// All class fractions in canonical order.
    #[must_use]
    pub fn class_fractions(&self) -> BTreeMap<InstrClass, f64> {
        InstrClass::ALL
            .iter()
            .map(|c| (*c, self.class_fraction(*c)))
            .collect()
    }

    /// L1 instruction cache hit rate.
    #[must_use]
    pub fn l1i_hit_rate(&self) -> f64 {
        self.hierarchy.l1i.hit_rate()
    }

    /// L1 data cache hit rate.
    #[must_use]
    pub fn l1d_hit_rate(&self) -> f64 {
        self.hierarchy.l1d.hit_rate()
    }

    /// Unified L2 cache hit rate.
    #[must_use]
    pub fn l2_hit_rate(&self) -> f64 {
        self.hierarchy.l2.hit_rate()
    }

    /// Branch misprediction rate.
    #[must_use]
    pub fn branch_mispredict_rate(&self) -> f64 {
        self.branch.mispredict_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_seconds() {
        let stats = SimStats {
            instructions: 1000,
            cycles: 500,
            frequency_hz: 2_000_000_000,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
        assert!((stats.seconds() - 2.5e-7).abs() < 1e-18);
    }

    #[test]
    fn zero_cycles_is_not_a_division_error() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.seconds(), 0.0);
        assert_eq!(stats.class_fraction(InstrClass::Load), 0.0);
    }

    #[test]
    fn class_fractions_normalize() {
        let mut stats = SimStats {
            instructions: 10,
            ..SimStats::default()
        };
        stats.activity.int_alu_ops = 4;
        stats.activity.int_complex_ops = 2;
        stats.activity.loads = 4;
        let fr = stats.class_fractions();
        assert!((fr[&InstrClass::Integer] - 0.6).abs() < 1e-12);
        assert!((fr[&InstrClass::Load] - 0.4).abs() < 1e-12);
        assert_eq!(fr.len(), InstrClass::ALL.len());
        let total: f64 = fr.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_accessors_default_to_one() {
        let stats = SimStats::default();
        assert_eq!(stats.l1i_hit_rate(), 1.0);
        assert_eq!(stats.l1d_hit_rate(), 1.0);
        assert_eq!(stats.l2_hit_rate(), 1.0);
        assert_eq!(stats.branch_mispredict_rate(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let stats = SimStats {
            instructions: 42,
            cycles: 21,
            ..SimStats::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
