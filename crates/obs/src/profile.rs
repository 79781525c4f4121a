//! Sampled simulator profiles: time-resolved IPC, cache hit rates, branch
//! behaviour and queue occupancy, keyed by retired-instruction count.
//!
//! A [`ProfileRecorder`] is handed to the simulator and asked, every N
//! retired instructions, whether a snapshot is due.  Samples carry
//! *cumulative* counters (the consumer differences adjacent samples for
//! phase-resolved rates) and are keyed by the retired count — never by
//! time — so a profiled run is exactly as deterministic and replayable as
//! an unprofiled one.
//!
//! The recorder is bounded: when [`CAPACITY`] samples accumulate it drops
//! every other sample and doubles its interval, a deterministic downsample
//! that keeps long runs covered end-to-end at ~half density instead of
//! truncating the tail.  A disabled recorder ([`ProfileRecorder::off`])
//! costs one branch per poll and never allocates.

use serde::{Deserialize, Serialize};

/// Samples retained before the recorder downsamples (drops every other
/// sample and doubles its interval).
pub const CAPACITY: usize = 512;

/// One cumulative snapshot of the simulator's counters.
///
/// All fields count events since the start of the run; difference adjacent
/// samples for per-phase rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSample {
    /// Instructions retired when the sample was taken (the sample key).
    pub retired: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub branch_mispredicts: u64,
    /// Reorder-buffer entries occupied when the sample was taken.
    pub rob_occupancy: u32,
    /// Reservation-station entries occupied when the sample was taken.
    pub rs_occupancy: u32,
}

impl ProfileSample {
    /// Instructions per cycle up to this sample.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// L1 data-cache hit rate up to this sample.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn l1d_hit_rate(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / self.l1d_accesses as f64
        }
    }

    /// Branch misprediction rate up to this sample.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }
}

/// The profile of one simulator run: the sampling interval that was in
/// effect at the end (after any downsampling) and the retained samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimProfile {
    /// Final sampling interval, in retired instructions.
    pub interval: u64,
    /// Retained samples, in retirement order.
    pub samples: Vec<ProfileSample>,
}

/// Collects [`ProfileSample`]s at a fixed retired-instruction cadence.
///
/// The simulator polls [`due`](Self::due) from its existing periodic
/// check (the cancellation-check block), so a disabled recorder adds one
/// predictable branch every few thousand instructions and nothing else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileRecorder {
    /// The configured cadence, restored by [`reset`](Self::reset).
    configured: u64,
    /// Current sampling interval in retired instructions (grows under
    /// downsampling); `0` means off.
    interval: u64,
    /// Retired-instruction count at which the next sample is due.
    next_at: u64,
    samples: Vec<ProfileSample>,
}

impl ProfileRecorder {
    /// A disabled recorder: [`due`](Self::due) is always `false`, nothing
    /// is ever stored or allocated.
    #[must_use]
    pub fn off() -> Self {
        ProfileRecorder::default()
    }

    /// A recorder sampling every `interval` retired instructions.
    /// `interval == 0` is the same as [`off`](Self::off).
    #[must_use]
    pub fn every(interval: u64) -> Self {
        ProfileRecorder {
            configured: interval,
            interval,
            next_at: interval,
            samples: Vec::new(),
        }
    }

    /// Whether a sample is due at `retired` instructions.
    #[inline]
    #[must_use]
    pub fn due(&self, retired: u64) -> bool {
        self.interval != 0 && retired >= self.next_at
    }

    /// Stores one sample and schedules the next.  When [`CAPACITY`] is
    /// reached, drops every other retained sample and doubles the interval
    /// — a deterministic downsample, so two identical runs profile
    /// identically regardless of length.
    pub fn push(&mut self, sample: ProfileSample) {
        if self.interval == 0 {
            return;
        }
        self.samples.push(sample);
        self.next_at = sample.retired.saturating_add(self.interval);
        if self.samples.len() >= CAPACITY {
            let mut keep = 0;
            for i in (1..self.samples.len()).step_by(2) {
                self.samples[keep] = self.samples[i];
                keep += 1;
            }
            self.samples.truncate(keep);
            self.interval = self.interval.saturating_mul(2);
        }
    }

    /// Clears retained samples and restores the configured cadence for a
    /// fresh run, so a reused recorder profiles a run bit-identically to a
    /// freshly constructed one (any downsampling from the previous run is
    /// undone).
    pub fn reset(&mut self) {
        self.samples.clear();
        self.interval = self.configured;
        self.next_at = self.configured;
    }

    /// Finishes the run, yielding the profile (`None` when disabled or no
    /// samples were taken).
    #[must_use]
    pub fn finish(&mut self) -> Option<SimProfile> {
        if self.interval == 0 || self.samples.is_empty() {
            return None;
        }
        Some(SimProfile {
            interval: self.interval,
            samples: std::mem::take(&mut self.samples),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(retired: u64) -> ProfileSample {
        ProfileSample {
            retired,
            cycles: retired * 2,
            l1d_accesses: retired / 3,
            l1d_hits: retired / 4,
            branches: retired / 5,
            branch_mispredicts: retired / 50,
            rob_occupancy: 12,
            rs_occupancy: 4,
        }
    }

    #[test]
    fn off_recorder_is_never_due_and_yields_nothing() {
        let mut rec = ProfileRecorder::off();
        assert!(!rec.due(u64::MAX));
        rec.push(sample(1000));
        assert_eq!(rec.finish(), None);
    }

    #[test]
    fn samples_at_the_configured_cadence() {
        let mut rec = ProfileRecorder::every(1000);
        assert!(!rec.due(999));
        assert!(rec.due(1000));
        rec.push(sample(1000));
        assert!(!rec.due(1999));
        assert!(rec.due(2048));
        rec.push(sample(2048));
        let profile = rec.finish().expect("two samples");
        assert_eq!(profile.interval, 1000);
        assert_eq!(profile.samples.len(), 2);
        assert_eq!(profile.samples[1].retired, 2048);
    }

    #[test]
    fn downsamples_deterministically_at_capacity() {
        let mut rec = ProfileRecorder::every(10);
        for i in 1..=(CAPACITY as u64) {
            rec.push(sample(i * 10));
        }
        let profile = rec.finish().expect("samples");
        // Capacity triggered one downsample: half the samples, doubled
        // interval, and the survivors are the odd-indexed originals.
        assert_eq!(profile.samples.len(), CAPACITY / 2);
        assert_eq!(profile.interval, 20);
        assert_eq!(profile.samples[0].retired, 20);
        assert_eq!(profile.samples[1].retired, 40);
    }

    #[test]
    fn reset_restores_the_configured_cadence() {
        let mut rec = ProfileRecorder::every(10);
        for i in 1..=(CAPACITY as u64) {
            rec.push(sample(i * 10)); // triggers a downsample to interval 20
        }
        rec.reset();
        assert!(rec.due(10), "reset must undo the doubled interval");
        rec.push(sample(10));
        let profile = rec.finish().expect("one sample");
        assert_eq!(profile.interval, 10);
        assert_eq!(profile.samples.len(), 1);
    }

    #[test]
    fn identical_runs_profile_identically() {
        let run = |n: u64| {
            let mut rec = ProfileRecorder::every(7);
            for i in 1..=n {
                if rec.due(i) {
                    rec.push(sample(i));
                }
            }
            rec.finish()
        };
        assert_eq!(run(10_000), run(10_000));
        assert_ne!(run(10_000), run(20_000));
    }

    #[test]
    fn rates_difference_cleanly() {
        let s = sample(1000);
        assert!((s.ipc() - 0.5).abs() < 1e-9);
        assert!(s.l1d_hit_rate() > 0.0 && s.l1d_hit_rate() < 1.0);
        assert!(s.mispredict_rate() > 0.0 && s.mispredict_rate() < 1.0);
        assert_eq!(ProfileSample::default().ipc(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let profile = SimProfile {
            interval: 4096,
            samples: vec![sample(4096), sample(8192)],
        };
        let json = serde_json::to_string(&profile).expect("serialize");
        let back: SimProfile = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, profile);
    }
}
