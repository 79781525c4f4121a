//! The workspace's one sanctioned monotonic-clock read.
//!
//! Bit-identical cloning is the paper's core claim, so the `nondeterminism`
//! lint rule confines clock reads to explicitly allowlisted modules; this is
//! the observability layer's.  Every timestamp the registry, the job
//! records' marks and the timelines carry comes from [`now_ns`], so "where
//! may time enter the system" has a one-line answer — and that answer is
//! observability metadata only, never job identity or tuning results.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide anchor instant; all timestamps are offsets from it.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first call in this process.
///
/// Offsets from a fixed anchor keep the values small (they fit `u64` for
/// ~584 years of uptime) and make timestamps from different threads
/// directly comparable.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_anchored() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "monotonic: {b} >= {a}");
        // The anchor is the first call, so early reads are small offsets,
        // not absolute epoch times.
        assert!(a < 60 * 1_000_000_000, "anchored near process start: {a}");
    }
}
