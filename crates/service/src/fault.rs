//! Deterministic fault injection for chaos testing the service path.
//!
//! A [`FaultPlan`] decides, at a handful of named [`FaultSite`]s threaded
//! through the store, the scheduler and the connection handler, whether to
//! force a failure: an I/O error, a truncated or delayed store write, a
//! connection dropped mid-line, or a worker panic.  Decisions are derived
//! purely from the plan's seed, the site, and a per-site operation counter
//! through the vendored ChaCha8 generator — no wall clock, no OS
//! randomness — so a chaos run is replayable: the same plan against the
//! same workload injects the same faults.
//!
//! Every site is bounded by a `max_injections` budget, so faults *exhaust*:
//! a retry loop that keeps going provably escapes the failure window, which
//! is exactly what the recovery tests in `tests/chaos.rs` assert.
//!
//! The default plan ([`FaultPlan::none`]) has no armed sites and reduces
//! every seam to one array load, so production paths pay nothing.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point in the service where a fault can be forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Reading a stored report or cache dump: the read is treated as an
    /// I/O error (the store degrades to a miss).
    StoreRead,
    /// Persisting a report or cache dump: the write fails with an injected
    /// I/O error before anything reaches disk.
    StoreWrite,
    /// Persisting a report or cache dump: only a prefix of the document is
    /// committed, simulating a crash between write and fsync.  The
    /// truncated file *is* renamed into place, and half of an appended
    /// cache chunk *does* land, so recovery has something corrupt to find.
    StoreTruncate,
    /// Persisting a report or cache dump: the write is delayed by the
    /// plan's fixed [`FaultPlan::write_delay`] before proceeding normally.
    StoreDelay,
    /// Writing a response line to a client: the connection is closed after
    /// a partial line, simulating a mid-message network failure.
    ConnectionDrop,
    /// Executing a job on a worker: the worker panics at the start of
    /// execution, exercising the scheduler's panic isolation.
    WorkerPanic,
}

impl FaultSite {
    /// All sites, in index order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::StoreTruncate,
        FaultSite::StoreDelay,
        FaultSite::ConnectionDrop,
        FaultSite::WorkerPanic,
    ];

    const COUNT: usize = Self::ALL.len();

    fn index(self) -> usize {
        match self {
            FaultSite::StoreRead => 0,
            FaultSite::StoreWrite => 1,
            FaultSite::StoreTruncate => 2,
            FaultSite::StoreDelay => 3,
            FaultSite::ConnectionDrop => 4,
            FaultSite::WorkerPanic => 5,
        }
    }

    /// Stable lower-case name, used in injected error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::StoreTruncate => "store-truncate",
            FaultSite::StoreDelay => "store-delay",
            FaultSite::ConnectionDrop => "connection-drop",
            FaultSite::WorkerPanic => "worker-panic",
        }
    }
}

/// When and how often one site fires.
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    /// Probability in `[0, 1]` that a given operation at the site is
    /// faulted (drawn deterministically from the plan seed).
    rate: f64,
    /// Hard cap on total injections at the site; once reached the site
    /// goes quiet and recovery can proceed.
    max_injections: u64,
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    rules: [Option<FaultRule>; FaultSite::COUNT],
    write_delay: Duration,
    /// Operations observed per site (injected or not).
    ops: [AtomicU64; FaultSite::COUNT],
    /// Faults actually injected per site.
    injected: [AtomicU64; FaultSite::COUNT],
}

/// A seeded, bounded, replayable fault schedule shared by every component
/// of one daemon (store, scheduler, connection handlers).
///
/// Cloning is cheap and shares the counters, so the plan handed to a
/// server is the same object the test later queries via
/// [`FaultPlan::injections`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        // Plans are equal when they would make the same decisions; the
        // mutable counters are runtime state, not identity.
        let rule_bits = |r: &Option<FaultRule>| r.map(|r| (r.rate.to_bits(), r.max_injections));
        self.inner.seed == other.inner.seed
            && self.inner.write_delay == other.inner.write_delay
            && self
                .inner
                .rules
                .iter()
                .map(rule_bits)
                .eq(other.inner.rules.iter().map(rule_bits))
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// The inert plan: no site ever fires.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::from_parts(0, [None; FaultSite::COUNT], Duration::from_millis(20))
    }

    /// A plan with the given seed and no armed sites; arm sites with
    /// [`FaultPlan::with_fault`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan::from_parts(seed, [None; FaultSite::COUNT], Duration::from_millis(20))
    }

    fn from_parts(
        seed: u64,
        rules: [Option<FaultRule>; FaultSite::COUNT],
        write_delay: Duration,
    ) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                rules,
                write_delay,
                ops: Default::default(),
                injected: Default::default(),
            }),
        }
    }

    /// Arms `site` to fire with probability `rate` per operation, at most
    /// `max_injections` times in total.  Returns a plan with fresh
    /// counters, so arm everything before sharing the plan.
    #[must_use]
    pub fn with_fault(self, site: FaultSite, rate: f64, max_injections: u64) -> Self {
        let mut rules = self.inner.rules;
        if let Some(slot) = rules.get_mut(site.index()) {
            *slot = Some(FaultRule {
                rate: rate.clamp(0.0, 1.0),
                max_injections,
            });
        }
        FaultPlan::from_parts(self.inner.seed, rules, self.inner.write_delay)
    }

    /// Sets the fixed delay applied when [`FaultSite::StoreDelay`] fires.
    #[must_use]
    pub fn with_write_delay(self, delay: Duration) -> Self {
        FaultPlan::from_parts(self.inner.seed, self.inner.rules, delay)
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Records one operation at `site` and decides whether to fault it.
    ///
    /// The decision depends only on (seed, site, per-site operation
    /// index), so a single-threaded replay of the same workload faults the
    /// same operations.
    #[must_use]
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let i = site.index();
        let Some(rule) = self.inner.rules.get(i).copied().flatten() else {
            return false;
        };
        let Some(ops) = self.inner.ops.get(i) else {
            return false;
        };
        let op = ops.fetch_add(1, Ordering::Relaxed);
        if !fires(self.inner.seed, i as u64, op, rule.rate) {
            return false;
        }
        // Charge the injection budget; once exhausted the site goes quiet.
        let Some(injected) = self.inner.injected.get(i) else {
            return false;
        };
        let mut current = injected.load(Ordering::Relaxed);
        loop {
            if current >= rule.max_injections {
                return false;
            }
            match injected.compare_exchange(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Like [`FaultPlan::should_inject`] for [`FaultSite::StoreDelay`],
    /// returning the delay to apply when it fires.
    #[must_use]
    pub fn write_delay(&self) -> Option<Duration> {
        self.should_inject(FaultSite::StoreDelay)
            .then_some(self.inner.write_delay)
    }

    /// An injected I/O error naming the site, for store seams.
    #[must_use]
    pub fn io_error(&self, site: FaultSite) -> std::io::Error {
        std::io::Error::other(format!(
            "injected fault at {} (plan seed {})",
            site.name(),
            self.inner.seed
        ))
    }

    /// Faults injected so far at `site`.
    #[must_use]
    pub fn injections(&self, site: FaultSite) -> u64 {
        self.inner
            .injected
            .get(site.index())
            .map_or(0, |count| count.load(Ordering::Relaxed))
    }

    /// Operations observed so far at `site` (faulted or not).
    #[must_use]
    pub fn operations(&self, site: FaultSite) -> u64 {
        self.inner
            .ops
            .get(site.index())
            .map_or(0, |count| count.load(Ordering::Relaxed))
    }
}

/// The deterministic coin flip: a ChaCha8 draw keyed on (seed, site, op).
fn fires(seed: u64, site: u64, op: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let key =
        seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut rng = ChaCha8Rng::seed_from_u64(key);
    let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    draw < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        for site in FaultSite::ALL {
            assert!(!plan.should_inject(site));
            assert_eq!(plan.injections(site), 0);
        }
        assert!(plan.write_delay().is_none());
    }

    #[test]
    fn rate_one_fires_until_the_budget_is_spent() {
        let plan = FaultPlan::new(7).with_fault(FaultSite::StoreWrite, 1.0, 3);
        let fired: Vec<bool> = (0..10)
            .map(|_| plan.should_inject(FaultSite::StoreWrite))
            .collect();
        assert_eq!(fired.iter().filter(|f| **f).count(), 3);
        assert_eq!(fired[..3], [true, true, true], "budget spends up front");
        assert_eq!(plan.injections(FaultSite::StoreWrite), 3);
        assert_eq!(plan.operations(FaultSite::StoreWrite), 10);
        // Other sites stay quiet.
        assert!(!plan.should_inject(FaultSite::WorkerPanic));
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let schedule = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with_fault(FaultSite::ConnectionDrop, 0.5, u64::MAX);
            (0..64)
                .map(|_| plan.should_inject(FaultSite::ConnectionDrop))
                .collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed, same schedule");
        assert_ne!(a, schedule(43), "different seed, different schedule");
        let hits = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&hits),
            "rate 0.5 over 64 draws fired {hits} times"
        );
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::new(1).with_fault(FaultSite::StoreRead, 1.0, 1);
        let clone = plan.clone();
        assert!(clone.should_inject(FaultSite::StoreRead));
        assert_eq!(plan.injections(FaultSite::StoreRead), 1);
        assert!(!plan.should_inject(FaultSite::StoreRead), "budget shared");
    }

    #[test]
    fn plan_equality_ignores_counters() {
        let a = FaultPlan::new(5).with_fault(FaultSite::StoreWrite, 1.0, 2);
        let b = FaultPlan::new(5).with_fault(FaultSite::StoreWrite, 1.0, 2);
        assert_eq!(a, b);
        let _ = a.should_inject(FaultSite::StoreWrite);
        assert_eq!(a, b, "spent budget does not change identity");
        assert_ne!(
            a,
            FaultPlan::new(6).with_fault(FaultSite::StoreWrite, 1.0, 2)
        );
        assert_ne!(a, FaultPlan::none());
    }

    #[test]
    fn delay_site_reports_the_configured_delay() {
        let plan = FaultPlan::new(2)
            .with_fault(FaultSite::StoreDelay, 1.0, 1)
            .with_write_delay(Duration::from_millis(5));
        assert_eq!(plan.write_delay(), Some(Duration::from_millis(5)));
        assert_eq!(plan.write_delay(), None, "budget of one");
    }

    #[test]
    fn injected_errors_name_the_site() {
        let plan = FaultPlan::new(9);
        let err = plan.io_error(FaultSite::StoreTruncate);
        assert!(err.to_string().contains("store-truncate"));
        assert!(err.to_string().contains("seed 9"));
    }
}
