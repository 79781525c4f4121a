//! Job lifecycle stages and the timestamped marks a job's record keeps.
//!
//! The scheduler pushes one [`TraceEvent`] onto a job's own record at
//! each stage, under the lock it already holds there, so nothing is
//! shared between jobs and nothing overwrites a mark.  A
//! [`crate::JobTimeline`] is built from those marks.
//!
//! Timestamps come from [`crate::clock::now_ns`] and are observability
//! metadata only — they order timeline marks, they never feed job identity
//! or tuning results.

/// The lifecycle stage a trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The request arrived at the scheduler.
    Received,
    /// The job was admitted to the priority queue.
    Queued,
    /// A worker dequeued the job.
    Dequeued,
    /// Execution began on a worker.
    Executing,
    /// One tuning epoch finished (the event's `arg` is the epoch index).
    Epoch,
    /// The report was persisted to the durable store (`arg` 1 = answered
    /// from the store without executing).
    Persisted,
    /// The scheduler answered a submission with the job: a fresh one, or
    /// one deduplicated onto the job while it was live.
    Responded,
    /// The job reached the `Done` terminal state.
    Completed,
    /// The job reached the `Failed` terminal state.
    Failed,
    /// The job reached the `TimedOut` terminal state.
    TimedOut,
}

impl Stage {
    /// The stage's wire/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Received => "received",
            Stage::Queued => "queued",
            Stage::Dequeued => "dequeued",
            Stage::Executing => "executing",
            Stage::Epoch => "epoch",
            Stage::Persisted => "persisted",
            Stage::Responded => "responded",
            Stage::Completed => "completed",
            Stage::Failed => "failed",
            Stage::TimedOut => "timed-out",
        }
    }
}

/// One recorded mark on a job's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Lifecycle stage.
    pub stage: Stage,
    /// Stage-specific detail (epoch index, store-hit flag, ...).
    pub arg: u64,
    /// Monotonic timestamp ([`crate::clock::now_ns`]).
    pub at_ns: u64,
}
