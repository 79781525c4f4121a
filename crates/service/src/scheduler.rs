//! The job scheduler: a bounded priority queue in front of a worker pool.
//!
//! Jobs are whole [`FrameworkConfig`]s; workers execute them through
//! [`MicroGrad::run_on`] on a per-job platform.  Every job of one platform
//! key evaluates on that key's resident memo table, which the key's first
//! job warm-starts from the [`ResultStore`]'s cache dump; after each job
//! only the evaluations it added are appended to the dump.  The
//! scheduler, not the client, picks a job's evaluation threads: every job
//! runs at `parallelism: Some(0)`, so its batches borrow the process's
//! spare cores.  Job identity is [`FrameworkConfig::fingerprint`] of the
//! configuration with `parallelism` cleared: submitting a configuration
//! that is already queued, running or done returns the existing job id
//! instead of executing twice, and a configuration whose report is already
//! in the durable store completes instantly without running at all.  On a
//! fingerprint match the full configuration is compared, so a 64-bit
//! collision yields two independent jobs, never a shared report.
//!
//! Priorities are client-chosen `i64`s, higher first; ties run in
//! submission order.  The queue is bounded — a full queue rejects new work
//! (back-pressure) rather than buffering without limit.

use crate::fault::FaultSite;
use crate::metrics::ServiceMetrics;
use crate::protocol::{JobState, JobSummary};
use crate::store::{job_identity, platform_key, ResultStore};
use crate::sync::{lock_or_recover, wait_or_recover};
use micrograd_codegen::GeneratorInput;
use micrograd_core::memo::MemoTable;
use micrograd_core::{
    CancelToken, FrameworkConfig, FrameworkOutput, Metrics, MicroGrad, MicroGradError,
    ProgressObserver, SimPlatform,
};
use micrograd_obs::clock::now_ns;
use micrograd_obs::{JobTimeline, Stage, TraceEvent};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Scheduler sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Background worker threads.  `0` starts none: jobs then only run
    /// when [`Scheduler::step`] is called (useful for tests and benches
    /// that want deterministic, inline execution).
    pub workers: usize,
    /// Maximum number of queued (not yet running) jobs; further submits
    /// are rejected until the queue drains.
    pub queue_capacity: usize,
    /// Maximum number of *terminal* (done/failed) job records kept
    /// resident; beyond it the records least recently handed out (by
    /// completion or by a submission that dedups onto them) are evicted,
    /// with their cloned reports, so a long-lived daemon's memory stays
    /// bounded.  An evicted job id answers "unknown job"; resubmitting its
    /// configuration is answered from the durable store.
    pub retained_jobs: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            queue_capacity: 64,
            retained_jobs: 1024,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} jobs); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The outcome of an accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The job id to poll and fetch with.
    pub job: u64,
    /// An identical job already existed; `job` refers to it.
    pub deduped: bool,
    /// The report was answered from the durable store without executing.
    pub cached: bool,
}

/// The result of asking for a job's report.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchResult {
    /// No such job.
    NotFound,
    /// The job exists but has not completed; its current state is included.
    NotReady(JobState),
    /// The completed report.
    Ready(FrameworkOutput),
}

struct JobRecord {
    id: u64,
    config: FrameworkConfig,
    fingerprint: u64,
    priority: i64,
    state: JobState,
    output: Option<FrameworkOutput>,
    /// Cooperative-cancellation handle seeded into the job's platform.
    /// Carries the job's deadline (measured from admission) when the
    /// submission specified one; never fires otherwise.
    cancel: CancelToken,
    /// The job's timeline marks, `received` first, in the order they
    /// happened: each is pushed under the scheduler lock.  Observability
    /// metadata only (latency histograms, timelines) — never part of job
    /// identity, dedup or tuning results.
    marks: Vec<TraceEvent>,
}

impl JobRecord {
    fn mark(&mut self, stage: Stage, arg: u64) {
        self.marks.push(TraceEvent {
            stage,
            arg,
            at_ns: now_ns(),
        });
    }

    /// When the job reached `stage` (0 if it has not).
    fn at(&self, stage: Stage) -> u64 {
        self.marks
            .iter()
            .find(|mark| mark.stage == stage)
            .map_or(0, |mark| mark.at_ns)
    }

    fn timeline(&self) -> Option<JobTimeline> {
        JobTimeline::from_events(self.id, &self.marks)
    }

    fn summary(&self) -> JobSummary {
        JobSummary {
            job: self.id,
            fingerprint: self.fingerprint,
            use_case: self.config.use_case.kind_name().to_owned(),
            priority: self.priority,
            state: self.state.clone(),
        }
    }
}

/// Heap entry: max-heap on (priority, earlier submission first).
#[derive(PartialEq, Eq)]
struct QueuedEntry {
    priority: i64,
    seq: u64,
    job: u64,
}

impl Ord for QueuedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct SchedState {
    next_job: u64,
    next_seq: u64,
    queue: BinaryHeap<QueuedEntry>,
    jobs: HashMap<u64, JobRecord>,
    by_fingerprint: HashMap<u64, Vec<u64>>,
    /// Terminal job ids, least recently handed out first — the eviction
    /// order that keeps the resident record count bounded by
    /// `retained_jobs`.
    terminal_order: VecDeque<u64>,
    running: u64,
    /// Resident memo tables by platform key, least recently released
    /// first.  A table is *held* while a job evaluates on it; at most
    /// `max(workers, 1)` unheld ones stay (see [`SchedState::release_table`]).
    tables: Vec<(String, Arc<EvalCache>)>,
    /// External terminal-state observer (the server's reactor wakeup).
    hook: Option<TerminalHook>,
    shutdown: bool,
}

/// The memo table the jobs of one platform key share.
type EvalCache = MemoTable<GeneratorInput, Metrics>;

/// Callback invoked whenever a job reaches a terminal state.
///
/// Invoked with the scheduler's internal lock held, so implementations
/// must be quick and must never call back into the scheduler — the
/// server's hook only appends to the reactor's event inbox and writes one
/// byte to its wake pipe.
pub type TerminalHook = Arc<dyn Fn(u64, &JobState) + Send + Sync>;

struct SchedulerInner {
    state: Mutex<SchedState>,
    /// Signaled when work is enqueued or shutdown begins.
    work_ready: Condvar,
    store: ResultStore,
    config: SchedulerConfig,
    /// The registry and histograms every counter bump goes through.
    metrics: ServiceMetrics,
}

impl SchedulerInner {
    /// Adds a mark to a job's timeline, taking the scheduler lock.
    fn mark(&self, job: u64, stage: Stage, arg: u64) {
        lock_or_recover(&self.state).mark(job, stage, arg);
    }
}

/// A bounded-priority-queue scheduler executing framework jobs on a worker
/// pool, with store-backed dedup and warm-started memo caches.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Creates a scheduler over a result store and starts its workers.
    #[must_use]
    pub fn new(config: SchedulerConfig, store: ResultStore) -> Self {
        let metrics = ServiceMetrics::new();
        metrics.workers.set(config.workers as u64);
        let inner = Arc::new(SchedulerInner {
            state: Mutex::new(SchedState {
                next_job: 1,
                next_seq: 0,
                queue: BinaryHeap::new(),
                jobs: HashMap::new(),
                by_fingerprint: HashMap::new(),
                terminal_order: VecDeque::new(),
                running: 0,
                tables: Vec::new(),
                hook: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            store,
            config,
            metrics,
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job with no deadline.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the bounded queue is at
    /// capacity and [`SubmitError::ShuttingDown`] during shutdown.
    pub fn submit(
        &self,
        config: FrameworkConfig,
        priority: i64,
    ) -> Result<SubmitOutcome, SubmitError> {
        self.submit_with_deadline(config, priority, None)
    }

    /// Submits a job, optionally bounded by a deadline in milliseconds
    /// measured from admission.  A job that exceeds its deadline — queued
    /// or running — is cancelled cooperatively, reaches
    /// [`JobState::TimedOut`], frees its worker, and never satisfies
    /// deduplication afterwards.  The deadline is submit metadata, not job
    /// identity: a submission that dedups onto an existing job keeps that
    /// job's deadline.  Neither is `config.parallelism`: the scheduler
    /// picks every job's threads itself, so the field is cleared here.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the bounded queue is at
    /// capacity and [`SubmitError::ShuttingDown`] during shutdown.
    pub fn submit_with_deadline(
        &self,
        config: FrameworkConfig,
        priority: i64,
        deadline_ms: Option<u64>,
    ) -> Result<SubmitOutcome, SubmitError> {
        let config = job_identity(config);
        let fingerprint = config.fingerprint();
        let inner = &self.inner;

        // Dedup under the lock: an identical configuration that is queued,
        // running or already completed answers with the existing job.
        // Failed jobs do not absorb resubmissions — a retry is a fresh
        // execution.
        {
            let mut state = lock_or_recover(&inner.state);
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if let Some(job) = state.dedup_match(fingerprint, &config) {
                inner.metrics.jobs_submitted.inc();
                inner.metrics.jobs_deduped.inc();
                return Ok(SubmitOutcome {
                    job,
                    deduped: true,
                    cached: false,
                });
            }
        }

        // Durable-store probe *without* the lock: a disk read plus JSON
        // parse must not stall status/fetch polls or the worker pool.
        let stored = inner.store.load_report(&config);

        let mut state = lock_or_recover(&inner.state);
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Re-check dedup: an identical submission may have been admitted
        // while the lock was released for the store probe.
        if let Some(job) = state.dedup_match(fingerprint, &config) {
            inner.metrics.jobs_submitted.inc();
            inner.metrics.jobs_deduped.inc();
            return Ok(SubmitOutcome {
                job,
                deduped: true,
                cached: false,
            });
        }

        // Durable-store hit: the job is born completed; its deadline is
        // moot and the token is left inert.
        if let Some(output) = stored {
            let job = state.admit(config, fingerprint, priority, None);
            inner.metrics.jobs_submitted.inc();
            inner.metrics.store_hits.inc();
            // `arg = 1` marks "already persisted": the report predates
            // this submission, nothing was written now.
            state.mark(job, Stage::Persisted, 1);
            state.finish(inner, job, JobState::Done, Some(output));
            return Ok(SubmitOutcome {
                job,
                deduped: false,
                cached: true,
            });
        }

        if state.queue.len() >= inner.config.queue_capacity {
            inner.metrics.jobs_rejected.inc();
            return Err(SubmitError::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }

        let job = state.admit(config, fingerprint, priority, deadline_ms);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(QueuedEntry { priority, seq, job });
        inner.metrics.jobs_submitted.inc();
        state.mark(job, Stage::Queued, 0);
        state.mark(job, Stage::Responded, 0);
        inner
            .metrics
            .sync_queue(state.queue.len() as u64, state.running);
        inner.work_ready.notify_one();
        Ok(SubmitOutcome {
            job,
            deduped: false,
            cached: false,
        })
    }

    /// The current state of a job, if it exists.
    #[must_use]
    pub fn status(&self, job: u64) -> Option<JobState> {
        let state = lock_or_recover(&self.inner.state);
        state.jobs.get(&job).map(|record| record.state.clone())
    }

    /// The completed report of a job.
    #[must_use]
    pub fn fetch(&self, job: u64) -> FetchResult {
        let state = lock_or_recover(&self.inner.state);
        match state.jobs.get(&job) {
            None => FetchResult::NotFound,
            Some(record) => match &record.output {
                Some(output) => FetchResult::Ready(output.clone()),
                None => FetchResult::NotReady(record.state.clone()),
            },
        }
    }

    /// Summaries of every known job, ordered by id.
    #[must_use]
    pub fn list(&self) -> Vec<JobSummary> {
        let state = lock_or_recover(&self.inner.state);
        let mut jobs: Vec<JobSummary> = state.jobs.values().map(JobRecord::summary).collect();
        jobs.sort_by_key(|summary| summary.job);
        jobs
    }

    /// The metrics registry and histograms this scheduler records
    /// through.
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// Renders the metrics registry in the Prometheus text exposition
    /// format, after counting the store's reports (the one series not
    /// written where its value changes).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let stored_reports = self.inner.store.report_count();
        self.inner.metrics.stored_reports.set(stored_reports);
        self.inner.metrics.render_prometheus()
    }

    /// The per-stage timeline of a job, read from its record: the marks so
    /// far of a job in flight, the whole timeline of a terminal one.
    /// `None` for jobs this scheduler does not hold (never submitted, or
    /// evicted by the retention cap).
    #[must_use]
    pub fn timeline(&self, job: u64) -> Option<JobTimeline> {
        let state = lock_or_recover(&self.inner.state);
        state.jobs.get(&job).and_then(JobRecord::timeline)
    }

    /// Pops and executes the highest-priority queued job on the calling
    /// thread; returns `false` when the queue is empty.
    ///
    /// This is the `workers: 0` execution mode for tests and benches that
    /// want inline, deterministic scheduling.
    pub fn step(&self) -> bool {
        // The guard is a temporary of this statement: the lock is released
        // before the job runs.
        let job = pop_job(&self.inner, &mut lock_or_recover(&self.inner.state));
        match job {
            Some(job) => {
                execute_job(&self.inner, job);
                true
            }
            None => false,
        }
    }

    /// Stops accepting new submissions immediately: from this point every
    /// [`submit`](Self::submit) returns [`SubmitError::ShuttingDown`]
    /// instead of acknowledging work that would be lost on exit.  Running
    /// jobs finish, queued jobs stay queued, and reads (status / fetch /
    /// list / metrics) keep being served.  Non-blocking;
    /// [`shutdown`](Self::shutdown) additionally joins the workers.
    pub fn begin_shutdown(&self) {
        let mut state = lock_or_recover(&self.inner.state);
        state.shutdown = true;
        self.inner.work_ready.notify_all();
    }

    /// Stops accepting work, lets running jobs finish, and joins the
    /// workers.  Queued jobs remain queued (their state stays `Queued`).
    /// Idempotent: the first call takes the worker handles.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *lock_or_recover(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// The store this scheduler persists to.
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.inner.store
    }

    /// Installs the terminal-state observer.  The hook fires once per job
    /// on the transition into `Done`/`Failed`/`TimedOut` — including
    /// instant store-hit completions and queued-deadline expiries — and is
    /// invoked with the scheduler lock held, so it must be quick and must
    /// not call back into the scheduler.  The server uses it to wake the
    /// event loop and resolve pending `watch` requests without polling;
    /// it is the one way in-process code waits for a job.
    pub fn set_terminal_hook(&self, hook: TerminalHook) {
        lock_or_recover(&self.inner.state).hook = Some(hook);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SchedState {
    /// An existing job with this exact configuration that a submission can
    /// share.  Failed and timed-out jobs never absorb resubmissions — a
    /// retry after either is a fresh execution, so an expired deadline
    /// never poisons the dedup table.
    ///
    /// A matched terminal record moves to the back of the eviction order:
    /// the submitter is about to `watch` or `fetch` it, so the next
    /// eviction must not take it first.  A matched live job's timeline
    /// marks the response.
    fn dedup_match(&mut self, fingerprint: u64, config: &FrameworkConfig) -> Option<u64> {
        let job = self
            .by_fingerprint
            .get(&fingerprint)?
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .find(|record| {
                record.config == *config
                    && !matches!(record.state, JobState::Failed { .. } | JobState::TimedOut)
            })
            .map(|record| record.id)?;
        if let Some(pos) = self.terminal_order.iter().position(|&id| id == job) {
            self.terminal_order.remove(pos);
            self.terminal_order.push_back(job);
        } else {
            self.mark(job, Stage::Responded, 0);
        }
        Some(job)
    }

    fn mark(&mut self, job: u64, stage: Stage, arg: u64) {
        if let Some(record) = self.jobs.get_mut(&job) {
            record.mark(stage, arg);
        }
    }

    /// Every job's one transition into a terminal state: counts it, marks
    /// it on the job's timeline, records the job's total latency, sets the
    /// state and report, tells the terminal hook, then evicts the terminal
    /// records least recently handed out beyond `retained_jobs`, so
    /// resident history stays bounded on a long-lived daemon.  Queued and
    /// running jobs are never evicted.  A job whose record is gone is left
    /// alone.
    fn finish(
        &mut self,
        inner: &SchedulerInner,
        job: u64,
        terminal: JobState,
        output: Option<FrameworkOutput>,
    ) {
        let Some(record) = self.jobs.get_mut(&job) else {
            return;
        };
        let (counter, stage) = match &terminal {
            JobState::Done => (&inner.metrics.jobs_completed, Stage::Completed),
            JobState::TimedOut => (&inner.metrics.jobs_timed_out, Stage::TimedOut),
            _ => (&inner.metrics.jobs_failed, Stage::Failed),
        };
        counter.inc();
        record.mark(stage, 0);
        inner
            .metrics
            .job_total_us
            .record(record.at(stage).saturating_sub(record.at(Stage::Received)) / 1_000);
        record.state = terminal;
        record.output = output;
        if let Some(hook) = &self.hook {
            hook(job, &record.state);
        }
        self.terminal_order.push_back(job);
        while self.terminal_order.len() > inner.config.retained_jobs {
            let Some(evicted) = self.terminal_order.pop_front() else {
                break;
            };
            if let Some(record) = self.jobs.remove(&evicted) {
                if let Some(ids) = self.by_fingerprint.get_mut(&record.fingerprint) {
                    ids.retain(|id| *id != evicted);
                    if ids.is_empty() {
                        self.by_fingerprint.remove(&record.fingerprint);
                    }
                }
            }
        }
    }

    /// Creates a job record, `received` its first mark, and indexes it by
    /// fingerprint.  The deadline clock starts here, at admission.
    fn admit(
        &mut self,
        config: FrameworkConfig,
        fingerprint: u64,
        priority: i64,
        deadline_ms: Option<u64>,
    ) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        let cancel = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::never(),
        };
        self.jobs.insert(
            id,
            JobRecord {
                id,
                config,
                fingerprint,
                priority,
                state: JobState::Queued,
                output: None,
                cancel,
                marks: vec![TraceEvent {
                    stage: Stage::Received,
                    arg: 0,
                    at_ns: now_ns(),
                }],
            },
        );
        self.by_fingerprint.entry(fingerprint).or_default().push(id);
        id
    }

    /// A handle on `key`'s resident table, if there is one.
    fn table(&self, key: &str) -> Option<Arc<EvalCache>> {
        self.tables
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, table)| Arc::clone(table))
    }

    /// Makes a job's freshly loaded table resident, unless a racing job of
    /// the same key got there first (both tables then serve their own
    /// jobs, and both jobs append to the dump).
    fn adopt_table(&mut self, key: &str, table: &Arc<EvalCache>) {
        if self.table(key).is_none() {
            self.tables.push((key.to_owned(), Arc::clone(table)));
        }
    }

    /// Called when a job of `key` has dropped its handles: marks the
    /// key's table most recently used and reclaims its displaced entries
    /// when no other job holds it, then drops the least recently used
    /// tables no job holds beyond `keep`.  Their dumps already hold every
    /// entry, so nothing is lost.  Returns the dropped tables, for the
    /// caller to free outside the lock.
    fn release_table(&mut self, key: &str, keep: usize) -> Vec<Arc<EvalCache>> {
        if let Some(pos) = self.tables.iter().position(|(k, _)| k == key) {
            let mut entry = self.tables.remove(pos);
            if let Some(table) = Arc::get_mut(&mut entry.1) {
                table.reclaim();
            }
            self.tables.push(entry);
        }
        // A count of one is this list's own handle.  Jobs take handles only
        // under the lock, so a count read here is never too low: a stale
        // one errs toward keeping a table.
        let unheld = |table: &Arc<EvalCache>| Arc::strong_count(table) == 1;
        let mut excess = self
            .tables
            .iter()
            .filter(|(_, table)| unheld(table))
            .count()
            .saturating_sub(keep);
        let mut dropped = Vec::new();
        let mut i = 0;
        while let Some((_, table)) = self.tables.get(i).filter(|_| excess > 0) {
            if unheld(table) {
                dropped.push(self.tables.remove(i).1);
                excess -= 1;
            } else {
                i += 1;
            }
        }
        dropped
    }
}

/// Pops the next runnable job and marks it running (caller holds the lock).
///
/// A job whose deadline expired while it sat in the queue is retired to
/// [`JobState::TimedOut`] here, without ever occupying a worker, and the
/// next entry is considered instead.
fn pop_job(inner: &SchedulerInner, state: &mut SchedState) -> Option<u64> {
    let popped = loop {
        let Some(entry) = state.queue.pop() else {
            break None;
        };
        // A queue entry whose record has vanished is stale (only terminal
        // records are ever evicted, and a queued job is not terminal); skip
        // it rather than trust the invariant with a panic.
        let Some(record) = state.jobs.get_mut(&entry.job) else {
            continue;
        };
        if record.cancel.is_cancelled() {
            state.finish(inner, entry.job, JobState::TimedOut, None);
            continue;
        }
        record.state = JobState::Running;
        record.mark(Stage::Dequeued, 0);
        inner.metrics.job_queue_wait_us.record(
            record
                .at(Stage::Dequeued)
                .saturating_sub(record.at(Stage::Received))
                / 1_000,
        );
        state.running += 1;
        inner.metrics.executions.inc();
        break Some(entry.job);
    };
    inner
        .metrics
        .sync_queue(state.queue.len() as u64, state.running);
    popped
}

fn worker_loop(inner: &Arc<SchedulerInner>) {
    loop {
        let job = {
            let mut state = lock_or_recover(&inner.state);
            loop {
                if state.shutdown {
                    return;
                }
                match pop_job(inner, &mut state) {
                    Some(job) => break job,
                    None => state = wait_or_recover(&inner.work_ready, state),
                }
            }
        };
        execute_job(inner, job);
    }
}

/// Runs one job to completion: evaluate on the platform key's resident
/// memo table (loading it from the store's cache dump if it is not
/// resident), append the evaluations the job added to the dump, persist
/// the report, publish the terminal state.
///
/// Execution runs under `catch_unwind`: a panic inside the framework marks
/// the job `Failed` instead of killing the worker thread and leaving the
/// job `Running` forever.
fn execute_job(inner: &Arc<SchedulerInner>, job: u64) {
    let (config, cancel, key, resident, dequeued_ns) = {
        let mut state = lock_or_recover(&inner.state);
        let Some(record) = state.jobs.get_mut(&job) else {
            // The record vanished between pop and execute (running jobs are
            // never evicted, so this is unreachable today); give the worker
            // slot back and run nothing.
            state.running = state.running.saturating_sub(1);
            return;
        };
        record.mark(Stage::Executing, 0);
        let (config, cancel) = (record.config.clone(), record.cancel.clone());
        let dequeued_ns = record.at(Stage::Dequeued);
        let key = platform_key(&config);
        let resident = state.table(&key);
        (config, cancel, key, resident, dequeued_ns)
    };

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inner
            .store
            .fault_plan()
            .should_inject(FaultSite::WorkerPanic)
        {
            // lint:allow(no-panic-paths): deliberate WorkerPanic fault injection, caught by the catch_unwind fence below
            panic!(
                "{}",
                inner.store.fault_plan().io_error(FaultSite::WorkerPanic)
            );
        }
        let framework = MicroGrad::new(config.clone());
        // Observe tuner-epoch boundaries: each batch the tuner hands the
        // platform marks one epoch in the job's timeline (detail = epoch
        // ordinal), alongside a global epoch counter for throughput rates.
        let epoch = AtomicU64::new(0);
        let observer_inner = Arc::clone(inner);
        let observer = ProgressObserver::new(move |_evaluations: usize| {
            let n = epoch.fetch_add(1, Ordering::Relaxed) + 1;
            observer_inner.metrics.epochs.inc();
            observer_inner.mark(job, Stage::Epoch, n);
        });
        // Seed the job's cancellation token into the platform: the tuner
        // checks it at epoch boundaries and the simulator every
        // `CANCEL_CHECK_INTERVAL` instructions, so an expired deadline
        // frees this worker promptly.  `Some(0)`: each batch evaluates on
        // this worker plus whatever spare cores no other job holds.  The
        // platform evaluates on the key's table and allocates none of its
        // own.
        let table = resident
            .clone()
            .unwrap_or_else(|| Arc::new(MemoTable::new(SimPlatform::DEFAULT_CACHE_CAPACITY)));
        let platform = framework
            .platform()
            .with_parallelism(Some(0))
            .with_cancel_token(cancel.clone())
            .with_progress_observer(observer)
            .with_cache(Arc::clone(&table));
        if resident.is_none() {
            let stored = inner.store.load_cache(&key);
            let held = stored.len();
            // Fewer admitted than held: duplicated chunks, or more than the
            // table can hold.  Rewrite the dump as what the table holds.
            if platform.import_cache(stored) < held {
                if let Err(e) = inner.store.save_cache(&key, platform.export_cache()) {
                    eprintln!("microgradd: failed to compact cache dump for `{key}`: {e}");
                }
            }
            let mut state = lock_or_recover(&inner.state);
            state.adopt_table(&key, &table);
        }

        let mark = table.mark();
        let result = framework.run_on(&platform);
        // Free the platform's evaluation state (its keystream) before the
        // persistence buffers are built.
        let cache_stats = platform.cache_stats();
        drop(platform);

        // The job's additions, borrowed from the table: the store renders
        // the chunk from them one entry at a time.
        let added: Vec<_> = table
            .iter_since(mark)
            .map(|(_, input, metrics)| (input, metrics))
            .collect();
        if let Err(e) = inner.store.append_cache(&key, added) {
            eprintln!("microgradd: failed to persist cache dump for `{key}`: {e}");
        }
        if let Ok(output) = &result {
            match inner.store.save_report(&config, output) {
                Ok(()) => inner.mark(job, Stage::Persisted, 0),
                Err(e) => {
                    eprintln!("microgradd: failed to persist report for job {job}: {e}");
                }
            }
        }
        inner.metrics.record_cache(&cache_stats);
        result
    }));
    let (terminal, output) = match outcome {
        Ok(Ok(output)) => (JobState::Done, Some(output)),
        // A cancellation raised by the job's own (deadline-armed) token is
        // a timeout, not a failure: the deadline is the only thing that
        // fires these per-job tokens.
        Ok(Err(MicroGradError::Cancelled)) if cancel.is_cancelled() => (JobState::TimedOut, None),
        Ok(Err(e)) => (
            JobState::Failed {
                error: e.to_string(),
            },
            None,
        ),
        Err(payload) => (
            JobState::Failed {
                error: format!("job execution panicked: {}", panic_message(&*payload)),
            },
            None,
        ),
    };

    // With the job's last table handle gone, its table counts as unheld;
    // tables the release evicts are freed after the lock.
    drop(resident);
    let _evicted = {
        let mut state = lock_or_recover(&inner.state);
        state.running = state.running.saturating_sub(1);
        inner
            .metrics
            .sync_queue(state.queue.len() as u64, state.running);
        let evicted = state.release_table(&key, inner.config.workers.max(1));
        inner.metrics.cache_entries.set(
            state
                .tables
                .iter()
                .map(|(_, table)| table.len() as u64)
                .sum(),
        );
        inner
            .metrics
            .job_execution_us
            .record(now_ns().saturating_sub(dequeued_ns) / 1_000);
        state.finish(inner, job, terminal, output);
        evicted
    };
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ScratchDir;
    use micrograd_core::{CoreKind, KnobSpaceKind, MetricKind, StressGoal, UseCaseConfig};

    fn tiny_config(seed: u64) -> FrameworkConfig {
        FrameworkConfig {
            core: CoreKind::Small,
            knob_space: KnobSpaceKind::InstructionFractions,
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal: StressGoal::Minimize,
            },
            max_epochs: 2,
            dynamic_len: 3_000,
            reference_len: 3_000,
            seed,
            ..FrameworkConfig::default()
        }
    }

    /// Every terminal transition the scheduler reports, remembered, so a
    /// test can wait for jobs that finish in either order.
    #[derive(Default)]
    struct Terminals {
        seen: Mutex<Vec<(u64, JobState)>>,
        changed: Condvar,
    }

    impl Terminals {
        /// Installs the scheduler's terminal hook, recording into a fresh
        /// log.  Install it before submitting.
        fn install(scheduler: &Scheduler) -> Arc<Terminals> {
            let log = Arc::new(Terminals::default());
            let hook_log = Arc::clone(&log);
            scheduler.set_terminal_hook(Arc::new(move |job, state| {
                lock_or_recover(&hook_log.seen).push((job, state.clone()));
                hook_log.changed.notify_all();
            }));
            log
        }

        /// Blocks until `job` reaches a terminal state and returns it.
        fn wait(&self, job: u64) -> JobState {
            let mut seen = lock_or_recover(&self.seen);
            loop {
                if let Some((_, state)) = seen.iter().find(|(id, _)| *id == job) {
                    return state.clone();
                }
                let (next, waited) = self
                    .changed
                    .wait_timeout(seen, Duration::from_secs(60))
                    .expect("terminal log lock");
                assert!(!waited.timed_out(), "job {job} never finished");
                seen = next;
            }
        }

        /// How many times the hook reported `job`.
        fn count(&self, job: u64) -> usize {
            lock_or_recover(&self.seen)
                .iter()
                .filter(|(id, _)| *id == job)
                .count()
        }
    }

    fn manual_scheduler(queue_capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity,
                ..SchedulerConfig::default()
            },
            ResultStore::in_memory(),
        )
    }

    #[test]
    fn step_executes_jobs_by_priority_then_fifo() {
        let scheduler = manual_scheduler(16);
        let low = scheduler.submit(tiny_config(1), 0).unwrap().job;
        let tied_first = scheduler.submit(tiny_config(2), 5).unwrap().job;
        let tied_second = scheduler.submit(tiny_config(3), 5).unwrap().job;
        let high = scheduler.submit(tiny_config(4), 9).unwrap().job;

        let mut completion_order = Vec::new();
        while scheduler.step() {
            for summary in scheduler.list() {
                if summary.state == JobState::Done && !completion_order.contains(&summary.job) {
                    completion_order.push(summary.job);
                }
            }
        }
        assert_eq!(completion_order, vec![high, tied_first, tied_second, low]);
        assert_eq!(scheduler.metrics().value("micrograd_executions_total"), 4);
    }

    #[test]
    fn identical_submissions_share_one_job() {
        let scheduler = manual_scheduler(16);
        let first = scheduler.submit(tiny_config(1), 0).unwrap();
        assert!(!first.deduped);
        let second = scheduler.submit(tiny_config(1), 3).unwrap();
        assert!(second.deduped);
        assert_eq!(second.job, first.job);
        assert!(!second.cached);

        assert!(scheduler.step());
        assert!(!scheduler.step(), "one execution for two submissions");
        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_jobs_submitted_total"), 2);
        assert_eq!(metrics.value("micrograd_jobs_deduped_total"), 1);
        assert_eq!(metrics.value("micrograd_executions_total"), 1);

        // Dedup also applies to completed jobs.
        let third = scheduler.submit(tiny_config(1), 0).unwrap();
        assert!(third.deduped);
        assert_eq!(third.job, first.job);
    }

    #[test]
    fn queue_capacity_rejects_overflow() {
        let scheduler = manual_scheduler(2);
        scheduler.submit(tiny_config(1), 0).unwrap();
        scheduler.submit(tiny_config(2), 0).unwrap();
        let err = scheduler.submit(tiny_config(3), 0).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("full"));
        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_jobs_rejected_total"), 1);
        assert_eq!(metrics.value("micrograd_jobs_submitted_total"), 2);
        assert_eq!(metrics.value("micrograd_queue_depth"), 2);

        // Draining the queue admits work again.
        assert!(scheduler.step());
        scheduler.submit(tiny_config(3), 0).unwrap();
    }

    #[test]
    fn store_hit_completes_without_executing() {
        let scratch = ScratchDir::new("sched-store");
        let store = ResultStore::open(scratch.path()).unwrap();
        let config = tiny_config(1);

        {
            let scheduler = Scheduler::new(
                SchedulerConfig {
                    workers: 0,
                    queue_capacity: 8,
                    ..SchedulerConfig::default()
                },
                store,
            );
            let receipt = scheduler.submit(config.clone(), 0).unwrap();
            assert!(!receipt.cached);
            assert!(scheduler.step());
            assert_eq!(scheduler.status(receipt.job), Some(JobState::Done));
        }

        // A fresh scheduler over the same directory — a "restarted daemon".
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::open(scratch.path()).unwrap(),
        );
        let receipt = scheduler.submit(config, 0).unwrap();
        assert!(receipt.cached, "answered from the durable store");
        assert_eq!(scheduler.status(receipt.job), Some(JobState::Done));
        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_executions_total"), 0);
        assert_eq!(metrics.value("micrograd_store_hits_total"), 1);
        assert!(matches!(
            scheduler.fetch(receipt.job),
            FetchResult::Ready(_)
        ));
    }

    #[test]
    fn background_workers_complete_jobs() {
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 2,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::in_memory(),
        );
        let terminals = Terminals::install(&scheduler);
        let a = scheduler.submit(tiny_config(1), 0).unwrap().job;
        let b = scheduler.submit(tiny_config(2), 0).unwrap().job;
        assert_eq!(terminals.wait(a), JobState::Done);
        assert_eq!(terminals.wait(b), JobState::Done);
        scheduler.shutdown();
        assert_eq!(
            scheduler.submit(tiny_config(3), 0),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn every_terminal_path_fires_the_hook_once_and_records_one_total() {
        use crate::fault::{FaultPlan, FaultSite};
        // One record retained: a finished job's report is then answered
        // from the store once the next job finishes.
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                retained_jobs: 1,
            },
            ResultStore::in_memory().with_fault_plan(FaultPlan::new(1).with_fault(
                FaultSite::WorkerPanic,
                1.0,
                1,
            )),
        );
        let terminals = Terminals::install(&scheduler);
        let mut finished = 0;
        let mut check = |job: u64, path: &str, expected: fn(&JobState) -> bool| {
            finished += 1;
            assert_eq!(terminals.count(job), 1, "{path}: one hook call");
            let state = scheduler.status(job).expect("the newest record stays");
            assert!(expected(&state), "{path}: ended {state:?}");
            assert_eq!(
                scheduler.metrics().value("micrograd_job_total_us"),
                finished,
                "{path}: one total-latency sample"
            );
        };

        let panicked = scheduler.submit(tiny_config(1), 0).unwrap().job;
        assert!(scheduler.step());
        check(
            panicked,
            "worker panic",
            |state| matches!(state, JobState::Failed { error } if error.contains("panicked")),
        );

        let done = scheduler.submit(tiny_config(2), 0).unwrap().job;
        assert!(scheduler.step());
        check(done, "done", |state| *state == JobState::Done);

        let mut invalid = tiny_config(3);
        invalid.max_epochs = 0;
        let failed = scheduler.submit(invalid, 0).unwrap().job;
        assert!(scheduler.step());
        check(
            failed,
            "failed",
            |state| matches!(state, JobState::Failed { error } if error.contains("max_epochs")),
        );

        let hit = scheduler.submit(tiny_config(2), 0).unwrap();
        assert!(hit.cached, "the evicted job's report is in the store");
        check(hit.job, "store hit", |state| *state == JobState::Done);

        let expired = scheduler
            .submit_with_deadline(tiny_config(4), 0, Some(0))
            .unwrap()
            .job;
        assert!(!scheduler.step(), "nothing runnable was left");
        check(expired, "queued-deadline expiry", |state| {
            *state == JobState::TimedOut
        });

        let mut overlong = tiny_config(5);
        overlong.max_epochs = 400;
        overlong.dynamic_len = 60_000;
        overlong.reference_len = 60_000;
        let timed_out = scheduler
            .submit_with_deadline(overlong, 0, Some(25))
            .unwrap()
            .job;
        assert!(scheduler.step());
        check(timed_out, "timed out while running", |state| {
            *state == JobState::TimedOut
        });

        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_jobs_completed_total"), 2);
        assert_eq!(metrics.value("micrograd_jobs_failed_total"), 2);
        assert_eq!(metrics.value("micrograd_jobs_timed_out_total"), 2);
    }

    #[test]
    fn store_hits_never_overwrite_a_queued_jobs_marks() {
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                retained_jobs: 1,
            },
            ResultStore::in_memory(),
        );
        for seed in [1, 2] {
            scheduler.submit(tiny_config(seed), 0).unwrap();
            assert!(scheduler.step());
        }
        let queued = scheduler.submit(tiny_config(3), 0).unwrap().job;
        // With one record retained, each submission evicts the other
        // configuration's record, so every one is a store hit.
        for i in 0..400 {
            let hit = scheduler.submit(tiny_config(1 + i % 2), 0).unwrap();
            assert!(hit.cached, "submission {i} is answered from the store");
        }
        assert!(scheduler.step());
        let timeline = scheduler.timeline(queued).expect("the record's timeline");
        let stages: Vec<&str> = timeline.marks.iter().map(|m| m.stage.as_str()).collect();
        assert_eq!(stages.first(), Some(&"received"), "{stages:?}");
        assert!(stages.contains(&"queued"), "{stages:?}");
        assert_eq!(stages.last(), Some(&"completed"), "{stages:?}");
    }

    #[test]
    fn a_restarted_scheduler_traces_only_its_own_jobs() {
        let scratch = ScratchDir::new("sched-restart-trace");
        {
            let scheduler = disk_scheduler(scratch.path());
            let job = scheduler.submit(tiny_config(1), 0).unwrap().job;
            assert!(scheduler.step());
            assert!(scheduler.timeline(job).is_some());
        }
        // Job ids restart with the scheduler: the first lifetime's job 1
        // is not this one's to answer for.
        let scheduler = disk_scheduler(scratch.path());
        assert!(scheduler.timeline(1).is_none(), "no record, no timeline");
        let receipt = scheduler.submit(tiny_config(2), 0).unwrap();
        assert_eq!((receipt.job, receipt.cached), (1, false));
        let timeline = scheduler.timeline(1).expect("the queued job's record");
        let stages: Vec<&str> = timeline.marks.iter().map(|m| m.stage.as_str()).collect();
        assert_eq!(stages, ["received", "queued", "responded"]);
    }

    #[test]
    fn terminal_records_are_evicted_beyond_the_retention_cap() {
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                retained_jobs: 2,
            },
            ResultStore::in_memory(),
        );
        let a = scheduler.submit(tiny_config(1), 0).unwrap().job;
        let b = scheduler.submit(tiny_config(2), 0).unwrap().job;
        let c = scheduler.submit(tiny_config(3), 0).unwrap().job;
        while scheduler.step() {}

        // The oldest terminal record was evicted; the two newest remain.
        assert!(scheduler.status(a).is_none(), "oldest record evicted");
        assert_eq!(scheduler.fetch(a), FetchResult::NotFound);
        assert_eq!(scheduler.status(b), Some(JobState::Done));
        assert_eq!(scheduler.status(c), Some(JobState::Done));

        // Resubmitting the evicted configuration is not lost work: the
        // report is still in the store, so it completes as a store hit
        // under a fresh job id.
        let again = scheduler.submit(tiny_config(1), 0).unwrap();
        assert!(again.cached, "evicted job's report served from the store");
        assert_ne!(again.job, a);
        assert_eq!(
            scheduler.metrics().value("micrograd_executions_total"),
            3,
            "nothing re-executed"
        );
    }

    #[test]
    fn a_record_handed_out_by_dedup_outlives_the_next_eviction() {
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                retained_jobs: 2,
            },
            ResultStore::in_memory(),
        );
        let a = scheduler.submit(tiny_config(1), 0).unwrap().job;
        assert!(scheduler.step());
        let b = scheduler.submit(tiny_config(2), 0).unwrap().job;
        assert!(scheduler.step());

        // The resubmission dedups onto the oldest resident record; its
        // submitter will fetch it next, so C's completion evicts B instead.
        let again = scheduler.submit(tiny_config(1), 0).unwrap();
        assert!(again.deduped);
        assert_eq!(again.job, a);
        scheduler.submit(tiny_config(3), 0).unwrap();
        assert!(scheduler.step());

        assert!(matches!(scheduler.fetch(a), FetchResult::Ready(_)));
        assert_eq!(scheduler.fetch(b), FetchResult::NotFound);
    }

    #[test]
    fn parallelism_is_not_job_identity() {
        let scratch = ScratchDir::new("sched-parallelism");
        let with = |parallelism| FrameworkConfig {
            parallelism,
            ..tiny_config(1)
        };
        let first = {
            let scheduler = Scheduler::new(
                SchedulerConfig {
                    workers: 0,
                    queue_capacity: 8,
                    ..SchedulerConfig::default()
                },
                ResultStore::open(scratch.path()).unwrap(),
            );
            let first = scheduler.submit(with(None), 0).unwrap();
            let second = scheduler.submit(with(Some(4)), 0).unwrap();
            assert!(second.deduped, "differs only in parallelism");
            assert_eq!(second.job, first.job);
            assert!(scheduler.step());
            assert!(!scheduler.step(), "one execution for both");
            match scheduler.fetch(first.job) {
                FetchResult::Ready(output) => output,
                other => panic!("expected report, got {other:?}"),
            }
        };

        // A restarted daemon answers a third variant from the store.
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::open(scratch.path()).unwrap(),
        );
        let third = scheduler.submit(with(Some(0)), 0).unwrap();
        assert!(third.cached, "answered from the durable store");
        assert_eq!(scheduler.fetch(third.job), FetchResult::Ready(first));
        assert_eq!(scheduler.metrics().value("micrograd_executions_total"), 0);
    }

    #[test]
    fn begin_shutdown_rejects_new_work_but_serves_reads() {
        let scheduler = manual_scheduler(8);
        let job = scheduler.submit(tiny_config(1), 0).unwrap().job;
        scheduler.begin_shutdown();
        // New submissions get an error instead of a receipt for work that
        // would be lost on exit; reads keep being served.
        assert_eq!(
            scheduler.submit(tiny_config(2), 0),
            Err(SubmitError::ShuttingDown)
        );
        assert_eq!(scheduler.status(job), Some(JobState::Queued));
        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_queue_depth"), 1);
        assert_eq!(metrics.value("micrograd_jobs_submitted_total"), 1);
    }

    #[test]
    fn failed_jobs_report_their_error_and_allow_retry() {
        let scheduler = manual_scheduler(8);
        let mut config = tiny_config(1);
        config.max_epochs = 0; // rejected by task validation
        let job = scheduler.submit(config.clone(), 0).unwrap().job;
        assert!(scheduler.step());
        match scheduler.status(job) {
            Some(JobState::Failed { error }) => {
                assert!(error.contains("max_epochs"), "got: {error}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(matches!(
            scheduler.fetch(job),
            FetchResult::NotReady(JobState::Failed { .. })
        ));
        // A resubmission of the failed configuration is a fresh job.
        let retry = scheduler.submit(config, 0).unwrap();
        assert!(!retry.deduped);
        assert_ne!(retry.job, job);
    }

    #[test]
    fn fetch_distinguishes_missing_and_pending() {
        let scheduler = manual_scheduler(8);
        assert_eq!(scheduler.fetch(42), FetchResult::NotFound);
        assert!(scheduler.status(42).is_none());
        let job = scheduler.submit(tiny_config(1), 0).unwrap().job;
        assert_eq!(
            scheduler.fetch(job),
            FetchResult::NotReady(JobState::Queued)
        );
        assert!(scheduler.step());
        match scheduler.fetch(job) {
            FetchResult::Ready(output) => assert!(output.as_stress().is_some()),
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn queued_deadline_expiry_times_out_without_executing() {
        let scheduler = manual_scheduler(8);
        let job = scheduler
            .submit_with_deadline(tiny_config(1), 0, Some(0))
            .unwrap()
            .job;
        // The zero deadline is already expired when the queue is served:
        // the job is retired without ever reaching a worker.
        assert!(!scheduler.step(), "nothing runnable was left");
        assert_eq!(scheduler.status(job), Some(JobState::TimedOut));
        let metrics = scheduler.metrics();
        assert_eq!(
            metrics.value("micrograd_executions_total"),
            0,
            "never occupied a worker"
        );
        assert_eq!(metrics.value("micrograd_jobs_timed_out_total"), 1);
        assert_eq!(metrics.value("micrograd_jobs_failed_total"), 0);
        assert!(matches!(
            scheduler.fetch(job),
            FetchResult::NotReady(JobState::TimedOut)
        ));
    }

    #[test]
    fn running_job_exceeding_its_deadline_times_out() {
        let scheduler = manual_scheduler(8);
        // A job far larger than its 25 ms budget: the platform's
        // cooperative checks must abort it mid-run.
        let mut config = tiny_config(1);
        config.max_epochs = 400;
        config.dynamic_len = 60_000;
        config.reference_len = 60_000;
        let job = scheduler
            .submit_with_deadline(config, 0, Some(25))
            .unwrap()
            .job;
        assert!(scheduler.step(), "the job did start running");
        assert_eq!(scheduler.status(job), Some(JobState::TimedOut));
        let metrics = scheduler.metrics();
        assert_eq!(metrics.value("micrograd_executions_total"), 1);
        assert_eq!(metrics.value("micrograd_jobs_timed_out_total"), 1);
        assert_eq!(
            metrics.value("micrograd_jobs_failed_total"),
            0,
            "a timeout is not a failure"
        );
    }

    #[test]
    fn timed_out_jobs_never_poison_the_dedup_table() {
        let scheduler = manual_scheduler(8);
        let config = tiny_config(1);
        let timed_out = scheduler
            .submit_with_deadline(config.clone(), 0, Some(0))
            .unwrap()
            .job;
        assert!(!scheduler.step());
        assert_eq!(scheduler.status(timed_out), Some(JobState::TimedOut));

        // Resubmitting the identical configuration is a fresh job that
        // runs to completion.
        let retry = scheduler.submit(config, 0).unwrap();
        assert!(!retry.deduped, "timed-out jobs do not absorb resubmits");
        assert_ne!(retry.job, timed_out);
        assert!(scheduler.step());
        assert_eq!(scheduler.status(retry.job), Some(JobState::Done));
    }

    #[test]
    fn injected_worker_panic_fails_the_job_and_spares_the_next() {
        use crate::fault::{FaultPlan, FaultSite};
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::in_memory().with_fault_plan(FaultPlan::new(1).with_fault(
                FaultSite::WorkerPanic,
                1.0,
                1,
            )),
        );
        let config = tiny_config(1);
        let job = scheduler.submit(config.clone(), 0).unwrap().job;
        assert!(scheduler.step());
        match scheduler.status(job) {
            Some(JobState::Failed { error }) => {
                assert!(error.contains("injected fault"), "got: {error}");
            }
            other => panic!("expected injected failure, got {other:?}"),
        }

        // The budget is spent: the retry executes cleanly.
        let retry = scheduler.submit(config, 0).unwrap();
        assert!(!retry.deduped);
        assert!(scheduler.step());
        assert_eq!(scheduler.status(retry.job), Some(JobState::Done));
    }

    /// `tiny_config(1)` with another stress goal or metric: another job
    /// of the same platform key.
    fn same_key_variant(metric: MetricKind, goal: StressGoal) -> FrameworkConfig {
        FrameworkConfig {
            use_case: UseCaseConfig::Stress { metric, goal },
            ..tiny_config(1)
        }
    }

    /// The one cache dump in a store directory, and its chunk count.
    fn cache_dump(dir: &std::path::Path) -> (std::path::PathBuf, usize) {
        let path = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .find(|path| path.to_string_lossy().contains("cache-"))
            .expect("a cache dump");
        let chunks = std::fs::read_to_string(&path)
            .unwrap()
            .matches("\n#micrograd-store v1 ")
            .count();
        (path, chunks)
    }

    fn disk_scheduler(dir: &std::path::Path) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::open(dir).unwrap(),
        )
    }

    #[test]
    fn warm_start_reuses_the_persisted_cache() {
        let scratch = ScratchDir::new("sched-warm");
        let key = platform_key(&tiny_config(1));

        // Two jobs of one key append one chunk each.
        let cold_misses = {
            let scheduler = disk_scheduler(scratch.path());
            scheduler.submit(tiny_config(1), 0).unwrap();
            assert!(scheduler.step());
            let first = scheduler.metrics().value("micrograd_cache_misses");
            scheduler
                .submit(same_key_variant(MetricKind::Ipc, StressGoal::Maximize), 0)
                .unwrap();
            assert!(scheduler.step());
            let second = scheduler.metrics().value("micrograd_cache_misses");
            assert!(second > first, "the second job computed some");
            second
        };
        assert!(cold_misses > 0, "cold run computes evaluations");
        let (path, chunks) = cache_dump(scratch.path());
        assert_eq!(chunks, 2);

        // Same platform key, different tuning run: the two-chunk dump
        // primes the fresh daemon's table.
        let scheduler = disk_scheduler(scratch.path());
        assert_eq!(
            scheduler.store().load_cache(&key).len() as u64,
            cold_misses,
            "every computed evaluation was appended once"
        );
        scheduler
            .submit(
                same_key_variant(MetricKind::L1dHitRate, StressGoal::Minimize),
                0,
            )
            .unwrap();
        assert!(scheduler.step());
        let metrics = scheduler.metrics();
        let (inserts, misses) = (
            metrics.value("micrograd_cache_inserts"),
            metrics.value("micrograd_cache_misses"),
        );
        assert!(
            inserts > misses,
            "imported entries ({inserts} inserts) exceed computed ones ({misses} misses)"
        );
        assert!(metrics.value("micrograd_cache_hits") > 0);
        assert_eq!(scheduler.store().quarantined_count(), 0);
        drop(scheduler);

        // A dump whose chunks are all duplicated is compacted to one chunk
        // by the next daemon's first job of the key.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.repeat(2)).unwrap();
        let scheduler = disk_scheduler(scratch.path());
        let held = scheduler.store().load_cache(&key).len();
        scheduler
            .submit(
                same_key_variant(MetricKind::L1dHitRate, StressGoal::Maximize),
                0,
            )
            .unwrap();
        assert!(scheduler.step());
        let misses = scheduler.metrics().value("micrograd_cache_misses");
        let (_, chunks) = cache_dump(scratch.path());
        assert_eq!(
            chunks,
            1 + usize::from(misses > 0),
            "one compacted chunk, then the job's own"
        );
        assert_eq!(
            scheduler.store().load_cache(&key).len() as u64,
            held as u64 / 2 + misses,
            "no duplicates survive"
        );
    }

    #[test]
    fn a_second_job_of_a_key_starts_on_the_first_jobs_table() {
        use crate::fault::{FaultPlan, FaultSite};
        let scratch = ScratchDir::new("sched-resident");
        // Every store read fails: only the resident table can warm the
        // second job.
        let plan = FaultPlan::new(1).with_fault(FaultSite::StoreRead, 1.0, u64::MAX);
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::open(scratch.path())
                .unwrap()
                .with_fault_plan(plan.clone()),
        );
        let (first, second) = (
            tiny_config(1),
            same_key_variant(MetricKind::Ipc, StressGoal::Maximize),
        );
        let hits_misses = || {
            let metrics = scheduler.metrics();
            (
                metrics.value("micrograd_cache_hits"),
                metrics.value("micrograd_cache_misses"),
                metrics.value("micrograd_cache_entries"),
            )
        };
        scheduler.submit(first.clone(), 0).unwrap();
        assert!(scheduler.step());
        let after_first = hits_misses();
        let reads = plan.operations(FaultSite::StoreRead);
        scheduler.submit(second.clone(), 0).unwrap();
        assert!(scheduler.step());
        let after_second = hits_misses();
        assert_eq!(
            plan.operations(FaultSite::StoreRead),
            reads + 1,
            "the second submit probed for a report; its job read no dump"
        );

        // The reference: in-process platforms, the second importing the
        // first's export, as the store round trip did.
        let platform = |config: &FrameworkConfig| {
            MicroGrad::new(config.clone())
                .platform()
                .with_parallelism(Some(0))
        };
        let reference_first = platform(&first);
        MicroGrad::new(first).run_on(&reference_first).unwrap();
        let reference_second = platform(&second);
        reference_second.import_cache(reference_first.export_cache());
        MicroGrad::new(second).run_on(&reference_second).unwrap();
        let (r1, r2) = (
            reference_first.cache_stats(),
            reference_second.cache_stats(),
        );
        assert_eq!(after_first, (r1.hits, r1.misses, r1.entries));
        assert_eq!(
            (
                after_second.0 - after_first.0,
                after_second.1 - after_first.1
            ),
            (r2.hits, r2.misses)
        );
        assert!(r2.hits > 0, "the second job reuses the first one's results");
        assert_eq!(
            after_second.2, r2.entries,
            "the one shared table's entries, not a sum over its jobs"
        );
    }

    #[test]
    fn at_most_one_unheld_table_per_worker_stays_resident() {
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 1,
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            ResultStore::in_memory(),
        );
        let terminals = Terminals::install(&scheduler);
        for seed in 1..=3 {
            let job = scheduler.submit(tiny_config(seed), 0).unwrap().job;
            assert_eq!(terminals.wait(job), JobState::Done);
            let state = lock_or_recover(&scheduler.inner.state);
            let keys: Vec<&str> = state.tables.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(
                keys,
                [platform_key(&tiny_config(seed))],
                "after seed {seed}"
            );
            assert_eq!(Arc::strong_count(&state.tables[0].1), 1, "no job holds it");
            assert_eq!(
                scheduler.metrics().value("micrograd_cache_entries"),
                state.tables[0].1.len() as u64,
                "the resident table's entries after seed {seed}"
            );
        }
    }
}
