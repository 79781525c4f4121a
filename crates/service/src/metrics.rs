//! The service's metrics root: one [`Registry`] shared by the scheduler
//! and the reactor.
//!
//! The registry is the daemon's only counter surface.  Each layer writes
//! its series where the value changes — the scheduler its job, queue and
//! memo-cache series, the reactor its `micrograd_reactor_*` series — and
//! the `metrics` request renders them.  On top of the counters sit the
//! latency histograms (`request_duration_us`, `job_queue_wait_us`,
//! `job_execution_us`, `job_total_us`) from which p50/p95/p99 are derived.
//!
//! All record paths are atomics (no locks, no allocation): the scheduler
//! bumps counters while holding its state lock, the reactor from its
//! event loop, and neither pays more than a `fetch_add`.  The one value
//! read at scrape time is the store's report count.

use micrograd_core::CacheStats;
use micrograd_obs::{Counter, Gauge, Histogram, Registry, Sample};
use std::sync::Arc;

/// The request-op labels [`ServiceMetrics::record_request`] accepts;
/// unknown lines are recorded under `"invalid"`.
pub const REQUEST_OPS: [&str; 8] = [
    "submit", "watch", "fetch", "list", "metrics", "trace", "shutdown", "invalid",
];

/// The shared metrics registry plus every handle the service records
/// through, created once per [`Scheduler`](crate::Scheduler).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    registry: Registry,
    /// Submit requests accepted (including deduplicated and store-answered
    /// ones).
    pub(crate) jobs_submitted: Counter,
    /// Submits answered with an already-known job id.
    pub(crate) jobs_deduped: Counter,
    /// Submits rejected because the queue was full.
    pub(crate) jobs_rejected: Counter,
    /// Submits answered from the durable store without executing.
    pub(crate) store_hits: Counter,
    /// Jobs actually executed on the platform.
    pub(crate) executions: Counter,
    /// Jobs that finished successfully.
    pub(crate) jobs_completed: Counter,
    /// Jobs that failed.
    pub(crate) jobs_failed: Counter,
    /// Jobs whose deadline expired before they finished.
    pub(crate) jobs_timed_out: Counter,
    /// Tuner-epoch batch boundaries observed across all executions.
    pub(crate) epochs: Counter,
    /// Jobs currently waiting in the queue.
    pub(crate) queue_depth: Gauge,
    /// Jobs currently running.
    pub(crate) running: Gauge,
    /// Background workers serving the queue.
    pub(crate) workers: Gauge,
    /// The last `retry_after_ms` hint attached to a transient rejection.
    pub(crate) retry_after_ms: Gauge,
    /// Reports resident in the durable store (counted at scrape time).
    pub(crate) stored_reports: Gauge,
    /// Request service time (decode to encoded response), microseconds.
    pub(crate) request_duration_us: Arc<Histogram>,
    /// Admission-to-dequeue wait per executed job, microseconds.
    pub(crate) job_queue_wait_us: Arc<Histogram>,
    /// Dequeue-to-terminal execution time per job, microseconds.
    pub(crate) job_execution_us: Arc<Histogram>,
    /// Admission-to-terminal total latency per job, microseconds.
    pub(crate) job_total_us: Arc<Histogram>,
    /// The event loop's series.
    pub(crate) reactor: ReactorMetrics,
    /// Per-op request counters, one series per [`REQUEST_OPS`] entry.
    requests: Vec<(&'static str, Counter)>,
    /// Memo-cache hits, misses, inserts and replacements, summed over
    /// executed jobs.
    cache: [Counter; 4],
    /// Entries held in the resident memo tables, set when a job ends.
    pub(crate) cache_entries: Gauge,
    /// The most slots a memo table had when an executed job ended.
    cache_capacity: Gauge,
}

/// The `micrograd_reactor_*` series, written by the event loop where each
/// value changes.
#[derive(Debug, Clone)]
pub(crate) struct ReactorMetrics {
    /// Connections registered with the event loop.
    pub connections_open: Gauge,
    /// Connections accepted since startup.
    pub connections_accepted: Counter,
    /// Connections closed since startup (EOF, error, backpressure cap or
    /// shutdown).
    pub connections_closed: Counter,
    /// Times the event loop woke from `poll(2)`.  With idle connections
    /// this stays flat: readiness is interrupt-shaped, not timer-shaped.
    pub loop_wakeups: Counter,
    /// High-water mark of any single connection's pending write-queue
    /// bytes (the backpressure gauge).
    pub write_queue_hwm: Gauge,
    /// Deferred `watch` responses pushed on job completion.
    pub notifications_pushed: Counter,
    /// Watch responses currently deferred in the event loop.
    pub watches_active: Gauge,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Builds the registry and registers every family the service
    /// records into.
    #[must_use]
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = REQUEST_OPS
            .iter()
            .map(|op| {
                (
                    *op,
                    registry.counter_with(
                        "micrograd_requests_total",
                        "Requests handled, by operation",
                        Some(("op", op)),
                    ),
                )
            })
            .collect();
        let [hits, misses, inserts] = [
            registry.counter(
                "micrograd_cache_hits",
                "Memo-cache hits over all executed jobs",
            ),
            registry.counter(
                "micrograd_cache_misses",
                "Memo-cache misses over all executed jobs",
            ),
            registry.counter(
                "micrograd_cache_inserts",
                "Memo-cache inserts over all executed jobs",
            ),
        ];
        let cache_entries = registry.gauge(
            "micrograd_cache_entries",
            "Entries held in the resident memo tables, as of the last job's end",
        );
        let replacements = registry.counter(
            "micrograd_cache_replacements",
            "Memo-cache replacements over all executed jobs",
        );
        let cache_capacity = registry.gauge(
            "micrograd_cache_capacity",
            "Most memo-table slots any executed job ended with (tables grow to a ceiling)",
        );
        let reactor = ReactorMetrics {
            connections_open: registry.gauge(
                "micrograd_reactor_connections_open",
                "Connections registered with the event loop",
            ),
            connections_accepted: registry.counter(
                "micrograd_reactor_connections_accepted",
                "Connections accepted since startup",
            ),
            connections_closed: registry.counter(
                "micrograd_reactor_connections_closed",
                "Connections closed since startup",
            ),
            loop_wakeups: registry.counter(
                "micrograd_reactor_loop_wakeups",
                "Event-loop wakeups from poll(2)",
            ),
            write_queue_hwm: registry.gauge(
                "micrograd_reactor_write_queue_hwm",
                "High-water mark of any connection's pending write bytes",
            ),
            notifications_pushed: registry.counter(
                "micrograd_reactor_notifications_pushed",
                "Deferred watch responses pushed on job completion",
            ),
            watches_active: registry.gauge(
                "micrograd_reactor_watches_active",
                "Watch responses currently deferred in the event loop",
            ),
        };
        ServiceMetrics {
            jobs_submitted: registry
                .counter("micrograd_jobs_submitted_total", "Submit requests accepted"),
            jobs_deduped: registry.counter(
                "micrograd_jobs_deduped_total",
                "Submits answered with an existing job id",
            ),
            jobs_rejected: registry.counter(
                "micrograd_jobs_rejected_total",
                "Submits rejected by the bounded queue",
            ),
            store_hits: registry.counter(
                "micrograd_store_hits_total",
                "Submits answered from the durable store without executing",
            ),
            executions: registry.counter(
                "micrograd_executions_total",
                "Jobs executed on the platform",
            ),
            jobs_completed: registry.counter(
                "micrograd_jobs_completed_total",
                "Jobs finished successfully",
            ),
            jobs_failed: registry.counter("micrograd_jobs_failed_total", "Jobs that failed"),
            jobs_timed_out: registry.counter(
                "micrograd_jobs_timed_out_total",
                "Jobs whose deadline expired before completion",
            ),
            epochs: registry.counter(
                "micrograd_epochs_total",
                "Tuner-epoch batch boundaries observed across all executions",
            ),
            queue_depth: registry.gauge("micrograd_queue_depth", "Jobs waiting in the queue"),
            running: registry.gauge("micrograd_jobs_running", "Jobs currently executing"),
            workers: registry.gauge("micrograd_workers", "Background workers serving the queue"),
            retry_after_ms: registry.gauge(
                "micrograd_retry_after_ms",
                "Last retry hint attached to a transient rejection, milliseconds",
            ),
            stored_reports: registry.gauge(
                "micrograd_stored_reports",
                "Reports resident in the durable store",
            ),
            request_duration_us: registry.histogram(
                "micrograd_request_duration_us",
                "Request service time in microseconds",
            ),
            job_queue_wait_us: registry.histogram(
                "micrograd_job_queue_wait_us",
                "Admission-to-dequeue wait per executed job, microseconds",
            ),
            job_execution_us: registry.histogram(
                "micrograd_job_execution_us",
                "Dequeue-to-terminal execution time per job, microseconds",
            ),
            job_total_us: registry.histogram(
                "micrograd_job_total_us",
                "Admission-to-terminal latency per job, microseconds",
            ),
            reactor,
            requests,
            cache: [hits, misses, inserts, replacements],
            cache_entries,
            cache_capacity,
            registry,
        }
    }

    /// Counts one handled request and records its service time.  Ops not
    /// in [`REQUEST_OPS`] are folded into the `"invalid"` series.
    pub fn record_request(&self, op: &str, duration_us: u64) {
        let counter = self
            .requests
            .iter()
            .find(|(name, _)| *name == op)
            .or_else(|| self.requests.iter().find(|(name, _)| *name == "invalid"));
        if let Some((_, counter)) = counter {
            counter.inc();
        }
        self.request_duration_us.record(duration_us);
    }

    /// Mirrors the scheduler's queue gauges (called wherever the queue
    /// depth or the running count changes).
    pub fn sync_queue(&self, queue_depth: u64, running: u64) {
        self.queue_depth.set(queue_depth);
        self.running.set(running);
    }

    /// Adds one executed job's memo-cache counters; `capacity` keeps the
    /// largest.  Its `entries` are the shared table's, so they go to no
    /// series: the scheduler sets `cache_entries` from its resident tables.
    pub(crate) fn record_cache(&self, stats: &CacheStats) {
        let [hits, misses, inserts, replacements] = &self.cache;
        hits.add(stats.hits);
        misses.add(stats.misses);
        inserts.add(stats.inserts);
        replacements.add(stats.replacements);
        self.cache_capacity.set_max(stats.capacity);
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Samples every series for table rendering.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        self.registry.samples()
    }

    /// The current value of the counter or gauge series `name`: the one
    /// way the crate's tests read the registry.  Panics when no such
    /// series is registered, so a misspelled name cannot read as zero.
    #[cfg(test)]
    pub(crate) fn value(&self, name: &str) -> u64 {
        self.samples()
            .into_iter()
            .find(|sample| sample.name == name)
            .map(|sample| sample.value)
            .unwrap_or_else(|| panic!("no `{name}` series registered"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stats_counter_has_a_registry_series() {
        let metrics = ServiceMetrics::new();
        metrics.jobs_submitted.inc();
        metrics.record_request("submit", 120);
        metrics.record_request("stats", 5); // not an op: folded into "invalid"
        metrics.sync_queue(3, 1);
        metrics.workers.set(2);
        metrics.reactor.watches_active.set(2);
        metrics.record_cache(&CacheStats {
            hits: 4,
            entries: 6,
            capacity: 64,
            ..CacheStats::default()
        });
        metrics.record_cache(&CacheStats {
            hits: 1,
            entries: 7,
            capacity: 32,
            ..CacheStats::default()
        });
        metrics.cache_entries.set(7);
        let text = metrics.render_prometheus();
        for series in [
            "micrograd_jobs_submitted_total 1",
            "micrograd_requests_total{op=\"submit\"} 1",
            "micrograd_requests_total{op=\"invalid\"} 1",
            "micrograd_queue_depth 3",
            "micrograd_jobs_running 1",
            "micrograd_workers 2",
            "micrograd_reactor_watches_active 2",
            "micrograd_cache_hits 5",
            "# TYPE micrograd_cache_entries gauge",
            "micrograd_cache_entries 7",
            "micrograd_cache_capacity 64",
            "micrograd_request_duration_us_count 2",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // Every field the retired `stats` response carried has a series.
        for name in [
            "micrograd_jobs_submitted_total",
            "micrograd_jobs_deduped_total",
            "micrograd_jobs_rejected_total",
            "micrograd_store_hits_total",
            "micrograd_executions_total",
            "micrograd_jobs_completed_total",
            "micrograd_jobs_failed_total",
            "micrograd_jobs_timed_out_total",
            "micrograd_queue_depth",
            "micrograd_jobs_running",
            "micrograd_workers",
            "micrograd_stored_reports",
            "micrograd_cache_hits",
            "micrograd_cache_misses",
            "micrograd_cache_inserts",
            "micrograd_cache_entries",
            "micrograd_cache_replacements",
            "micrograd_cache_capacity",
            "micrograd_reactor_connections_open",
            "micrograd_reactor_connections_accepted",
            "micrograd_reactor_connections_closed",
            "micrograd_reactor_loop_wakeups",
            "micrograd_reactor_write_queue_hwm",
            "micrograd_reactor_notifications_pushed",
            "micrograd_reactor_watches_active",
        ] {
            assert_eq!(
                text.lines()
                    .filter(|line| line
                        .strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with(' ')))
                    .count(),
                1,
                "one `{name}` series in:\n{text}"
            );
        }
        // Histogram quantiles are derivable from the samples view.
        let samples = metrics.samples();
        let request = samples
            .iter()
            .find(|s| s.name == "micrograd_request_duration_us")
            .expect("registered histogram");
        assert_eq!(request.value, 2);
        assert!(request.quantiles.is_some());
    }
}
