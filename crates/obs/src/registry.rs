//! The metrics registry: named counters, gauges and histograms behind
//! cloneable handles, with a Prometheus-text exposition encoder.
//!
//! Registration (naming a metric, attaching a label) takes a lock and may
//! allocate; it happens at construction time.  The handles it returns —
//! [`Counter`], [`Gauge`], [`std::sync::Arc<Histogram>`] — are plain
//! atomics, so the *record* path is lock-free and allocation-free, which is
//! what lets the scheduler bump counters inside its state lock and the
//! simulator record without perturbing the hot loop.
//!
//! Metrics are plain statistics with no happens-before obligation, so every
//! atomic here is `Relaxed`; the `atomic-ordering` lint policy for this
//! module enforces exactly that.  Registering the same `(name, label)`
//! twice returns the existing cell, so construction is idempotent.

use crate::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log-linear distribution of observations.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A settable gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
    }

    /// Raises the gauge to `v` unless it already holds more (a
    /// high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// One registered series: a family member with an optional label pair.
struct Series {
    label: Option<(&'static str, &'static str)>,
    cell: Cell,
}

enum Cell {
    Value(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// One metric family: a name, a help line, a kind and its series.
struct Family {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A point-in-time sample of one series, for table rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name plus rendered label, e.g. `micrograd_requests_total{op="submit"}`.
    pub name: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Counter/gauge value; histograms report their observation count here.
    pub value: u64,
    /// `(p50, p95, p99)` for histograms, `None` otherwise.
    pub quantiles: Option<(u64, u64, u64)>,
}

/// A cloneable registry of named metrics.
#[derive(Clone)]
pub struct Registry {
    families: Arc<Mutex<Vec<Family>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.lock();
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn series_name(name: &str, label: Option<(&'static str, &'static str)>) -> String {
    match label {
        Some((k, v)) => format!("{name}{{{k}=\"{v}\"}}"),
        None => name.to_owned(),
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            families: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Family>> {
        // A panic while holding the registration lock cannot leave the
        // metric list half-updated in a way rendering cares about.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        label: Option<(&'static str, &'static str)>,
    ) -> Cell {
        let mut families = self.lock();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(existing) => {
                debug_assert_eq!(
                    existing.kind, kind,
                    "metric {name} re-registered as {kind:?}"
                );
                existing
            }
            None => {
                families.push(Family {
                    name,
                    help,
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.label == label) {
            return match &series.cell {
                Cell::Value(v) => Cell::Value(Arc::clone(v)),
                Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
            };
        }
        let cell = match kind {
            MetricKind::Histogram => Cell::Histogram(Arc::new(Histogram::new())),
            _ => Cell::Value(Arc::new(AtomicU64::new(0))),
        };
        let clone = match &cell {
            Cell::Value(v) => Cell::Value(Arc::clone(v)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        };
        family.series.push(Series { label, cell });
        clone
    }

    /// Registers (or retrieves) an unlabeled counter.
    #[must_use]
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, None)
    }

    /// Registers (or retrieves) a counter with one label pair.
    #[must_use]
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Counter {
        match self.register(name, help, MetricKind::Counter, label) {
            Cell::Value(value) => Counter { value },
            Cell::Histogram(_) => unreachable!("counter registration returns a value cell"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    #[must_use]
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, None) {
            Cell::Value(value) => Gauge { value },
            Cell::Histogram(_) => unreachable!("gauge registration returns a value cell"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    #[must_use]
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, None) {
            Cell::Histogram(h) => h,
            Cell::Value(_) => unreachable!("histogram registration returns a histogram cell"),
        }
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` lines per family,
    /// cumulative `_bucket{le="..."}` series plus `_sum` / `_count` for
    /// histograms.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.lock();
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!(
                "# TYPE {} {}\n",
                family.name,
                family.kind.exposition_name()
            ));
            for series in &family.series {
                match &series.cell {
                    Cell::Value(value) => {
                        out.push_str(&format!(
                            "{} {}\n",
                            series_name(family.name, series.label),
                            value.load(Relaxed)
                        ));
                    }
                    Cell::Histogram(h) => {
                        let snap = h.snapshot();
                        let label_prefix = match series.label {
                            Some((k, v)) => format!("{k}=\"{v}\","),
                            None => String::new(),
                        };
                        for (edge, cumulative) in &snap.buckets {
                            let le = if *edge == u64::MAX {
                                "+Inf".to_owned()
                            } else {
                                edge.to_string()
                            };
                            out.push_str(&format!(
                                "{}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}\n",
                                family.name
                            ));
                        }
                        if snap
                            .buckets
                            .last()
                            .is_none_or(|(edge, _)| *edge != u64::MAX)
                        {
                            out.push_str(&format!(
                                "{}_bucket{{{label_prefix}le=\"+Inf\"}} {}\n",
                                family.name, snap.count
                            ));
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            series_name("", series.label),
                            snap.sum
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            series_name("", series.label),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// Samples every series for table rendering: counters and gauges report
    /// their value, histograms their count plus `(p50, p95, p99)`.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        let families = self.lock();
        let mut out = Vec::new();
        for family in families.iter() {
            for series in &family.series {
                let name = series_name(family.name, series.label);
                match &series.cell {
                    Cell::Value(value) => out.push(Sample {
                        name,
                        kind: family.kind,
                        value: value.load(Relaxed),
                        quantiles: None,
                    }),
                    Cell::Histogram(h) => out.push(Sample {
                        name,
                        kind: family.kind,
                        value: h.count(),
                        quantiles: Some((
                            h.quantile(0.50).unwrap_or(0),
                            h.quantile(0.95).unwrap_or(0),
                            h.quantile(0.99).unwrap_or(0),
                        )),
                    }),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = Registry::new();
        let c = registry.counter("micrograd_test_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Re-registration returns the same cell.
        let again = registry.counter("micrograd_test_total", "test counter");
        again.inc();
        assert_eq!(c.value(), 6);

        let g = registry.gauge("micrograd_test_depth", "test gauge");
        g.set(42);
        assert_eq!(g.value(), 42);
        g.set(7);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn set_max_only_raises_a_gauge() {
        let registry = Registry::new();
        let hwm = registry.gauge("micrograd_test_hwm", "test high-water mark");
        hwm.set_max(9);
        hwm.set_max(4);
        assert_eq!(hwm.value(), 9);
        hwm.set_max(12);
        assert_eq!(hwm.value(), 12);
    }

    #[test]
    fn labeled_series_are_distinct_within_one_family() {
        let registry = Registry::new();
        let a = registry.counter_with("micrograd_requests_total", "requests", Some(("op", "a")));
        let b = registry.counter_with("micrograd_requests_total", "requests", Some(("op", "b")));
        a.inc();
        a.inc();
        b.inc();
        let text = registry.render_prometheus();
        assert!(
            text.contains("micrograd_requests_total{op=\"a\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("micrograd_requests_total{op=\"b\"} 1"),
            "{text}"
        );
        // One HELP/TYPE pair for the family, not one per series.
        assert_eq!(text.matches("# TYPE micrograd_requests_total ").count(), 1);
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_complete() {
        let registry = Registry::new();
        let h = registry.histogram("micrograd_latency_us", "latency");
        h.record(3);
        h.record(3);
        h.record(900);
        let text = registry.render_prometheus();
        assert!(
            text.contains("# TYPE micrograd_latency_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("micrograd_latency_us_bucket{le=\"3\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("micrograd_latency_us_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("micrograd_latency_us_sum 906"), "{text}");
        assert!(text.contains("micrograd_latency_us_count 3"), "{text}");
    }

    #[test]
    fn samples_expose_quantiles_for_histograms() {
        let registry = Registry::new();
        let h = registry.histogram("micrograd_latency_us", "latency");
        for v in 1..=100 {
            h.record(v);
        }
        let samples = registry.samples();
        let s = samples
            .iter()
            .find(|s| s.name == "micrograd_latency_us")
            .expect("registered");
        assert_eq!(s.value, 100);
        let (p50, p95, p99) = s.quantiles.expect("histogram quantiles");
        assert!((50..=57).contains(&p50), "p50={p50}");
        assert!((95..=111).contains(&p95), "p95={p95}");
        assert!((99..=111).contains(&p99), "p99={p99}");
    }
}
