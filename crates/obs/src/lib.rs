//! # micrograd-obs
//!
//! The observability layer of the MicroGrad workspace: one small, std-only
//! crate that the service layers (scheduler, reactor, binaries) thread
//! their instrumentation through.
//!
//! | Module | Provides |
//! |---|---|
//! | [`registry`] | named counters, gauges and histograms with a Prometheus-text encoder |
//! | [`histogram`] | log-linear (HDR-style) fixed-bucket histograms, allocation-free record path |
//! | [`trace`] | job lifecycle stages and the timestamped marks a job's record keeps |
//! | [`timeline`] | per-job timelines assembled from trace events, serialized for the wire |
//! | [`clock`] | the one monotonic-clock read site the lint allows |
//!
//! # Design constraints
//!
//! * **Metric record paths never allocate and never lock.**  Counters,
//!   gauges and histogram buckets are plain atomics.  `micrograd-lint`'s
//!   `atomic-ordering` policy covers the registry and histogram modules,
//!   and `tests/disabled_recorder_alloc.rs` proves those record paths
//!   allocation-free.  A job's trace events live in its own scheduler
//!   record, pushed under the scheduler's lock.
//! * **Determinism stays intact.**  Wall-clock reads are confined to
//!   [`clock`] (enforced by the `nondeterminism` lint rule); timestamps
//!   live only in observability metadata — timelines, metric values — and
//!   never in job identity or tuning results.
//! * **Cheap enough to leave on.**  Nothing here has an off switch: a
//!   record is a handful of relaxed atomics, measured by the
//!   `obs_overhead` bench group.  A recorder added later that can be
//!   switched off must cost one predictable branch when off.

pub mod clock;
pub mod histogram;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricKind, Registry, Sample};
pub use timeline::{JobTimeline, TimelineMark};
pub use trace::{Stage, TraceEvent};
