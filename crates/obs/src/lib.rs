//! # micrograd-obs
//!
//! The observability layer of the MicroGrad workspace: one small, std-only
//! crate that every other layer (simulator, scheduler, reactor, binaries)
//! threads its instrumentation through.
//!
//! | Module | Provides |
//! |---|---|
//! | [`registry`] | named counters, gauges and histograms with a Prometheus-text encoder |
//! | [`histogram`] | log-linear (HDR-style) fixed-bucket histograms, allocation-free record path |
//! | [`trace`] | job lifecycle stages and the timestamped marks a job's record keeps |
//! | [`timeline`] | per-job timelines assembled from trace events, serialized for the wire |
//! | [`profile`] | sampled simulator profiles (time-resolved IPC, hit rates, occupancy) |
//! | [`clock`] | the one monotonic-clock read site the lint allows |
//!
//! # Design constraints
//!
//! * **Metric record paths never allocate and never lock.**  Counters,
//!   gauges and histogram buckets are plain atomics.  `micrograd-lint`'s
//!   `atomic-ordering` policy covers the registry and histogram modules,
//!   and `tests/disabled_recorder_alloc.rs` proves those record paths and
//!   a disabled profiler allocation-free.  A job's trace events live in
//!   its own scheduler record, pushed under the scheduler's lock.
//! * **Determinism stays intact.**  Wall-clock reads are confined to
//!   [`clock`] (enforced by the `nondeterminism` lint rule); timestamps
//!   live only in observability metadata — timelines, metric values — and
//!   never in job identity or tuning results.  Simulator profiles are keyed
//!   by retired-instruction counts, not time, so a profiled run is as
//!   replayable as an unprofiled one.
//! * **Zero overhead when off.**  A disabled [`profile::ProfileRecorder`]
//!   is a branch, not a subsystem.

pub mod clock;
pub mod histogram;
pub mod profile;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use profile::{ProfileRecorder, ProfileSample, SimProfile};
pub use registry::{Counter, Gauge, MetricKind, Registry, Sample};
pub use timeline::{JobTimeline, TimelineMark};
pub use trace::{Stage, TraceEvent};
