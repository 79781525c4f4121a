//! # micrograd-service
//!
//! The persistent job-server subsystem: MicroGrad as a *service* instead
//! of a function call.  A long-lived `microgradd` daemon accepts framework
//! jobs from many clients over a versioned JSON-lines TCP protocol,
//! schedules them on a bounded priority queue with a worker pool, and
//! persists completed reports (and the evaluation memo cache) in a durable
//! on-disk store — so a restarted daemon answers repeat jobs from disk,
//! bit-identically to the first run.
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | wire protocol | [`protocol`] | versioned JSON-lines [`Request`]/[`Response`] messages |
//! | scheduler | [`scheduler`] | bounded priority queue, worker pool, fingerprint dedup |
//! | durable store | [`store`] | content-addressed reports + memo-cache dumps |
//! | event loop | [`reactor`] | `poll(2)` readiness loop: one thread, every socket |
//! | server | [`server`] | request dispatch on the reactor thread, clean shutdown |
//! | client | [`client`] | blocking session client (also behind `micrograd-cli`) |
//! | observability | [`metrics`] | metrics registry (every layer's counters) and latency histograms |
//! | fault injection | [`fault`] | seeded, replayable chaos plans for the seams above |
//!
//! Job identity is
//! [`FrameworkConfig::fingerprint`](micrograd_core::FrameworkConfig::fingerprint):
//! two clients
//! submitting the identical configuration share one execution and receive
//! the same report, and a configuration whose report is already stored is
//! answered without running at all.  On every fingerprint match the full
//! configuration is compared, so a 64-bit collision costs a duplicate
//! execution, never a wrong report.
//!
//! # In-process quick start
//!
//! ```
//! use micrograd_core::{CoreKind, FrameworkConfig, KnobSpaceKind};
//! use micrograd_service::{Client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! let config = FrameworkConfig {
//!     core: CoreKind::Small,
//!     knob_space: KnobSpaceKind::InstructionFractions,
//!     max_epochs: 2,
//!     dynamic_len: 3_000,
//!     ..FrameworkConfig::default()
//! };
//! let output = client
//!     .submit_and_wait(&config, 0, Duration::from_secs(120))
//!     .expect("job completes");
//! assert!(output.as_stress().is_some());
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Over the network the same session is the `micrograd-cli` binary talking
//! to `microgradd`; see `docs/service.md` for the protocol reference and
//! the daemon's operational model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod fault;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod scheduler;
pub mod server;
pub mod store;
pub(crate) mod sync;
#[cfg(test)]
mod testutil;

pub use client::{Client, ClientError, RetryPolicy, SubmitReceipt};
pub use fault::{FaultPlan, FaultSite};
pub use metrics::{ServiceMetrics, REQUEST_OPS};
pub use protocol::{
    decode_request, decode_response, encode_line, JobState, JobSummary, LineDecoder, Request,
    RequestBody, Response, ResponseBody, WireError, PROTO_VERSION,
};
pub use reactor::WakePipe;
pub use scheduler::{
    FetchResult, Scheduler, SchedulerConfig, SubmitError, SubmitOutcome, TerminalHook,
};
pub use server::{Server, ServerConfig};
pub use store::{platform_key, ResultStore, StoredCache, StoredReport};
