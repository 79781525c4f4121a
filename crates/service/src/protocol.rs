//! The wire protocol: versioned JSON-lines requests and responses.
//!
//! Every message is a single JSON object on one line, terminated by `\n`.
//! The object carries the protocol version in its `proto` field and the
//! payload in `body`; request payloads are tagged by `op`, response
//! payloads by `result`.  One request always yields exactly one response on
//! the same connection, in order, so a client may pipeline requests.
//!
//! ```text
//! → {"proto":1,"body":{"op":"submit","config":{...},"priority":0}}
//! ← {"proto":1,"body":{"result":"submitted","job":1,"deduped":false,"cached":false}}
//! → {"proto":1,"body":{"op":"watch","job":1,"timeout_ms":0}}
//! ← {"proto":1,"body":{"result":"status","job":1,"state":{"phase":"running"}}}
//! ```
//!
//! See `docs/service.md` for the full message catalogue.

use micrograd_core::{FrameworkConfig, FrameworkOutput};
use micrograd_obs::JobTimeline;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol version this build speaks.
///
/// A request whose `proto` differs is answered with an error naming both
/// versions, never silently misinterpreted.
pub const PROTO_VERSION: u32 = 1;

/// A client-to-server message: protocol version plus operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version ([`PROTO_VERSION`]).
    pub proto: u32,
    /// The requested operation.
    pub body: RequestBody,
}

impl Request {
    /// Wraps an operation in a current-version envelope.
    #[must_use]
    pub fn new(body: RequestBody) -> Self {
        Request {
            proto: PROTO_VERSION,
            body,
        }
    }
}

/// The operations a client can request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "kebab-case")]
pub enum RequestBody {
    /// Submit a framework job.  Jobs with equal configurations are
    /// deduplicated server-side: both clients observe the same job id.
    Submit {
        /// The full framework configuration to execute.
        config: FrameworkConfig,
        /// Scheduling priority; higher runs earlier (default 0).
        #[serde(default)]
        priority: i64,
        /// Optional wall-clock budget for the job, in milliseconds,
        /// measured from admission.  A job that exceeds it is cancelled
        /// cooperatively and reaches the [`JobState::TimedOut`] terminal
        /// state.  The deadline is submit metadata, not job identity: it
        /// does not participate in deduplication, and a deduplicated
        /// submit keeps the original job's deadline.
        #[serde(default)]
        deadline_ms: Option<u64>,
    },
    /// Wait for a job to reach a terminal state *without polling*: the
    /// server defers the response until the job completes (or the watch
    /// times out), then pushes a `status` line.  This is the only request
    /// whose response may not be immediate.  Lines pipelined behind a
    /// pending watch are read and executed only once it is answered,
    /// preserving the one-response-per-request, in-order invariant; so a
    /// later watch's budget, and a later submit's admission, start at that
    /// point.  A zero budget answers with the job's current state at once:
    /// the way to poll a job.
    Watch {
        /// The job id returned by submit.
        job: u64,
        /// Optional watch budget: when the job is still live after this
        /// many milliseconds, the server answers with its *current*
        /// (non-terminal) state instead of holding the response forever.
        /// Absent means wait indefinitely.
        #[serde(default)]
        timeout_ms: Option<u64>,
    },
    /// Fetch the report of a completed job.
    Fetch {
        /// The job id returned by submit.
        job: u64,
    },
    /// List every job the server knows about.
    List,
    /// The full metrics registry in Prometheus text exposition format:
    /// every layer's counters and gauges (scheduler, memo cache, store,
    /// event loop), plus the latency histograms (request service time,
    /// queue wait, execution time) from which p50/p95/p99 are derived.
    Metrics,
    /// The per-stage timeline of a job: when it was received, queued,
    /// dequeued, executed (with per-epoch marks), persisted and answered.
    /// Served from the job's record, so for exactly as long as `watch`
    /// and `fetch` know the job; timelines are not persisted, and job ids
    /// restart with the daemon.
    Trace {
        /// The job id returned by submit.
        job: u64,
    },
    /// Ask the server to shut down gracefully: in-flight jobs finish,
    /// queued jobs stay queued, every connection is answered then closed.
    Shutdown,
}

/// A server-to-client message: protocol version plus result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version ([`PROTO_VERSION`]).
    pub proto: u32,
    /// The operation's result.
    pub body: ResponseBody,
}

impl Response {
    /// Wraps a result in a current-version envelope.
    #[must_use]
    pub fn new(body: ResponseBody) -> Self {
        Response {
            proto: PROTO_VERSION,
            body,
        }
    }
}

/// The results a server can answer with.
///
/// A `Report` is several times the size of the other variants (its
/// report's metric vectors are inline).  It stays unboxed: every client
/// and the benchmark harness build and take apart `Report`s by value, and
/// a response is encoded once and dropped, so its size costs one move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "result", rename_all = "kebab-case")]
#[allow(clippy::large_enum_variant)]
pub enum ResponseBody {
    /// A job was accepted (or recognized as a duplicate).
    Submitted {
        /// The job id to poll and fetch with.
        job: u64,
        /// An identical job already existed; this id refers to it.
        deduped: bool,
        /// The report was answered from the durable store without running.
        cached: bool,
    },
    /// The current state of a job.
    Status {
        /// The polled job.
        job: u64,
        /// Its scheduling state.
        state: JobState,
    },
    /// The report of a completed job.
    Report {
        /// The fetched job.
        job: u64,
        /// The framework report.
        output: FrameworkOutput,
    },
    /// Every job the server knows about.
    Jobs {
        /// One summary per job, ordered by id.
        jobs: Vec<JobSummary>,
    },
    /// The metrics registry rendered as Prometheus text exposition.
    Metrics {
        /// The exposition document (`# TYPE` headers, one sample per
        /// line); safe to serve to a Prometheus scraper verbatim.
        text: String,
    },
    /// The per-stage timeline of a traced job.
    Timeline {
        /// The recorded timeline: stage marks as offsets from the moment
        /// the submit request reached the scheduler.
        timeline: JobTimeline,
    },
    /// The server acknowledged a shutdown request.
    ShuttingDown,
    /// The request failed; `message` says why.
    Error {
        /// Human-readable failure reason.
        message: String,
        /// Machine-readable retry hint: when present, the failure is
        /// transient (queue full, server draining) and the client should
        /// retry the same request after this many milliseconds.  Absent on
        /// permanent failures.
        #[serde(default)]
        retry_after_ms: Option<u64>,
    },
}

/// The scheduling state of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "phase", rename_all = "kebab-case")]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the report can be fetched.
    Done,
    /// Execution failed.
    Failed {
        /// The failure reason.
        error: String,
    },
    /// The job's `deadline_ms` budget expired before it finished; the run
    /// was cancelled cooperatively and its partial results were discarded.
    /// Like [`JobState::Failed`], a timed-out job never satisfies
    /// deduplication, so resubmitting the same configuration runs it anew.
    TimedOut,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed { .. } | JobState::TimedOut
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobState::Queued => write!(f, "queued"),
            JobState::Running => write!(f, "running"),
            JobState::Done => write!(f, "done"),
            JobState::Failed { error } => write!(f, "failed: {error}"),
            JobState::TimedOut => write!(f, "timed out"),
        }
    }
}

/// One row of the job listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Job id.
    pub job: u64,
    /// Configuration fingerprint (the dedup / store key).
    pub fingerprint: u64,
    /// The use-case tag of the configuration (e.g. `stress`,
    /// `clone-benchmark`).
    pub use_case: String,
    /// Scheduling priority.
    pub priority: i64,
    /// Current state.
    pub state: JobState,
}

/// Incremental JSON-lines decoder: feed raw socket bytes in, take complete
/// lines out.
///
/// The server's event loop reads whatever the socket has — which may be a
/// byte, half a multi-byte UTF-8 character, or twelve pipelined requests —
/// and needs request framing to survive arbitrary fragmentation.  Bytes
/// accumulate here untouched until a `\n` lands; only complete lines are
/// ever decoded, so a slowly-arriving request cannot be corrupted by the
/// boundary falling inside a character.
///
/// A line that exceeds `max_line` bytes before its newline arrives trips
/// the overflow state: [`LineDecoder::push`] returns `false`, the caller
/// should answer with an error and close, and no further input is
/// buffered (bounding memory against a client that never terminates its
/// line).
#[derive(Debug)]
pub struct LineDecoder {
    buf: Vec<u8>,
    /// Scan cursor: bytes before it are known newline-free.
    scanned: usize,
    max_line: usize,
    overflowed: bool,
}

impl LineDecoder {
    /// Creates a decoder bounding any single line to `max_line` bytes.
    #[must_use]
    pub fn new(max_line: usize) -> Self {
        LineDecoder {
            buf: Vec::new(),
            scanned: 0,
            max_line,
            overflowed: false,
        }
    }

    /// Appends raw socket bytes.  Returns `false` once the accumulated
    /// partial line exceeds the decoder's bound — the line can never
    /// complete within budget, and the input was not buffered.
    pub fn push(&mut self, bytes: &[u8]) -> bool {
        if self.overflowed {
            return false;
        }
        self.buf.extend_from_slice(bytes);
        // Overflow only when no newline can ever complete the line within
        // budget; complete lines still buffered just await `next_line`.
        let unscanned = self.buf.get(self.scanned..).unwrap_or(&[]);
        if self.buf.len() > self.max_line && !unscanned.contains(&b'\n') {
            self.overflowed = true;
            return false;
        }
        true
    }

    /// Takes the next complete line (without its newline), decoded
    /// lossily: invalid UTF-8 becomes replacement characters and is
    /// rejected later as malformed JSON rather than corrupting the
    /// session.  Returns `None` until a full line is buffered.
    pub fn next_line(&mut self) -> Option<String> {
        let pos = self
            .buf
            .get(self.scanned..)
            .unwrap_or(&[])
            .iter()
            .position(|b| *b == b'\n')
            .map(|p| p + self.scanned);
        match pos {
            Some(pos) => {
                let line = String::from_utf8_lossy(self.buf.get(..pos).unwrap_or(&[])).into_owned();
                self.buf.drain(..=pos);
                self.scanned = 0;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }
}

/// A malformed or incompatible wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line was not a valid message of the expected shape.
    Malformed(String),
    /// The message used a different protocol version.
    Version {
        /// The version the peer sent.
        got: u32,
    },
    /// A message could not be serialized for the wire.  Surfaced to the
    /// caller instead of being silently swallowed, so an unencodable
    /// message never turns into an empty line on the socket.
    Encode(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(reason) => write!(f, "malformed message: {reason}"),
            WireError::Version { got } => write!(
                f,
                "protocol version mismatch: peer speaks {got}, this build speaks {PROTO_VERSION}"
            ),
            WireError::Encode(reason) => write!(f, "message serialization failed: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message as one JSON line (including the trailing newline).
///
/// # Errors
///
/// Returns [`WireError::Encode`] if the message cannot be serialized;
/// serialization failures are reported, never replaced by an empty line.
pub fn encode_line<T: Serialize>(message: &T) -> Result<String, WireError> {
    let mut line = serde_json::to_string(message).map_err(|e| WireError::Encode(e.to_string()))?;
    debug_assert!(!line.contains('\n'), "compact JSON must be single-line");
    line.push('\n');
    Ok(line)
}

/// Encodes a response line for the wire.  A response that cannot be
/// serialized is answered with an error response naming why, never a
/// corrupt or empty line.
#[must_use]
pub(crate) fn encode_response(response: &Response) -> String {
    encode_line(response).unwrap_or_else(|e| {
        let fallback = Response::new(ResponseBody::Error {
            message: e.to_string(),
            retry_after_ms: None,
        });
        encode_line(&fallback).unwrap_or_else(|_| {
            concat!(
                r#"{"proto":1,"body":{"result":"error","#,
                r#""message":"response serialization failed"}}"#,
                "\n"
            )
            .to_owned()
        })
    })
}

/// Checks the envelope's `proto` field *before* decoding the payload, so a
/// future-version message whose body does not parse under this build's
/// schema is still reported as a version mismatch, not as malformed.
fn check_line_proto(line: &str) -> Result<(), WireError> {
    #[derive(Deserialize)]
    struct ProtoProbe {
        proto: u32,
    }
    let probe: ProtoProbe =
        serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))?;
    if probe.proto == PROTO_VERSION {
        Ok(())
    } else {
        Err(WireError::Version { got: probe.proto })
    }
}

/// Decodes one request line, enforcing the protocol version.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] for unparseable input and
/// [`WireError::Version`] for a version mismatch.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    let line = line.trim_end();
    check_line_proto(line)?;
    serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Decodes one response line, enforcing the protocol version.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] for unparseable input and
/// [`WireError::Version`] for a version mismatch.
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let line = line.trim_end();
    check_line_proto(line)?;
    serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograd_core::{MetricKind, StressGoal, UseCaseConfig};

    fn submit_request() -> Request {
        Request::new(RequestBody::Submit {
            config: FrameworkConfig {
                use_case: UseCaseConfig::Stress {
                    metric: MetricKind::Ipc,
                    goal: StressGoal::Minimize,
                },
                ..FrameworkConfig::default()
            },
            priority: 7,
            deadline_ms: Some(2_500),
        })
    }

    #[test]
    fn requests_round_trip_as_single_lines() {
        let requests = vec![
            submit_request(),
            Request::new(RequestBody::Watch {
                job: 3,
                timeout_ms: Some(1_500),
            }),
            Request::new(RequestBody::Watch {
                job: 4,
                timeout_ms: None,
            }),
            Request::new(RequestBody::Fetch { job: 3 }),
            Request::new(RequestBody::List),
            Request::new(RequestBody::Metrics),
            Request::new(RequestBody::Trace { job: 3 }),
            Request::new(RequestBody::Shutdown),
        ];
        for request in requests {
            let line = encode_line(&request).unwrap();
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one line per message");
            let back = decode_request(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip_as_single_lines() {
        let responses = vec![
            Response::new(ResponseBody::Submitted {
                job: 1,
                deduped: false,
                cached: true,
            }),
            Response::new(ResponseBody::Status {
                job: 1,
                state: JobState::Failed {
                    error: "broken\nnewline".into(),
                },
            }),
            Response::new(ResponseBody::Jobs {
                jobs: vec![JobSummary {
                    job: 1,
                    fingerprint: u64::MAX,
                    use_case: "stress".into(),
                    priority: -4,
                    state: JobState::Running,
                }],
            }),
            Response::new(ResponseBody::Metrics {
                text: "# TYPE micrograd_jobs_submitted_total counter\n\
                       micrograd_jobs_submitted_total 5\n"
                    .into(),
            }),
            Response::new(ResponseBody::Timeline {
                timeline: JobTimeline {
                    job: 3,
                    started_ns: 12_000,
                    marks: vec![
                        micrograd_obs::TimelineMark {
                            stage: "received".into(),
                            offset_ns: 0,
                            detail: 0,
                        },
                        micrograd_obs::TimelineMark {
                            stage: "epoch".into(),
                            offset_ns: 9_500,
                            detail: 2,
                        },
                    ],
                },
            }),
            Response::new(ResponseBody::ShuttingDown),
            Response::new(ResponseBody::Error {
                message: "nope".into(),
                retry_after_ms: None,
            }),
            Response::new(ResponseBody::Error {
                message: "queue full".into(),
                retry_after_ms: Some(250),
            }),
            Response::new(ResponseBody::Status {
                job: 9,
                state: JobState::TimedOut,
            }),
        ];
        for response in responses {
            let line = encode_line(&response).unwrap();
            assert_eq!(line.matches('\n').count(), 1, "newlines must be escaped");
            let back = decode_response(&line).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn legacy_messages_without_new_fields_still_decode() {
        // A pre-deadline client omits `deadline_ms`; a pre-retry-hint
        // server omits `retry_after_ms`.  Both must decode with the field
        // defaulted to `None`.
        let legacy_error = r#"{"proto":1,"body":{"result":"error","message":"nope"}}"#;
        let response = decode_response(legacy_error).unwrap();
        assert_eq!(
            response.body,
            ResponseBody::Error {
                message: "nope".into(),
                retry_after_ms: None,
            }
        );
        // A watch without a timeout waits indefinitely.
        let bare_watch = r#"{"proto":1,"body":{"op":"watch","job":7}}"#;
        let request = decode_request(bare_watch).unwrap();
        assert_eq!(
            request.body,
            RequestBody::Watch {
                job: 7,
                timeout_ms: None,
            }
        );
    }

    #[test]
    fn line_decoder_reassembles_one_byte_at_a_time() {
        let mut decoder = LineDecoder::new(1 << 20);
        let line = r#"{"proto":1,"body":{"op":"watch","job":9,"timeout_ms":0}}"#;
        for byte in line.as_bytes() {
            assert!(decoder.push(std::slice::from_ref(byte)));
            assert!(decoder.next_line().is_none(), "no line before newline");
        }
        assert!(decoder.push(b"\n"));
        assert_eq!(decoder.next_line().as_deref(), Some(line));
        assert!(decoder.next_line().is_none());
        assert!(decoder.buf.is_empty());
        // The reassembled line decodes like any other.
        assert!(decode_request(line).is_ok());
    }

    #[test]
    fn line_decoder_splits_pipelined_input_and_survives_utf8_boundaries() {
        let mut decoder = LineDecoder::new(1 << 20);
        // Two complete lines plus a fragment, arriving in one read.
        assert!(decoder.push("alpha\nbeta\ngam".as_bytes()));
        assert_eq!(decoder.next_line().as_deref(), Some("alpha"));
        assert_eq!(decoder.next_line().as_deref(), Some("beta"));
        assert!(decoder.next_line().is_none());
        // A multi-byte character split across pushes must reassemble.
        let snowman = "☃"; // 3 UTF-8 bytes
        assert!(decoder.push(&snowman.as_bytes()[..1]));
        assert!(decoder.next_line().is_none());
        assert!(decoder.push(&snowman.as_bytes()[1..]));
        assert!(decoder.push(b"ma\n"));
        assert_eq!(decoder.next_line().as_deref(), Some("gam☃ma"));
    }

    #[test]
    fn line_decoder_bounds_runaway_lines() {
        let mut decoder = LineDecoder::new(16);
        assert!(decoder.push(b"0123456789"));
        // Crossing the bound without a newline trips the overflow latch…
        assert!(!decoder.push(b"0123456789"));
        // …and further input is refused, not buffered.
        let buffered = decoder.buf.len();
        assert!(!decoder.push(b"more"));
        assert_eq!(decoder.buf.len(), buffered);
        // A complete line longer than the bound in a single push is still
        // delivered: memory was already spent, framing stays intact.
        let mut decoder = LineDecoder::new(4);
        assert!(decoder.push(b"longer-than-four\nok"));
        assert_eq!(decoder.next_line().as_deref(), Some("longer-than-four"));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut request = submit_request();
        request.proto = PROTO_VERSION + 1;
        let line = encode_line(&request).unwrap();
        assert_eq!(
            decode_request(&line),
            Err(WireError::Version {
                got: PROTO_VERSION + 1
            })
        );
        let message = decode_request(&line).unwrap_err().to_string();
        assert!(message.contains("version"), "got: {message}");

        // A future-version message whose body does not parse under this
        // build's schema is still a version mismatch, not "malformed".
        let future = format!(
            "{{\"proto\":{},\"body\":{{\"op\":\"cancel\",\"job\":1}}}}\n",
            PROTO_VERSION + 1
        );
        assert_eq!(
            decode_request(&future),
            Err(WireError::Version {
                got: PROTO_VERSION + 1
            })
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(matches!(
            decode_request("{nope"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(r#"{"proto":1,"body":{"op":"warp"}}"#),
            Err(WireError::Malformed(_))
        ));
        // `status` is a zero-budget `watch` now, not an op of its own.
        assert!(matches!(
            decode_request(r#"{"proto":1,"body":{"op":"status","job":1}}"#),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_response("[]"),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn a_huge_unknown_op_or_a_raw_control_byte_is_a_short_malformed_error() {
        // The unknown name is quoted in part; the raw control bytes stop
        // the parser at the first of them.
        for op in ["a".repeat(3_000_000), "\u{1}".repeat(3_000_000)] {
            let line = format!(r#"{{"proto":1,"body":{{"op":"{op}"}}}}"#);
            match decode_request(&line) {
                Err(WireError::Malformed(reason)) => {
                    assert!(reason.len() < 1024, "a {}-byte reason", reason.len());
                }
                other => panic!("expected a malformed request, got {other:?}"),
            }
        }
        let err = decode_request(&format!(
            r#"{{"proto":1,"body":{{"op":"{}"}}}}"#,
            "é".repeat(100)
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains(&format!("`{}`... (200 bytes in all)", "é".repeat(64))),
            "{err}"
        );
        assert_eq!(
            decode_request("{\"proto\":1,\"body\":{\"op\":\"li\u{1}st\"}}"),
            Err(WireError::Malformed(
                "unescaped control character in string at byte 28".into()
            ))
        );
        assert!(decode_request("{\"proto\":1,\"body\":{\"op\":\"list\"}}").is_ok());
    }

    #[test]
    fn job_state_display_and_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        let failed = JobState::Failed {
            error: "why".into(),
        };
        assert!(failed.is_terminal());
        assert_eq!(failed.to_string(), "failed: why");
        assert_eq!(JobState::Queued.to_string(), "queued");
        assert!(JobState::TimedOut.is_terminal());
        assert_eq!(JobState::TimedOut.to_string(), "timed out");
    }
}
