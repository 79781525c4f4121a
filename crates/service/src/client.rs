//! A blocking client for the `microgradd` wire protocol.
//!
//! One [`Client`] owns one TCP session; every method sends one request
//! line and reads one response line.  [`Client::submit_and_wait`] is the
//! convenience loop most callers want: submit, wait until terminal,
//! fetch.  Waiting is push-based — a single `watch` request blocks on
//! the socket until the server notifies completion — so a patient
//! client costs the server zero wakeups.
//!
//! For unreliable networks and busy servers, [`Client::submit_with_retry`]
//! adds reconnect-and-resubmit on dropped connections and honors the
//! server's machine-readable `retry_after_ms` back-pressure hints, under a
//! [`RetryPolicy`] with exponential backoff and deterministic (seeded)
//! jitter.  Resubmission is idempotent: job identity is the configuration
//! fingerprint, so a submit replayed after a mid-line connection drop
//! dedups onto the job the first attempt may already have created.

use crate::protocol::{
    decode_response, encode_line, JobState, JobSummary, Request, RequestBody, ResponseBody,
};
use micrograd_core::{FrameworkConfig, FrameworkOutput};
use micrograd_obs::JobTimeline;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The peer sent something unintelligible.
    Protocol(String),
    /// The server answered with an error response.
    Server(String),
    /// The server answered with a *transient* error response carrying a
    /// retry hint (queue full, draining for shutdown): retrying the same
    /// request after `retry_after` is expected to succeed.
    /// [`Client::submit_with_retry`] handles this variant automatically.
    Busy {
        /// Human-readable rejection reason.
        message: String,
        /// The server's suggested retry delay.
        retry_after: Duration,
    },
    /// The server answered with a well-formed but unexpected response
    /// (a protocol bug on one side).
    UnexpectedResponse(String),
    /// `submit_and_wait` ran out of time.
    Timeout {
        /// The job that was still pending.
        job: u64,
        /// The last observed state.
        state: JobState,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Busy {
                message,
                retry_after,
            } => write!(
                f,
                "server busy: {message} (retry after {} ms)",
                retry_after.as_millis()
            ),
            ClientError::UnexpectedResponse(got) => {
                write!(f, "unexpected response: {got}")
            }
            ClientError::Timeout { job, state } => {
                write!(f, "timed out waiting for job {job} (state: {state})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The receipt of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The job id to poll and fetch with.
    pub job: u64,
    /// An identical job already existed server-side.
    pub deduped: bool,
    /// The report was answered from the durable store without running.
    pub cached: bool,
}

/// How [`Client::submit_with_retry`] paces itself: a bounded retry budget
/// with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `retries + 1`).
    pub retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter draws — deterministic, so a retry schedule is
    /// replayable in tests.  Give concurrent clients distinct seeds to
    /// de-synchronize their retries.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based): exponential
    /// backoff capped at `max_backoff`, plus up to 50% seeded jitter.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_backoff);
        let jitter_range = u64::try_from(capped.as_nanos() / 2).unwrap_or(u64::MAX);
        if jitter_range == 0 {
            return capped;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.jitter_seed.wrapping_add(u64::from(attempt)));
        capped + Duration::from_nanos(rng.next_u64() % jitter_range)
    }
}

/// A blocking JSON-lines client for one `microgradd` session.
#[derive(Debug)]
pub struct Client {
    /// The resolved addresses `connect` succeeded against, kept for
    /// [`Client::reconnect`].
    addrs: Vec<SocketAddr>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Grace added to the socket read timeout on top of a watch budget,
    /// covering request transit and server scheduling so the *server's*
    /// deadline (not a racing socket timeout) resolves the wait.
    const WATCH_READ_SLACK: Duration = Duration::from_secs(2);

    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(addrs.as_slice())?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            addrs,
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Drops the current session and dials the daemon again at the same
    /// address.  Session state is per-connection only (responses match
    /// requests one-to-one), so a reconnected client can simply resend.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if no address accepts the connection.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addrs.as_slice())?;
        stream.set_nodelay(true).ok();
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    fn roundtrip(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let line =
            encode_line(&Request::new(body)).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        if !response.ends_with('\n') {
            // EOF mid-line: the peer died between the write and the
            // newline.  The fragment is unparseable, and the session is
            // gone — classify as a connection loss, not malformed traffic,
            // so `submit_with_retry` knows to reconnect.
            return Err(ClientError::Protocol(
                "server closed the connection mid-line".into(),
            ));
        }
        let response =
            decode_response(&response).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match response.body {
            ResponseBody::Error {
                message,
                retry_after_ms: Some(ms),
            } => Err(ClientError::Busy {
                message,
                retry_after: Duration::from_millis(ms),
            }),
            ResponseBody::Error {
                message,
                retry_after_ms: None,
            } => Err(ClientError::Server(message)),
            body => Ok(body),
        }
    }

    /// Submits a job with no deadline.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors; transient
    /// rejections (queue full, shutting down) surface as
    /// [`ClientError::Busy`] with the server's retry hint.
    pub fn submit(
        &mut self,
        config: &FrameworkConfig,
        priority: i64,
    ) -> Result<SubmitReceipt, ClientError> {
        self.submit_with_deadline(config, priority, None)
    }

    /// Submits a job, optionally bounded by a server-side deadline in
    /// milliseconds (see [`JobState::TimedOut`]).
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors; transient
    /// rejections surface as [`ClientError::Busy`].
    pub fn submit_with_deadline(
        &mut self,
        config: &FrameworkConfig,
        priority: i64,
        deadline_ms: Option<u64>,
    ) -> Result<SubmitReceipt, ClientError> {
        match self.roundtrip(RequestBody::Submit {
            config: config.clone(),
            priority,
            deadline_ms,
        })? {
            ResponseBody::Submitted {
                job,
                deduped,
                cached,
            } => Ok(SubmitReceipt {
                job,
                deduped,
                cached,
            }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Submits a job, transparently surviving dropped connections and
    /// transient server rejections within the retry policy's budget.
    ///
    /// On a connection failure the client reconnects and *resubmits* —
    /// idempotent because job identity is the configuration fingerprint,
    /// so a replayed submit dedups onto the job an earlier attempt may
    /// already have created.  On a [`ClientError::Busy`] rejection the
    /// client honors the larger of the server's `retry_after` hint and its
    /// own backoff.  Permanent errors are returned immediately.
    ///
    /// # Errors
    ///
    /// Returns the last error once the retry budget is exhausted, and
    /// permanent (non-transient) errors immediately.
    pub fn submit_with_retry(
        &mut self,
        config: &FrameworkConfig,
        priority: i64,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> Result<SubmitReceipt, ClientError> {
        let mut attempt = 0u32;
        loop {
            let error = match self.submit_with_deadline(config, priority, deadline_ms) {
                Ok(receipt) => return Ok(receipt),
                Err(e) => e,
            };
            let (reconnect, pause) = match &error {
                // The session is gone (drop mid-line, daemon restart):
                // reconnect, then resubmit.
                ClientError::Io(_) => (true, policy.backoff(attempt)),
                ClientError::Protocol(reason) if reason.contains("closed the connection") => {
                    (true, policy.backoff(attempt))
                }
                // Back-pressure: the session is fine, the server is not
                // ready; wait at least as long as it asked.
                ClientError::Busy { retry_after, .. } => {
                    (false, policy.backoff(attempt).max(*retry_after))
                }
                // Anything else (malformed traffic, permanent server
                // error, protocol bug) will not improve with retries.
                _ => return Err(error),
            };
            if attempt >= policy.retries {
                return Err(error);
            }
            attempt += 1;
            std::thread::sleep(pause);
            if reconnect {
                // A failed reconnect consumes the attempt; the next loop
                // iteration's submit will surface the I/O error.
                if let Err(e) = self.reconnect() {
                    if attempt >= policy.retries {
                        return Err(ClientError::Io(e));
                    }
                    continue;
                }
            }
        }
    }

    /// Blocks until a job reaches a terminal state — or, with a budget,
    /// until `timeout_ms` elapses server-side, in which case the job's
    /// *current* (possibly non-terminal) state is returned; a zero budget
    /// polls.  The server defers the response and pushes it on
    /// completion, so this wait costs no polling on either side of the
    /// wire.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors (unknown jobs
    /// are server errors).
    pub fn watch(&mut self, job: u64, timeout_ms: Option<u64>) -> Result<JobState, ClientError> {
        // A bounded watch also bounds the socket read (budget + slack),
        // so a dead server surfaces as an I/O error instead of hanging
        // the client forever; an unbounded watch blocks indefinitely by
        // design.
        let read_timeout =
            timeout_ms.map(|ms| Duration::from_millis(ms).saturating_add(Self::WATCH_READ_SLACK));
        self.reader.get_ref().set_read_timeout(read_timeout)?;
        let result = self.roundtrip(RequestBody::Watch { job, timeout_ms });
        let _ = self.reader.get_ref().set_read_timeout(None);
        match result? {
            ResponseBody::Status { state, .. } => Ok(state),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the report of a completed job.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors (fetching an
    /// unfinished job is a server error naming its state).
    pub fn fetch(&mut self, job: u64) -> Result<FrameworkOutput, ClientError> {
        match self.roundtrip(RequestBody::Fetch { job })? {
            ResponseBody::Report { output, .. } => Ok(output),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Lists every job the server knows about.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors.
    pub fn list(&mut self) -> Result<Vec<JobSummary>, ClientError> {
        match self.roundtrip(RequestBody::List)? {
            ResponseBody::Jobs { jobs } => Ok(jobs),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Scrapes the server's metrics registry in the Prometheus text
    /// exposition format (counters, gauges and latency histograms from
    /// which p50/p95/p99 are derivable).
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(RequestBody::Metrics)? {
            ResponseBody::Metrics { text } => Ok(text),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches a job's stage-by-stage timeline (received, queued,
    /// dequeued, per-epoch execution marks, persisted), for as long as
    /// the server holds the job's record.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors (an unknown job,
    /// evicted or from an earlier daemon lifetime, is a server error).
    pub fn trace(&mut self, job: u64) -> Result<JobTimeline, ClientError> {
        match self.roundtrip(RequestBody::Trace { job })? {
            ResponseBody::Timeline { timeline } => Ok(timeline),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Requests a graceful server shutdown.
    ///
    /// # Errors
    ///
    /// Propagates connection, protocol and server errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(RequestBody::Shutdown)? {
            ResponseBody::ShuttingDown => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Waits for a job to reach a terminal state, then returns it.
    ///
    /// Implemented as a blocking [`Client::watch`] bounded by `timeout`:
    /// one request, one pushed response, no sleeping.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Timeout`] when the deadline passes first, and
    /// propagates connection, protocol and server errors.
    pub fn wait(&mut self, job: u64, timeout: Duration) -> Result<JobState, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let budget_ms = u64::try_from(remaining.as_millis())
                .unwrap_or(u64::MAX)
                .max(1);
            let state = self.watch(job, Some(budget_ms))?;
            if state.is_terminal() {
                return Ok(state);
            }
            // The server answered with a live state: its watch budget
            // (ours, minus transit) expired, so the deadline has
            // effectively passed.  Loop only if the clock disagrees by
            // more than a rounding error.
            if deadline.saturating_duration_since(Instant::now()) < Duration::from_millis(2) {
                return Err(ClientError::Timeout { job, state });
            }
        }
    }

    /// Submits a job, waits for it (push-based, see
    /// [`Client::wait`]), and fetches the report.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] when the job failed server-side and
    /// [`ClientError::Timeout`] naming [`JobState::TimedOut`] when the
    /// job's own deadline expired, in addition to the failure modes of
    /// [`wait`](Self::wait).
    pub fn submit_and_wait(
        &mut self,
        config: &FrameworkConfig,
        priority: i64,
        timeout: Duration,
    ) -> Result<FrameworkOutput, ClientError> {
        let receipt = self.submit(config, priority)?;
        match self.wait(receipt.job, timeout)? {
            JobState::Failed { error } => Err(ClientError::Server(error)),
            state @ JobState::TimedOut => Err(ClientError::Timeout {
                job: receipt.job,
                state,
            }),
            _ => self.fetch(receipt.job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            retries: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(400),
            jitter_seed: 17,
        };
        let series: Vec<Duration> = (0..6).map(|a| policy.backoff(a)).collect();
        // Pre-jitter: 50, 100, 200, 400, 400, 400 ms; jitter adds < 50%.
        let pre = [50u64, 100, 200, 400, 400, 400];
        for (backoff, base_ms) in series.iter().zip(pre) {
            let base = Duration::from_millis(base_ms);
            assert!(*backoff >= base, "{backoff:?} >= {base:?}");
            assert!(*backoff < base + base / 2, "{backoff:?} < 1.5 * {base:?}");
        }
        // Deterministic: the same policy replays the same schedule.
        let replay: Vec<Duration> = (0..6).map(|a| policy.backoff(a)).collect();
        assert_eq!(series, replay);
        // A different seed de-synchronizes the jitter.
        let other = RetryPolicy {
            jitter_seed: 18,
            ..policy
        };
        assert_ne!(series, (0..6).map(|a| other.backoff(a)).collect::<Vec<_>>());
    }
}
