//! The readiness-driven event loop behind the daemon's sockets.
//!
//! One reactor thread owns the listener and every client socket, and
//! answers every request line itself.  It blocks in `poll(2)` — a thin
//! `extern "C"` shim, no crates — until a socket is readable/writable, a
//! job a client is watching completed, or a shutdown was requested (the
//! last two arrive through a self-pipe).  Idle connections therefore cost
//! a slab entry and a pollfd, not a thread, and an idle daemon performs
//! *zero* timer-driven wakeups: the poll timeout is infinite unless a
//! `watch` deadline or a shutdown drain is actually pending.
//!
//! Per connection the reactor keeps:
//!
//! * a [`LineDecoder`] accumulating partial request lines across reads,
//! * an ordered queue of *response slots* — one per answered request —
//!   so responses go out in request order even though `watch` responses
//!   resolve much later,
//! * a bounded write queue with nonblocking drains: a slow reader
//!   first stops being read from (soft cap) and is eventually closed
//!   (hard cap), so it can never block the loop or other clients.
//!
//! Every request is a short scheduler call (the heavy lifting runs on
//! the scheduler's workers), so the loop answers a connection's ready
//! lines in order, in the iteration that read them, until none are left
//! or its write queue reaches the soft cap; a connection held at the cap
//! resumes once its queue drains below it.  No line is executed once a
//! shutdown is requested, not even one pipelined behind the `shutdown`
//! line itself.
//!
//! Fault injection ([`FaultSite::ConnectionDrop`]) is seated at the
//! response-commit seam: the victim connection gets half its response
//! line and is closed once that fragment flushes, exactly the failure
//! shape the threaded server injected.

use crate::fault::{FaultPlan, FaultSite};
use crate::metrics::ReactorMetrics;
use crate::protocol::{encode_response, JobState, LineDecoder, Response, ResponseBody};
use crate::scheduler::Scheduler;
use crate::server::{self, ShutdownSignal};
use micrograd_obs::Gauge;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest accepted request line; a line still incomplete past this is
/// answered with an error and the connection is closed (slow-loris and
/// runaway-payload bound).
const MAX_LINE: usize = 4 * 1024 * 1024;

/// Write-queue depth at which the reactor stops *reading* a connection:
/// a client that pipelines faster than it drains responses gets
/// backpressure instead of unbounded buffering.
const SOFT_WRITE_CAP: usize = 256 * 1024;

/// Write-queue depth at which the connection is forcibly closed — the
/// peer stopped reading entirely.
const HARD_WRITE_CAP: usize = 8 * 1024 * 1024;

/// Drained-prefix size that triggers compaction of the write queue.
const COMPACT_AT: usize = 64 * 1024;

/// How long a shutdown drain may spend flushing response queues before
/// remaining connections are cut.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Thin `poll(2)`/`pipe(2)` shim over the platform libc — the daemon's
/// only syscall surface beyond `std`.  The build stays crate-free; on
/// non-unix targets the stubs report `Unsupported` and the server
/// refuses to start rather than mis-serving.
#[cfg(unix)]
mod sys {
    /// Readable.
    pub const POLLIN: i16 = 0x001;
    /// Writable.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition.
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up.
    pub const POLLHUP: i16 = 0x010;
    /// Invalid fd.
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: i32 = 0x0004;

    /// One entry of the poll set, ABI-compatible with `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events.
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    mod ffi {
        use super::{NfdsT, PollFd};
        // SAFETY: declarations match the libc prototypes exactly (POSIX
        // poll/pipe/fcntl/read/write/close); `PollFd` is `#[repr(C)]` and
        // layout-identical to `struct pollfd`, `NfdsT` matches `nfds_t`.
        unsafe extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
            pub fn pipe(fds: *mut i32) -> i32;
            pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
            pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
            pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
            pub fn close(fd: i32) -> i32;
        }
    }

    /// Blocks until an fd in `fds` is ready or `timeout_ms` elapses
    /// (`-1` blocks forever).  Returns the number of ready fds.
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        #[allow(clippy::cast_possible_truncation)]
        // SAFETY: `fds` is a live, exclusively-borrowed slice, so the
        // pointer is valid for `fds.len()` entries for the whole call.
        let rc = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(usize::try_from(rc).unwrap_or(0))
        }
    }

    /// Creates a pipe with both ends nonblocking: the write end is safe
    /// to poke from a signal handler (a full pipe means a wakeup is
    /// already pending, so a dropped byte is harmless), and the read end
    /// drains without blocking the event loop.
    pub fn pipe_nonblocking() -> std::io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a stack array of exactly two `i32`s, the shape
        // `pipe(2)` requires; the pointer is valid for the whole call.
        if unsafe { ffi::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        let [read_end, write_end] = fds;
        for fd in [read_end, write_end] {
            // SAFETY: `fd` was just returned by a successful `pipe(2)`, so
            // it is open and owned here; F_GETFL/F_SETFL take no pointers.
            let flags = unsafe { ffi::fcntl(fd, F_GETFL) };
            // SAFETY: same open fd; F_SETFL with an integer flag argument.
            if flags < 0 || unsafe { ffi::fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let e = std::io::Error::last_os_error();
                close_fd(read_end);
                close_fd(write_end);
                return Err(e);
            }
        }
        Ok((read_end, write_end))
    }

    /// Nonblocking read from a raw fd.
    pub fn read_fd(fd: i32, buf: &mut [u8]) -> std::io::Result<usize> {
        // SAFETY: `buf` is a live, exclusively-borrowed slice; the kernel
        // writes at most `buf.len()` bytes into it.
        let n = unsafe { ffi::read(fd, buf.as_mut_ptr(), buf.len()) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(usize::try_from(n).unwrap_or(0))
        }
    }

    /// Write to a raw fd; a single syscall, async-signal-safe.
    pub fn write_fd(fd: i32, buf: &[u8]) -> std::io::Result<usize> {
        // SAFETY: `buf` is a live borrowed slice; the kernel reads at most
        // `buf.len()` bytes from it and never writes through the pointer.
        let n = unsafe { ffi::write(fd, buf.as_ptr(), buf.len()) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(usize::try_from(n).unwrap_or(0))
        }
    }

    /// Closes a raw fd, ignoring errors.
    pub fn close_fd(fd: i32) {
        // SAFETY: takes no pointers; closing an already-closed fd only
        // yields EBADF, which is deliberately ignored.
        let _ = unsafe { ffi::close(fd) };
    }
}

#[cfg(not(unix))]
mod sys {
    /// Readable.
    pub const POLLIN: i16 = 0x001;
    /// Writable.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition.
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up.
    pub const POLLHUP: i16 = 0x010;
    /// Invalid fd.
    pub const POLLNVAL: i16 = 0x020;

    /// One entry of the poll set (unused stub).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events.
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    fn unsupported() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the poll(2) reactor requires a unix platform",
        )
    }

    /// Stub: always `Unsupported`.
    pub fn poll(_fds: &mut [PollFd], _timeout_ms: i32) -> std::io::Result<usize> {
        Err(unsupported())
    }

    /// Stub: always `Unsupported`, so `Server::start` fails fast.
    pub fn pipe_nonblocking() -> std::io::Result<(i32, i32)> {
        Err(unsupported())
    }

    /// Stub: always `Unsupported`.
    pub fn read_fd(_fd: i32, _buf: &mut [u8]) -> std::io::Result<usize> {
        Err(unsupported())
    }

    /// Stub: always `Unsupported`.
    pub fn write_fd(_fd: i32, _buf: &[u8]) -> std::io::Result<usize> {
        Err(unsupported())
    }

    /// Stub: no-op.
    pub fn close_fd(_fd: i32) {}
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> i32 {
    -1
}

/// The self-pipe that wakes the event loop (and the daemon's signal
/// watcher) out of a blocking `poll(2)`.
///
/// [`WakePipe::notify`] is a single nonblocking `write(2)` and is
/// therefore async-signal-safe; [`WakePipe::notify_raw`] performs the
/// same poke given only the raw write-end fd, for use from a signal
/// handler that can touch nothing but a static integer.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    /// Creates the pipe with both ends nonblocking.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the pipe cannot be created, and
    /// `Unsupported` on non-unix platforms.
    pub fn new() -> std::io::Result<WakePipe> {
        let (read_fd, write_fd) = sys::pipe_nonblocking()?;
        Ok(WakePipe { read_fd, write_fd })
    }

    /// Pokes the pipe.  A full pipe means a wakeup is already pending,
    /// so failures are ignored.
    pub fn notify(&self) {
        Self::notify_raw(self.write_fd);
    }

    /// Pokes a pipe by its raw write-end fd — one `write(2)` syscall,
    /// async-signal-safe.  Negative fds are ignored.
    pub fn notify_raw(fd: i32) {
        if fd >= 0 {
            let _ = sys::write_fd(fd, &[1]);
        }
    }

    /// The raw write-end fd, for stashing in a static so a signal
    /// handler can call [`WakePipe::notify_raw`].
    #[must_use]
    pub fn write_end(&self) -> i32 {
        self.write_fd
    }

    pub(crate) fn read_end(&self) -> i32 {
        self.read_fd
    }

    /// Discards every pending wakeup byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!(sys::read_fd(self.read_fd, &mut buf), Ok(n) if n > 0) {}
    }

    /// Blocks until the pipe is poked, then drains it.  Used by the
    /// daemon's signal watcher; the event loop folds the pipe into its
    /// main poll set instead.
    pub fn wait(&self) {
        loop {
            let mut fds = [sys::PollFd {
                fd: self.read_fd,
                events: sys::POLLIN,
                revents: 0,
            }];
            match sys::poll(&mut fds, -1) {
                Ok(0) => {}
                Ok(_) => {
                    self.drain();
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// What answering one request line produced.
pub(crate) enum Answer {
    /// An encoded response line, ready for the wire.
    Line(String),
    /// The request was a `watch`: the response is deferred until the
    /// job completes, the optional deadline passes, or the server
    /// drains.
    Watch { job: u64, deadline: Option<Instant> },
}

/// The scheduler→reactor completion mailbox.
///
/// Lock discipline: the scheduler's terminal hook pushes completions
/// while *holding the scheduler lock*, so the reactor must never call
/// into the scheduler while holding this lock — [`Inbox::take`] moves
/// the queue out and releases before any processing.
#[derive(Default)]
pub(crate) struct Inbox {
    completions: Mutex<Vec<(u64, JobState)>>,
}

impl Inbox {
    pub fn push_completion(&self, job: u64, state: JobState) {
        crate::sync::lock_or_recover(&self.completions).push((job, state));
    }

    pub fn take(&self) -> Vec<(u64, JobState)> {
        std::mem::take(&mut *crate::sync::lock_or_recover(&self.completions))
    }
}

/// Everything the reactor thread shares with the scheduler's terminal
/// hook and the [`Server`](crate::Server) handle.
pub(crate) struct ReactorShared {
    pub scheduler: Scheduler,
    pub signal: ShutdownSignal,
    pub inbox: Arc<Inbox>,
    pub wake: Arc<WakePipe>,
}

/// One ordered response slot: created when its request line is
/// executed, filled when the response line is known.  Only a filled
/// *prefix* of the slot queue ever reaches the write queue, so
/// responses leave in request order no matter when they resolve.
struct Slot {
    seq: u64,
    line: Option<String>,
}

struct WatchEntry {
    seq: u64,
    job: u64,
    deadline: Option<Instant>,
}

struct Connection {
    stream: TcpStream,
    decoder: LineDecoder,
    /// Encoded response bytes awaiting a nonblocking write.
    out: Vec<u8>,
    /// Already-written prefix of `out`.
    out_pos: usize,
    pending: VecDeque<Slot>,
    next_seq: u64,
    /// Complete lines parsed but not yet answered.
    ready: VecDeque<String>,
    watches: Vec<WatchEntry>,
    read_closed: bool,
    close_after_flush: bool,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            decoder: LineDecoder::new(MAX_LINE),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            ready: VecDeque::new(),
            watches: Vec::new(),
            read_closed: false,
            close_after_flush: false,
        }
    }

    fn out_bytes(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether a ready line waits and the write queue is below the soft
    /// cap.
    fn may_answer(&self) -> bool {
        !self.ready.is_empty() && self.out_bytes() < SOFT_WRITE_CAP
    }

    /// Fills the response slot `seq` and commits the filled prefix to
    /// the write queue (where the connection-drop fault is seated).
    fn fill(&mut self, seq: u64, line: String, fault: &FaultPlan, hwm: &Gauge) {
        if let Some(slot) = self.pending.iter_mut().find(|slot| slot.seq == seq) {
            slot.line = Some(line);
        }
        self.promote(fault, hwm);
    }

    fn promote(&mut self, fault: &FaultPlan, hwm: &Gauge) {
        while self.pending.front().is_some_and(|slot| slot.line.is_some()) {
            let line = self
                .pending
                .pop_front()
                .and_then(|slot| slot.line)
                .unwrap_or_default();
            if fault.should_inject(FaultSite::ConnectionDrop) {
                // Sever the connection mid-line: commit half the
                // response with no newline, then hang up once it
                // flushes.  The client sees a dropped connection and
                // must reconnect and resubmit (idempotent via dedup).
                let cut = line.len() / 2;
                self.out
                    .extend_from_slice(line.as_bytes().get(..cut).unwrap_or_default());
                self.read_closed = true;
                self.close_after_flush = true;
                self.pending.clear();
                self.watches.clear();
                self.ready.clear();
                break;
            }
            self.out.extend_from_slice(line.as_bytes());
        }
        hwm.set_max(u64::try_from(self.out_bytes()).unwrap_or(u64::MAX));
    }

    /// Nonblocking drain of the write queue; `false` means the
    /// connection is dead.
    fn try_flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            let Some(unsent) = self.out.get(self.out_pos..) else {
                break;
            };
            match self.stream.write(unsent) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > COMPACT_AT {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }

    /// Reads everything the socket has; `false` means the connection is
    /// dead.  Complete lines land in `ready`; EOF latches `read_closed`
    /// (the connection stays open until its queued responses and
    /// watches resolve).
    fn read_ready(&mut self) -> bool {
        let mut buf = [0u8; 8192];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if !self.decoder.push(buf.get(..n).unwrap_or_default()) {
                        // A line that can never complete within budget:
                        // answer once (jumping any queued responses — a
                        // protocol-violating peer forfeits ordering)
                        // and close.
                        let line = encode_response(&Response::new(ResponseBody::Error {
                            message: format!("request line exceeds {MAX_LINE} bytes"),
                            retry_after_ms: None,
                        }));
                        self.pending.clear();
                        self.watches.clear();
                        self.ready.clear();
                        self.out.extend_from_slice(line.as_bytes());
                        self.read_closed = true;
                        self.close_after_flush = true;
                        break;
                    }
                    while let Some(line) = self.decoder.next_line() {
                        if !line.trim().is_empty() {
                            self.ready.push_back(line);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// Index-stable connection storage: a connection keeps its token until
/// it closes, and a freed slot is reused by the next accept.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, stream: TcpStream) -> usize {
        let conn = Connection::new(stream);
        if let Some(token) = self.free.pop() {
            // A free-list token always names an existing vacant slot; if
            // the list is ever corrupt, fall through and append instead.
            if let Some(slot) = self.slots.get_mut(token) {
                *slot = Some(conn);
                return token;
            }
        }
        self.slots.push(Some(conn));
        self.slots.len() - 1
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut Connection> {
        self.slots.get_mut(token).and_then(Option::as_mut)
    }

    fn remove(&mut self, token: usize) -> Option<Connection> {
        let conn = self.slots.get_mut(token).and_then(Option::take);
        if conn.is_some() {
            self.free.push(token);
        }
        conn
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Connection)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|conn| (token, conn)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut Connection)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_mut().map(|conn| (token, conn)))
    }

    fn tokens(&self) -> Vec<usize> {
        self.iter().map(|(token, _)| token).collect()
    }

    /// Live connections: every slot not on the free list.
    fn len(&self) -> u64 {
        self.slots.len().saturating_sub(self.free.len()) as u64
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// A watch's answer: a `status` line with the job's state, or `unknown
/// job` when the scheduler holds no record of it.
fn watch_answer(job: u64, state: Option<JobState>) -> String {
    encode_response(&Response::new(match state {
        Some(state) => ResponseBody::Status { job, state },
        None => ResponseBody::Error {
            message: format!("unknown job {job}"),
            retry_after_ms: None,
        },
    }))
}

enum Target {
    Wake,
    Listener,
    Conn(usize),
}

struct EventLoop<'a> {
    shared: &'a ReactorShared,
    metrics: ReactorMetrics,
    fault: FaultPlan,
    conns: Slab,
    listener: Option<TcpListener>,
    draining: bool,
    drain_deadline: Option<Instant>,
}

/// Runs the event loop until shutdown completes.  Called on the
/// dedicated reactor thread; a fatal `poll` failure is reported to
/// stderr and abandons the loop (the daemon is then effectively dead,
/// which `Server::shutdown` still unwinds cleanly).
pub(crate) fn run(listener: TcpListener, shared: &ReactorShared) {
    // Clones share injection budgets, so the reactor seam and the store
    // seams draw from one plan.
    let fault = shared.scheduler.store().fault_plan().clone();
    let mut event_loop = EventLoop {
        shared,
        metrics: shared.scheduler.metrics().reactor.clone(),
        fault,
        conns: Slab::default(),
        listener: Some(listener),
        draining: false,
        drain_deadline: None,
    };
    if let Err(e) = event_loop.run() {
        eprintln!("microgradd: event loop failed: {e}");
    }
}

impl EventLoop<'_> {
    fn run(&mut self) -> std::io::Result<()> {
        if let Some(listener) = &self.listener {
            listener.set_nonblocking(true)?;
        }
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut targets: Vec<Target> = Vec::new();
        loop {
            if !self.draining && self.shared.signal.is_triggered() {
                self.enter_drain();
                // Close the sessions that have nothing left to deliver now:
                // the wake-up that announced the shutdown may already have
                // been consumed, and an idle drain would otherwise sleep in
                // `poll` until its deadline.
                self.sweep();
            }
            // Checked before polling, for the same reason.
            if self.draining {
                let expired = self
                    .drain_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline);
                if self.conns.is_empty() || expired {
                    for token in self.conns.tokens() {
                        self.close(token);
                    }
                    return Ok(());
                }
            }

            fds.clear();
            targets.clear();
            fds.push(sys::PollFd {
                fd: self.shared.wake.read_end(),
                events: sys::POLLIN,
                revents: 0,
            });
            targets.push(Target::Wake);
            if let Some(listener) = &self.listener {
                fds.push(sys::PollFd {
                    fd: raw_fd(listener),
                    events: sys::POLLIN,
                    revents: 0,
                });
                targets.push(Target::Listener);
            }
            for (token, conn) in self.conns.iter() {
                let mut events = 0i16;
                // Backpressure: past the soft cap the peer stops being
                // read until its responses drain.
                if !self.draining && !conn.read_closed && conn.out_bytes() < SOFT_WRITE_CAP {
                    events |= sys::POLLIN;
                }
                if conn.out_bytes() > 0 {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: raw_fd(&conn.stream),
                    events,
                    revents: 0,
                });
                targets.push(Target::Conn(token));
            }

            match sys::poll(&mut fds, self.poll_timeout()) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            self.metrics.loop_wakeups.inc();

            for (fd, target) in fds.iter().zip(&targets) {
                if fd.revents == 0 {
                    continue;
                }
                match target {
                    Target::Wake => self.shared.wake.drain(),
                    Target::Listener => self.accept_ready(),
                    Target::Conn(token) => self.conn_event(*token, fd.revents),
                }
            }

            // Answer before taking the inbox, so a watch registered on a
            // live job here finds its completion in this take or a later
            // one.
            self.answer_lines();
            let completions = self.shared.inbox.take();
            self.resolve_completions(completions);
            self.expire_watches(Instant::now());
            self.sweep();
            // Recompute rather than track: watches are removed on many
            // paths (resolution, expiry, drain, faults, close), and a
            // missed decrement would drift forever.  The loop owns every
            // connection, so summing here is exact at publication time.
            let watches: u64 = self.conns.iter().map(|(_, c)| c.watches.len() as u64).sum();
            self.metrics.watches_active.set(watches);
        }
    }

    /// `poll` timeout in milliseconds: zero while a connection has a line
    /// it may answer, else the nearest watch deadline or the drain
    /// deadline, else infinite.  An idle daemon therefore performs zero
    /// timer wakeups.
    fn poll_timeout(&self) -> i32 {
        let answering = !self.shared.signal.is_triggered();
        let mut deadline = self.drain_deadline;
        for (_, conn) in self.conns.iter() {
            // Left at the soft cap, a line has nothing else to wake it
            // once the write queue drains.
            if answering && conn.may_answer() {
                return 0;
            }
            for watch in &conn.watches {
                if let Some(d) = watch.deadline {
                    deadline = Some(deadline.map_or(d, |current| current.min(d)));
                }
            }
        }
        match deadline {
            None => -1,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                // Round up so a sub-millisecond remainder sleeps one
                // tick instead of spinning.
                i32::try_from(remaining.as_millis().saturating_add(1)).unwrap_or(i32::MAX)
            }
        }
    }

    fn enter_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        // Stop accepting: dropping the listener closes its fd.
        self.listener = None;
        // Watches cannot resolve once the loop exits; answer each with
        // the job's current state so no client hangs on a draining
        // server.
        for (_, conn) in self.conns.iter_mut() {
            let watches = std::mem::take(&mut conn.watches);
            for watch in watches {
                let line = watch_answer(watch.job, self.shared.scheduler.status(watch.job));
                conn.fill(watch.seq, line, &self.fault, &self.metrics.write_queue_hwm);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.conns.insert(stream);
                    self.metrics.connections_accepted.inc();
                    self.metrics.connections_open.set(self.conns.len());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: usize, revents: i16) {
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(token) {
            if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                dead = true;
            } else if revents & (sys::POLLIN | sys::POLLHUP) != 0 && !conn.read_closed {
                dead = !conn.read_ready();
            }
        }
        if dead {
            self.close(token);
        }
    }

    /// Answers each connection's ready lines in request order until none
    /// are left or its write queue reaches the soft cap, and executes no
    /// line once a shutdown is requested.
    fn answer_lines(&mut self) {
        let shared = self.shared;
        for (_, conn) in self.conns.iter_mut() {
            while !shared.signal.is_triggered() && conn.may_answer() {
                let Some(line) = conn.ready.pop_front() else {
                    break;
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.pending.push_back(Slot { seq, line: None });
                let line = match server::handle_line(&line, shared) {
                    Answer::Line(line) => line,
                    Answer::Watch { job, deadline } => {
                        // The terminal hook fires under the scheduler
                        // lock, so either this status observes the
                        // terminal state or the completion lands in the
                        // inbox after this point — never neither.
                        let state = shared.scheduler.status(job);
                        if state.as_ref().is_some_and(|s| !s.is_terminal()) {
                            conn.watches.push(WatchEntry { seq, job, deadline });
                            continue;
                        }
                        watch_answer(job, state)
                    }
                };
                conn.fill(seq, line, &self.fault, &self.metrics.write_queue_hwm);
            }
        }
    }

    fn resolve_completions(&mut self, completions: Vec<(u64, JobState)>) {
        for (job, state) in completions {
            for (_, conn) in self.conns.iter_mut() {
                let mut i = 0;
                while let Some(entry) = conn.watches.get(i) {
                    if entry.job == job {
                        let watch = conn.watches.swap_remove(i);
                        conn.fill(
                            watch.seq,
                            watch_answer(job, Some(state.clone())),
                            &self.fault,
                            &self.metrics.write_queue_hwm,
                        );
                        self.metrics.notifications_pushed.inc();
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Answers watches whose budget expired with the job's *current*
    /// (typically non-terminal) state, per the protocol contract.
    fn expire_watches(&mut self, now: Instant) {
        for (_, conn) in self.conns.iter_mut() {
            let mut i = 0;
            while let Some(entry) = conn.watches.get(i) {
                if entry.deadline.is_some_and(|d| d <= now) {
                    let watch = conn.watches.swap_remove(i);
                    let line = watch_answer(watch.job, self.shared.scheduler.status(watch.job));
                    conn.fill(watch.seq, line, &self.fault, &self.metrics.write_queue_hwm);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Per-iteration housekeeping: flush write queues, close what is
    /// finished.
    fn sweep(&mut self) {
        for token in self.conns.tokens() {
            let mut dead = false;
            if let Some(conn) = self.conns.get_mut(token) {
                if !conn.try_flush() {
                    dead = true;
                }
                let drained = conn.out_bytes() == 0;
                let quiescent =
                    conn.pending.is_empty() && conn.watches.is_empty() && conn.ready.is_empty();
                if conn.out_bytes() > HARD_WRITE_CAP {
                    // The peer stopped reading altogether.
                    dead = true;
                }
                if drained && conn.close_after_flush {
                    dead = true;
                }
                if drained && conn.read_closed && quiescent {
                    dead = true;
                }
                if self.draining && drained && conn.pending.is_empty() {
                    // Nothing left to deliver: a draining server closes
                    // the session.
                    dead = true;
                }
            }
            if dead {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: usize) {
        if self.conns.remove(token).is_some() {
            self.metrics.connections_open.set(self.conns.len());
            self.metrics.connections_closed.inc();
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_notifies_and_drains() {
        let pipe = WakePipe::new().expect("pipe");
        pipe.notify();
        pipe.notify();
        // Both pokes coalesce into one wait.
        pipe.wait();
        let mut buf = [0u8; 8];
        // Drained: the read end has nothing left.
        assert!(matches!(
            sys::read_fd(pipe.read_end(), &mut buf),
            Ok(0) | Err(_)
        ));
        // notify_raw on a negative fd is a no-op, not a crash.
        WakePipe::notify_raw(-1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut slab = Slab::default();
        let s1 = TcpStream::connect(addr).expect("connect");
        let s2 = TcpStream::connect(addr).expect("connect");
        let t1 = slab.insert(s1);
        assert!(slab.remove(t1).is_some());
        assert!(slab.get_mut(t1).is_none(), "removed slot reads empty");
        let t2 = slab.insert(s2);
        assert_eq!(t1, t2, "freed slot is reused");
        assert!(!slab.is_empty());
    }

    #[test]
    fn response_slots_promote_in_request_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stream = TcpStream::connect(addr).expect("connect");
        let mut conn = Connection::new(stream);
        let fault = FaultPlan::none();
        let metrics = crate::ServiceMetrics::new();
        let hwm = &metrics.reactor.write_queue_hwm;
        conn.pending.push_back(Slot { seq: 0, line: None });
        conn.pending.push_back(Slot { seq: 1, line: None });
        // Filling the *second* slot first must not emit anything…
        conn.fill(1, "second\n".into(), &fault, hwm);
        assert_eq!(conn.out_bytes(), 0, "out-of-order slot is held back");
        // …until the first resolves, then both flush in request order.
        conn.fill(0, "first\n".into(), &fault, hwm);
        assert_eq!(&conn.out, b"first\nsecond\n");
        assert!(conn.pending.is_empty());
        assert!(metrics.value("micrograd_reactor_write_queue_hwm") >= 13);
    }
}
