//! The TCP layer, built around **readiness** rather than
//! blocking-reads-per-worker: a single IO driver thread owns the
//! listener and every connection that is *between* requests, reads
//! whatever bytes are available without ever blocking, and hands a
//! connection to the worker pool only once a complete request has been
//! framed. Workers therefore never wait on a peer's send rate — a client
//! that dribbles a request one byte a second costs the driver a buffer,
//! not a worker.
//!
//! Life of a connection:
//!
//! ```text
//!   accept ──► driver read/frame loop ──► bounded queue ──► worker
//!     ▲   (nonblocking; 400/413/503/timeouts   (full ⇒ 503)   handle +
//!     │    answered right here)                               write
//!     └────────────── keep-alive return ◄─────────────────────┘
//! ```
//!
//! * The driver *waits on readiness* instead of sleeping: between
//!   passes it parks in `poll(2)` over the listener, every owned
//!   connection, and a self-wake pipe the workers nudge when they return
//!   a keep-alive connection — so a response is followed by the next
//!   request's read on the very next pass, not after a timer tick. (On
//!   non-Unix targets the wait degrades to a short sleep.) Each pass
//!   accepts new sockets, drains readable bytes into per-connection
//!   buffers, frames requests with [`frame_request`], and enforces the
//!   read deadline so a stalled peer is dropped instead of parked on.
//! * Backpressure is unchanged from the worker-pool design: the queue of
//!   *ready* requests is bounded, and overflow is answered `503` at once
//!   — but now only fully-read requests occupy slots, so slow senders
//!   can't fill it. The connection table itself is also bounded
//!   (`queue_depth + 2·workers + 32`); beyond that, accepts get the same
//!   `503`.
//! * A framed connection moves to its worker (no descriptor is
//!   duplicated). Workers write responses with a write timeout (the
//!   configured read timeout, set with `TCP_NODELAY` once at accept), so
//!   a peer that stops *receiving* releases the worker too; on keep-alive
//!   the connection goes back to the driver for the next request,
//!   carrying any pipelined bytes already read.
//!
//! Shutdown (route handler or SIGINT/SIGTERM): the driver stops
//! accepting, drops idle connections, and closes the queue; workers
//! drain the requests already framed (a worker mid-search still writes
//! its response); [`ServerHandle::join`] then flushes the runtime's
//! persistent tier and returns.

use crate::http::{
    frame_request, write_response, Frame, HttpParseError, HttpRequest, HttpResponse,
};
use crate::pool::{BoundedQueue, WorkerPool};
use crate::router::App;
use crate::ServeConfig;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on one readiness wait: shutdown requested through the
/// route handler (no fd event, no nudge) is noticed within this.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// How long accepts stay gated after a transient `accept` failure
/// (EMFILE, ECONNABORTED, …).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Set by the signal handler; checked alongside the per-server flag so
/// one handler installation covers any number of servers.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Install SIGINT/SIGTERM handlers that flip the shared shutdown flag
/// (the handler only stores to an atomic — async-signal-safe). Call once
/// from the binary entry point; a no-op off Unix.
#[cfg(unix)]
pub fn install_signal_handlers() {
    unsafe extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// A connection owned by the IO driver: its socket (nonblocking while
/// here), the bytes read so far of the request being framed, and the
/// deadline after which a silent peer is dropped.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

/// A fully-framed request handed to a worker: the socket (made blocking
/// by the worker), the request, and any pipelined bytes read beyond it.
struct Job {
    stream: TcpStream,
    req: HttpRequest,
    remainder: Vec<u8>,
}

/// Keep-alive connections on their way back from workers to the driver,
/// plus the write half of the driver's self-wake pipe: a push nudges the
/// driver out of its readiness wait, so the connection's next request is
/// read immediately instead of after a timer tick.
struct ReturnLane {
    conns: Mutex<Vec<Conn>>,
    #[cfg(unix)]
    wake: std::os::unix::net::UnixStream,
}

impl ReturnLane {
    /// Build the lane and the read half of its wake pipe (the driver
    /// includes it in every readiness wait and drains it when signalled).
    #[cfg(unix)]
    fn new() -> (Self, std::os::unix::net::UnixStream) {
        let (wake, wake_rx) =
            std::os::unix::net::UnixStream::pair().expect("socketpair for driver wake");
        // Both halves nonblocking: a full pipe just coalesces nudges, and
        // the driver's drain stops at WouldBlock.
        wake.set_nonblocking(true).expect("nonblocking wake tx");
        wake_rx.set_nonblocking(true).expect("nonblocking wake rx");
        (ReturnLane { conns: Mutex::new(Vec::new()), wake }, wake_rx)
    }

    #[cfg(not(unix))]
    fn new() -> (Self, ()) {
        (ReturnLane { conns: Mutex::new(Vec::new()) }, ())
    }

    fn push(&self, conn: Conn) {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).push(conn);
        self.nudge();
    }

    /// Wake the driver (best-effort: a full pipe already guarantees a
    /// pending wakeup, and errors only cost latency, not correctness).
    fn nudge(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&self.wake).write(&[1u8]);
        }
    }

    fn drain(&self) -> Vec<Conn> {
        std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Debounce for transient `accept` failures: instead of sleeping on the
/// driver thread (which would stall every established connection for the
/// backoff), the gate marks accepts unready until a deadline and the
/// driver keeps polling and serving the connections it already owns.
struct AcceptGate {
    until: Option<Instant>,
}

impl AcceptGate {
    fn new() -> Self {
        AcceptGate { until: None }
    }

    /// May the driver call `accept` now? Clears an expired backoff.
    fn ready(&mut self, now: Instant) -> bool {
        match self.until {
            Some(t) if now < t => false,
            _ => {
                self.until = None;
                true
            }
        }
    }

    /// Record a transient failure: gate accepts for `ACCEPT_BACKOFF`.
    fn trip(&mut self, now: Instant) {
        self.until = Some(now + ACCEPT_BACKOFF);
    }

    /// Time left on the gate (None when accepts are ready) — bounds the
    /// readiness wait so the backoff expires on schedule.
    fn remaining(&self, now: Instant) -> Option<Duration> {
        self.until.map(|t| t.saturating_duration_since(now))
    }
}

/// A running server: its bound address, shared [`App`] state (metrics and
/// caches are readable from here), and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<App>,
    driver: JoinHandle<()>,
    pool: WorkerPool,
}

impl ServerHandle {
    /// The actually bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Begin graceful shutdown (idempotent; `join` completes it).
    pub fn shutdown(&self) {
        self.app.request_shutdown();
    }

    /// Wait until the driver and every worker have exited, then flush
    /// the runtime's persistent tier (catching outcomes computed after
    /// any `/shutdown`-route flush).
    pub fn join(self) {
        let _ = self.driver.join();
        self.pool.join();
        self.app.runtime.flush();
    }

    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Bind, spawn the IO driver and the worker pool, and return
/// immediately. The server runs until shutdown is requested.
pub fn start(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let app = Arc::new(App::with_runtime(config.workers, &config.runtime_config()));
    let queue = Arc::new(BoundedQueue::new(config.queue_depth));
    let (returns, wake_rx) = ReturnLane::new();
    let returns = Arc::new(returns);

    let pool = {
        let app = Arc::clone(&app);
        let queue = Arc::clone(&queue);
        let returns = Arc::clone(&returns);
        let io_timeout = config.read_timeout;
        WorkerPool::spawn(config.workers, Arc::clone(&queue), move |job: Job| {
            app.metrics.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
            serve_job(&app, job, io_timeout, &returns);
        })
    };

    let driver = {
        let app = Arc::clone(&app);
        let config = config.clone();
        std::thread::Builder::new()
            .name("cme-serve-io".into())
            .spawn(move || drive(&listener, &app, &queue, &returns, &wake_rx, &config))
            .expect("spawn io driver thread")
    };

    Ok(ServerHandle { addr, app, driver, pool })
}

/// Handle one framed request on a worker: blocking socket, bounded
/// write, then either return the connection to the driver (keep-alive)
/// or close it.
fn serve_job(app: &App, job: Job, io_timeout: Duration, returns: &ReturnLane) {
    let Job { stream: mut writer, req, remainder } = job;
    // Blocking for the write, under the write timeout set at accept.
    let _ = writer.set_nonblocking(false);
    let resp = app.handle(&req);
    // Evaluated after handling so a `/shutdown` response closes its own
    // connection.
    let keep = req.keep_alive() && !app.shutdown_requested();
    if write_response(&mut writer, &resp, keep).is_err() || !keep {
        return;
    }
    if writer.set_nonblocking(true).is_ok() {
        returns.push(Conn {
            stream: writer,
            buf: remainder,
            deadline: Instant::now() + io_timeout,
        });
    }
}

/// What a driver pass decided to do with one connection.
enum Verdict {
    Keep,
    Close,
    /// A complete request framed from the first `consumed` buffered
    /// bytes: the connection moves to a worker.
    Ready {
        req: HttpRequest,
        consumed: usize,
    },
}

/// The IO driver loop: accept, read, frame, dispatch, expire — then wait
/// for *readiness* (listener, owned connections, or a worker's nudge)
/// instead of sleeping a fixed tick.
#[cfg(unix)]
type WakeRx = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakeRx = ();

fn drive(
    listener: &TcpListener,
    app: &Arc<App>,
    queue: &Arc<BoundedQueue<Job>>,
    returns: &ReturnLane,
    wake_rx: &WakeRx,
    config: &ServeConfig,
) {
    // Bound on connections the driver tracks; beyond it accepts are
    // 503'd so buffered heads can't grow without limit.
    let open_cap = config.queue_depth + 2 * config.workers + 32;
    let mut conns: Vec<Conn> = Vec::new();
    let mut accept_gate = AcceptGate::new();
    loop {
        if app.shutdown_requested() || signalled() {
            // Fold the signal into the app flag so workers returning
            // keep-alive connections close them instead.
            app.request_shutdown();
            break;
        }
        let mut progressed = false;

        // Keep-alive connections coming back from workers. Their
        // remainder buffers may already hold a pipelined request, so
        // they go through the same frame pass below.
        let returned = returns.drain();
        progressed |= !returned.is_empty();
        conns.extend(returned);

        // Accept burst (skipped while a transient-failure backoff is
        // live — established connections below are still polled).
        if accept_gate.ready(Instant::now()) {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        progressed = true;
                        if conns.len() >= open_cap {
                            app.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                            reject_overloaded(stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Set once for the connection's life. Write-side
                        // backpressure: a peer that stops reading its
                        // response blocks a worker for at most the IO
                        // timeout, then the write fails and the
                        // connection is dropped.
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_write_timeout(Some(config.read_timeout));
                        conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                            deadline: Instant::now() + config.read_timeout,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    // Transient accept failures (EMFILE, ECONNABORTED, …):
                    // gate accepts briefly instead of sleeping, so the
                    // connections already being served don't stall.
                    Err(_) => {
                        accept_gate.trip(Instant::now());
                        break;
                    }
                }
            }
        }

        // Read + frame pass over every owned connection.
        let now = Instant::now();
        let mut k = 0;
        while k < conns.len() {
            // swap_remove is fine: order carries no fairness beyond the
            // poll pass itself.
            match poll_conn(&mut conns[k], config, now, &mut progressed) {
                Verdict::Keep => k += 1,
                Verdict::Close => drop(conns.swap_remove(k)),
                Verdict::Ready { req, consumed } => {
                    // The driver stops polling the connection, or it would
                    // steal the *next* request's bytes mid-handle.
                    let mut conn = conns.swap_remove(k);
                    let remainder = conn.buf.split_off(consumed);
                    dispatch(Job { stream: conn.stream, req, remainder }, app, queue);
                }
            }
        }

        if !progressed {
            let now = Instant::now();
            let timeout = match accept_gate.remaining(now) {
                // Wake when the accept backoff expires even if no fd
                // fires; the listener is excluded from the wait below
                // while gated, or a pending accept would busy-loop it.
                Some(left) => IDLE_POLL.min(left.max(Duration::from_millis(1))),
                None => IDLE_POLL,
            };
            wait_readable(listener, wake_rx, &conns, accept_gate.ready(now), timeout);
            drain_wake(wake_rx);
        }
    }
    // Stop feeding workers and let them drain what was already framed.
    queue.close();
    // Idle and half-read connections die with the driver (dropped here);
    // workers returning keep-alive conns after this point hit the closed
    // lane harmlessly — `join` happens after the pool drains.
    drop(conns.drain(..));
}

/// Read whatever is available on one connection, then try to frame a
/// request. Returns whether the driver should keep polling it, close it,
/// or hand it to a worker.
fn poll_conn(
    conn: &mut Conn,
    config: &ServeConfig,
    now: Instant,
    progressed: &mut bool,
) -> Verdict {
    // Drain the socket without blocking.
    let mut scratch = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => return Verdict::Close, // peer closed
            Ok(n) => {
                *progressed = true;
                conn.buf.extend_from_slice(&scratch[..n]);
                conn.deadline = now + config.read_timeout;
                // Cap what one connection may buffer: a head is already
                // bounded by the framer, so the only way past the body
                // cap plus head room is a pipelining flood.
                if conn.buf.len() > config.max_body_bytes + crate::http::MAX_HEAD_BYTES {
                    answer_and_close(
                        &conn.stream,
                        &HttpResponse::error(413, "pipelined burst too large"),
                    );
                    return Verdict::Close;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }

    match frame_request(&conn.buf, config.max_body_bytes) {
        Frame::Incomplete => {
            if now >= conn.deadline {
                // Same contract as the old blocking read timeout: a
                // silent peer is dropped without a response.
                return Verdict::Close;
            }
            Verdict::Keep
        }
        Frame::Ready { req, consumed } => {
            *progressed = true;
            Verdict::Ready { req, consumed }
        }
        Frame::Bad(e) => {
            let resp = match e {
                HttpParseError::BodyTooLarge { declared, cap } => HttpResponse::error(
                    413,
                    &format!("body of {declared} bytes exceeds the {cap}-byte cap"),
                ),
                HttpParseError::Malformed(msg) => HttpResponse::error(400, &msg),
            };
            answer_and_close(&conn.stream, &resp);
            Verdict::Close
        }
    }
}

/// Queue a framed request for the workers. The 503 contract: a full queue
/// of *ready* requests answers immediately from the driver.
fn dispatch(job: Job, app: &App, queue: &BoundedQueue<Job>) {
    match queue.try_push(job) {
        Ok(()) => app.metrics.queue_depth.store(queue.len() as u64, Ordering::Relaxed),
        Err(job) => {
            app.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
            answer_and_close(
                &job.stream,
                &HttpResponse::error(503, "server overloaded: request queue is full, retry later"),
            );
        }
    }
}

/// Best-effort error reply from the driver thread. The socket stays
/// nonblocking — these responses are small enough for the send buffer,
/// and the driver must never wait on a peer; a `WouldBlock` here just
/// costs the client its error body.
fn answer_and_close(mut stream: &TcpStream, resp: &HttpResponse) {
    let _ = write_response(&mut stream, resp, false);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Park the driver until the listener, the wake pipe, or any owned
/// connection becomes readable — or `timeout` elapses. Readiness only
/// *ends the wait*: the next driver pass re-reads everything
/// nonblockingly, so spurious wakeups and `poll` errors are safe (they
/// degrade to the old timer-tick behaviour, never to a missed event).
/// `accept_ready` excludes the listener while accepts are gated, so a
/// pending connection can't busy-loop the backoff away.
#[cfg(unix)]
fn wait_readable(
    listener: &TcpListener,
    wake_rx: &WakeRx,
    conns: &[Conn],
    accept_ready: bool,
    timeout: Duration,
) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 0x001;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
    if accept_ready {
        fds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
    }
    fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
    for conn in conns {
        fds.push(PollFd { fd: conn.stream.as_raw_fd(), events: POLLIN, revents: 0 });
    }
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `fds` outlives the call and `nfds` is its exact length;
    // `poll` only writes the `revents` fields within that slice.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms);
    }
}

#[cfg(not(unix))]
fn wait_readable(
    _listener: &TcpListener,
    _wake_rx: &WakeRx,
    _conns: &[Conn],
    _accept_ready: bool,
    timeout: Duration,
) {
    std::thread::sleep(timeout.min(Duration::from_millis(2)));
}

/// Clear pending nudges so the next wait parks (the bytes are
/// level-triggered wake tokens, not data).
fn drain_wake(wake_rx: &WakeRx) {
    #[cfg(unix)]
    {
        let mut scratch = [0u8; 64];
        let mut rx = wake_rx; // `&UnixStream` implements `Read`
        while matches!(Read::read(&mut rx, &mut scratch), Ok(n) if n > 0) {}
    }
    #[cfg(not(unix))]
    let _ = wake_rx;
}

/// Overload rejection for a just-accepted socket (connection table
/// full). The client's request bytes are drained (without blocking the
/// driver) before closing: unread receive-buffer data would otherwise
/// turn the close into a TCP RST that can discard the 503 in flight.
fn reject_overloaded(mut stream: TcpStream) {
    let drain = |stream: &mut TcpStream| {
        // Bounded and non-blocking: stop at WouldBlock, EOF, or a cap, so
        // neither a silent nor a flooding client can stall the driver.
        let mut scratch = [0u8; 4096];
        let mut drained = 0usize;
        while drained < 64 * 1024 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    };
    let _ = stream.set_nonblocking(true);
    drain(&mut stream);
    let resp = HttpResponse::error(503, "server overloaded: request queue is full, retry later");
    let _ = write_response(&mut stream, &resp, false);
    let _ = stream.shutdown(Shutdown::Write);
    drain(&mut stream);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_gate_blocks_only_until_the_deadline() {
        let t0 = Instant::now();
        let mut gate = AcceptGate::new();
        assert!(gate.ready(t0), "a fresh gate accepts");
        assert_eq!(gate.remaining(t0), None);

        gate.trip(t0);
        assert!(!gate.ready(t0), "a tripped gate blocks immediately");
        assert!(!gate.ready(t0 + ACCEPT_BACKOFF / 2), "still inside the backoff");
        assert_eq!(gate.remaining(t0 + ACCEPT_BACKOFF / 2), Some(ACCEPT_BACKOFF / 2));

        // The regression this guards: the backoff must *expire by clock*,
        // not by a driver-thread sleep — at the deadline the gate opens
        // and clears.
        assert!(gate.ready(t0 + ACCEPT_BACKOFF));
        assert_eq!(gate.remaining(t0 + ACCEPT_BACKOFF), None);

        // Re-tripping restarts the window.
        gate.trip(t0 + ACCEPT_BACKOFF);
        assert!(!gate.ready(t0 + ACCEPT_BACKOFF));
        assert!(gate.ready(t0 + ACCEPT_BACKOFF * 2));
    }

    #[cfg(unix)]
    #[test]
    fn return_lane_nudges_are_drained_not_accumulated() {
        let (lane, rx) = ReturnLane::new();
        for _ in 0..10 {
            lane.nudge();
        }
        drain_wake(&rx);
        // Pipe empty again: a nonblocking read finds nothing.
        let mut one = [0u8; 1];
        let mut reader = &rx;
        match Read::read(&mut reader, &mut one) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            Ok(n) => panic!("expected drained pipe, read {n} bytes"),
        }
    }
}
