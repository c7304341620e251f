//! The serving loop: listener, admission control, per-connection
//! sessions, graceful shutdown.
//!
//! One OS thread per admitted connection, with the connection count
//! capped by an admission gate (an atomic compare-to-cap, the
//! semaphore's fast path): connections above the cap are *shed* with a
//! typed `BUSY` response rather than queued, which is what keeps tail
//! latency bounded under overload — the paper's service layer makes the
//! same choice by capping the shared execution context's session pool
//! (Section VII-A).
//!
//! Shutdown is coordinated, not abrupt: the flag flips, the listener is
//! woken by a self-connection, and every worker gets a drain grace
//! window to finish (and answer) an in-flight request before its socket
//! closes. In-flight responses are never dropped.

use crate::frame::{read_frame_into, shrink_kept, write_frame, FrameError};
use crate::protocol::{codes, Request, Response};
use just_core::{Engine, SessionManager};
use just_obs::metrics::{Counter, Gauge, Histogram};
use just_ql::{Client, JsonValue};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle timeout: a connection with no request for this long is closed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket write timeout (a stalled reader cannot wedge a worker
/// forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The poll tick: socket read timeout between `keep_waiting`
/// consultations. Smaller = faster shutdown, more wakeups.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Frame size cap, enforced from the 4-byte header before any payload
/// allocation.
const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Admission cap: connections admitted concurrently. Above this,
    /// new connections are shed with `BUSY`.
    pub max_sessions: usize,
    /// How long, after shutdown begins, workers keep accepting one more
    /// request from an already-connected client before closing.
    pub drain_grace: Duration,
    /// User allowlist for `hello`; `None` admits any user name.
    pub users: Option<Vec<String>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            drain_grace: Duration::from_millis(200),
            users: None,
        }
    }
}

/// Per-server metric handles (all registered in the global `just-obs`
/// registry).
struct ServerMetrics {
    accepted: Counter,
    closed: Counter,
    rejected_busy: Counter,
    requests: Counter,
    request_errors: Counter,
    latency: Histogram,
    connections_active: Gauge,
}

impl ServerMetrics {
    fn new() -> Self {
        let r = just_obs::metrics::global();
        ServerMetrics {
            accepted: r.counter("just_server_connections_accepted"),
            closed: r.counter("just_server_connections_closed"),
            rejected_busy: r.counter("just_server_rejected_busy"),
            requests: r.counter("just_server_requests"),
            request_errors: r.counter("just_server_request_errors"),
            latency: r.histogram("just_server_request_latency_us"),
            connections_active: r.gauge("just_server_connections_active"),
        }
    }
}

/// State shared by the listener, the workers and the handle.
struct Shared {
    sessions: SessionManager,
    cfg: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// When shutdown was requested. Set (under the lock) *before* the
    /// `shutdown` flag flips, so any worker that observes the flag finds
    /// the instant here. The drain deadline is computed from this fixed
    /// point, not from each read, so a chatty client cannot keep
    /// resetting its grace window and wedge the drain forever.
    shutdown_at: Mutex<Option<Instant>>,
    active: AtomicUsize,
    /// Monotonic request-id source: every decoded request on any
    /// connection gets a unique id, quoted in error frames and threaded
    /// into the query registry so operators can correlate a client's
    /// failure report with `SHOW QUERIES` / `SHOW EVENTS`.
    request_seq: AtomicU64,
    metrics: ServerMetrics,
}

/// The JustQL network server.
pub struct Server;

impl Server {
    /// Binds `cfg.addr` and starts serving `engine`. Returns once the
    /// listener is accepting; serving continues on background threads
    /// until [`ServerHandle::shutdown`].
    pub fn start(engine: Arc<Engine>, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sessions: SessionManager::new(engine),
            cfg,
            addr,
            shutdown: AtomicBool::new(false),
            shutdown_at: Mutex::new(None),
            active: AtomicUsize::new(0),
            request_seq: AtomicU64::new(0),
            metrics: ServerMetrics::new(),
        });
        let accept_shared = shared.clone();
        let listener_thread = std::thread::Builder::new()
            .name("justd-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            listener_thread: Some(listener_thread),
        })
    }
}

/// A running server: address, liveness, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently admitted.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Begins graceful shutdown: stops admitting, lets workers drain
    /// in-flight requests. Returns immediately; use [`Self::join`] to
    /// wait for the drain.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Shuts down (if not already) and blocks until the listener and
    /// every worker have exited — i.e. until the drain completes.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops *on its own* — i.e. until some
    /// client sends the wire `shutdown` command — then waits out the
    /// drain. This is `justd`'s main loop.
    pub fn wait(mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

/// Flips the shutdown flag and wakes the blocking `accept` with a
/// throwaway self-connection.
fn request_shutdown(shared: &Shared) {
    {
        let mut at = shared.shutdown_at.lock().unwrap();
        if at.is_none() {
            *at = Some(Instant::now());
        }
    }
    if !shared.shutdown.swap(true, Ordering::AcqRel) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// The fixed instant past which no worker keeps waiting for new
/// requests once shutdown has begun.
fn drain_deadline(shared: &Shared) -> Instant {
    shared
        .shutdown_at
        .lock()
        .unwrap()
        .unwrap_or_else(Instant::now)
        + shared.cfg.drain_grace
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // A persistent accept failure (EMFILE when fds are
                // exhausted, say) must not spin this loop hot.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // The wake-up self-connection (or a late client) — refuse.
            refuse(stream, codes::BUSY, "server shutting down");
            break;
        }
        // Admission gate: claim a slot or shed the connection.
        let Some(slot) = Slot::claim(&shared) else {
            shared.metrics.rejected_busy.inc();
            refuse(
                stream,
                codes::BUSY,
                format!(
                    "server at capacity ({} sessions); retry later",
                    shared.cfg.max_sessions
                ),
            );
            continue;
        };
        // The slot is released when the guard drops: after the worker
        // returns, when it unwinds from a panic, or with the closure if
        // the spawn fails.
        let handle = std::thread::Builder::new()
            .name("justd-conn".to_string())
            .spawn(move || serve_connection(stream, &slot.0));
        if let Ok(h) = handle {
            workers.push(h);
        }
        // Reap finished workers so the vec does not grow without bound
        // on long-lived servers.
        workers.retain(|h| !h.is_finished());
    }
    // Drain: every admitted worker finishes (and answers) its in-flight
    // request before we return.
    for h in workers {
        let _ = h.join();
    }
}

/// An admitted connection's claim on the admission gate; dropping it
/// releases the claim.
struct Slot(Arc<Shared>);

impl Slot {
    /// Claims a slot, or `None` at the cap. The claim is a CAS loop
    /// against the cap, so the count can never overshoot no matter how
    /// many acceptors raced here.
    fn claim(shared: &Arc<Shared>) -> Option<Slot> {
        shared
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < shared.cfg.max_sessions).then_some(n + 1)
            })
            .ok()?;
        shared.metrics.accepted.inc();
        shared.metrics.connections_active.inc();
        Some(Slot(shared.clone()))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
        self.0.metrics.connections_active.dec();
        self.0.metrics.closed.inc();
    }
}

/// Sheds a connection with a typed error frame, best-effort. The write
/// happens on a detached thread: a shed client that never reads must not
/// stall the accept loop for the whole write timeout.
fn refuse(stream: TcpStream, code: &str, message: impl Into<String>) {
    let bytes = Response::error(code, message).to_bytes();
    let _ = std::thread::Builder::new()
        .name("justd-refuse".to_string())
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let _ = stream.set_read_timeout(Some(WRITE_TIMEOUT));
            if write_frame(&mut stream, &bytes).is_err() {
                return;
            }
            // The client's in-flight handshake is still unread.
            close_draining(&mut stream);
        });
}

/// Half-closes a connection after its last response, then drains what
/// the peer still sends before the socket drops: closing with unread
/// bytes queued makes the kernel send an RST, which discards the
/// response before the client can read it (the client would see
/// EPIPE/ECONNRESET instead of the error). The drain stops at the first
/// read timeout and is bounded, so a hostile client cannot pin the
/// thread by streaming bytes at us.
fn close_draining(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 64 << 10 && Instant::now() < deadline {
        match io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// One connection's lifetime: frames in, frames out, until close,
/// idle timeout, or shutdown drain. The request and response buffers
/// are the connection's, reused frame after frame.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut client: Option<Client> = None;
    let (mut payload, mut out) = (Vec::new(), Vec::new());
    loop {
        // The wait policy: each poll tick re-checks how long this read
        // has been idle. During shutdown the wait is bounded by a drain
        // deadline measured from the moment shutdown was *requested*
        // (enough for a request already in flight on the wire); it is
        // never reset, so a client streaming requests cannot extend the
        // drain. Otherwise the full idle timeout applies.
        let started = Instant::now();
        let mut keep_waiting = || {
            if shared.shutdown.load(Ordering::Acquire) {
                Instant::now() < drain_deadline(shared) && started.elapsed() < READ_TIMEOUT
            } else {
                started.elapsed() < READ_TIMEOUT
            }
        };
        match read_frame_into(
            &mut stream,
            &mut payload,
            MAX_FRAME_BYTES,
            &mut keep_waiting,
        ) {
            Ok(()) => {}
            Err(FrameError::Closed) | Err(FrameError::IdleTimeout) => return,
            Err(FrameError::TooLarge { len, max }) => {
                // The announced payload is still on the wire; the
                // stream cannot be resynchronized, so answer and close.
                shared.metrics.request_errors.inc();
                let refusal = Response::error(
                    codes::TOO_LARGE,
                    format!("frame of {len} bytes exceeds cap of {max}"),
                );
                if write_frame(&mut stream, &refusal.to_bytes()).is_ok() {
                    close_draining(&mut stream);
                }
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
        let start = Instant::now();
        shared.metrics.requests.inc();
        let request_id = shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (response, close_after) = handle_payload(&payload, &mut client, shared, request_id);
        // Every error frame quotes the request id, and the failure lands
        // in the event log so `SHOW EVENTS` can answer "what was request
        // N?" after the fact.
        let response = if let Response::Error { code, message, .. } = &response {
            shared.metrics.request_errors.inc();
            just_obs::events::global().emit(
                "server.request_error",
                format!("request_id={request_id} code={code} message={message}"),
            );
            response.tag_request(request_id)
        } else {
            response
        };
        shared.metrics.latency.record_duration(start.elapsed());
        out.clear();
        response.write_to(&mut out);
        drop(response);
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
        shrink_kept(&mut payload);
        shrink_kept(&mut out);
        // Once shutdown is underway, stop taking new requests from this
        // connection: the in-flight response just written is the last.
        if close_after || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Decodes and dispatches one request payload. Returns the response and
/// whether the connection should close afterwards.
fn handle_payload(
    payload: &[u8],
    client: &mut Option<Client>,
    shared: &Shared,
    request_id: u64,
) -> (Response, bool) {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            return (
                Response::error(codes::MALFORMED, "frame payload is not UTF-8"),
                false,
            )
        }
    };
    let json = match JsonValue::parse(text) {
        Ok(j) => j,
        Err(e) => return (Response::error(codes::MALFORMED, e.to_string()), false),
    };
    let request = match Request::from_json(&json) {
        Ok(r) => r,
        Err(e) => return (Response::error(codes::MALFORMED, e), false),
    };
    match request {
        Request::Hello { user } => {
            if let Some(allow) = &shared.cfg.users {
                if !allow.iter().any(|u| u == &user) {
                    return (
                        Response::error(codes::AUTH, format!("unknown user '{user}'")),
                        false,
                    );
                }
            }
            let session = shared.sessions.session(&user);
            *client = Some(Client::new(session));
            (Response::Text(format!("hello {user}")), false)
        }
        Request::Execute { sql } => match client {
            Some(c) => {
                // The id flows into the query registry, so a `SHOW
                // QUERIES` row can be matched to a wire request.
                c.set_request_id(Some(request_id));
                match c.execute(&sql) {
                    Ok(r) => (Response::Result(r), false),
                    Err(e) => (Response::from_ql_error(&e), false),
                }
            }
            None => (auth_required(), false),
        },
        Request::ExplainAnalyze { sql } => match client {
            Some(c) => match c.explain_analyze(&sql) {
                Ok((data, trace)) => (
                    Response::Traced {
                        data,
                        trace: trace.render(),
                    },
                    false,
                ),
                Err(e) => (Response::from_ql_error(&e), false),
            },
            None => (auth_required(), false),
        },
        Request::Metrics => (
            Response::Text(just_obs::metrics::global().render_text()),
            false,
        ),
        Request::Health => {
            let status = if shared.shutdown.load(Ordering::Acquire) {
                "draining"
            } else {
                "ok"
            };
            (Response::Text(status.to_string()), false)
        }
        Request::Ping => (Response::Text("pong".to_string()), false),
        Request::Shutdown => {
            // When an allowlist is configured, stopping the daemon is an
            // authenticated operation — otherwise any peer that can
            // reach the socket could kill the server.
            if shared.cfg.users.is_some() && client.is_none() {
                return (
                    Response::error(
                        codes::AUTH,
                        "shutdown requires an authenticated session; send 'hello' first",
                    ),
                    false,
                );
            }
            // The flag flips now; the `true` makes serve_connection
            // close after the acknowledgement is on the wire, so the
            // requester always learns the shutdown was accepted.
            request_shutdown(shared);
            (Response::Text("shutting down".to_string()), true)
        }
    }
}

fn auth_required() -> Response {
    Response::error(codes::AUTH, "send 'hello' with a user name first")
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_core::EngineConfig;

    #[test]
    fn a_worker_that_panics_releases_its_slot() {
        let dir = std::env::temp_dir().join(format!("just-server-slot-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
        let handle = Server::start(engine, ServerConfig::default()).unwrap();
        let shared = handle.shared.clone();
        let m = &shared.metrics;
        let (active, closed) = (m.connections_active.get(), m.closed.get());

        let slot = Slot::claim(&shared).unwrap();
        assert_eq!(handle.active_connections(), 1);
        assert_eq!(m.connections_active.get(), active + 1);
        let worker = std::thread::spawn(move || {
            let _slot = slot;
            panic!("a request panicked");
        });
        assert!(worker.join().is_err());
        assert_eq!(handle.active_connections(), 0);
        assert_eq!(m.connections_active.get(), active);
        assert_eq!(m.closed.get(), closed + 1);

        handle.join();
        std::fs::remove_dir_all(dir).ok();
    }
}
