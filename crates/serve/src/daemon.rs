//! The persistent compile daemon behind `slc serve`.
//!
//! A [`Server`] owns one shared [`CompileService`] and listens on a TCP
//! socket (or, on Unix, a Unix-domain socket) for newline-delimited JSON
//! requests ([`crate::proto`]). Design points:
//!
//! * **One thread per connection**, synchronous request/response — the
//!   protocol never reorders responses within a connection, matching the
//!   deterministic `cached`-flag semantics the differential tests pin. At
//!   most [`MAX_CONNECTIONS`] are served at once; past that a new
//!   connection is answered `busy` at accept and closed, and the accept
//!   loop joins finished connection threads on every pass, so idle
//!   connections cannot grow the thread count without bound.
//! * **Admission control**: at most `queue` compile-class requests are in
//!   flight across all connections. Past that the daemon answers `busy`
//!   (exit-code class 3) immediately instead of queueing unboundedly —
//!   backpressure, never a wedge. `ping`/`stats`/`dump`/`metrics`/
//!   `shutdown` are answered inline and never occupy a slot.
//! * **Per-request timeout**: each admitted request runs on its own worker
//!   thread; if it exceeds the deadline the connection answers `timeout`
//!   and moves on. The worker is not cancelled (safe Rust cannot kill a
//!   thread) — it finishes detached and *keeps holding its admission slot*
//!   until done, so a flood of pathological requests degrades into `busy`
//!   responses rather than unbounded thread growth.
//! * **Graceful drain**: a `shutdown` request, [`ServerHandle::stop`], or
//!   SIGTERM/SIGINT (Unix) stops the accept loop; connection threads
//!   finish their current request, and [`ServerHandle::wait`] joins them
//!   and waits for in-flight work to reach zero before reporting
//!   [`DrainStats`].
//! * **Tracing**: with an enabled tracer every connection gets its own
//!   track (`conn N`, tid = N) and every admitted request a
//!   `serve.request` span on it, exported through the same
//!   Chrome-trace/Perfetto pipeline as `slc batch --trace`.

use crate::metrics::render_prometheus;
use crate::proto::{ErrorKind, Request, Response, MAX_LINE};
use slc_pipeline::CompileService;
use slc_trace::{FlightRecorder, RecKind, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long the accept/read loops sleep-poll the stop flag.
const POLL: Duration = Duration::from_millis(5);

/// Most connections served at once. A connection past it is answered
/// `busy` and closed at accept.
pub const MAX_CONNECTIONS: usize = 128;

/// How long, and for how many bytes, the accept loop drains a refused
/// connection's input before closing it, so the peer reads the `busy`
/// answer instead of a reset.
const REFUSE_LINGER: Duration = Duration::from_millis(10);
const REFUSE_BUDGET: usize = 64 << 10;

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// max compile-class requests in flight across all connections;
    /// admission past this answers `busy`
    pub queue: usize,
    /// per-request deadline; past it the connection answers `timeout`
    pub timeout: Duration,
    /// artifact-store LRU capacity (`None` = unbounded, like `slc batch`)
    pub capacity: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue: 64,
            timeout: Duration::from_secs(30),
            capacity: None,
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// TCP, e.g. `127.0.0.1:0` (port 0 = ephemeral; see
    /// [`ServerHandle::local_addr`])
    Tcp(String),
    /// Unix-domain socket path (Unix only)
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    /// Close after a final answer while the peer may still be sending:
    /// end our side, then discard up to `budget` more bytes until the peer
    /// stops or goes quiet for one read timeout. Closing with unread input
    /// would reset the connection, and the peer could lose the answer.
    fn linger(&mut self, mut budget: usize) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
        let mut chunk = [0u8; 4096];
        while budget > 0 {
            match self.read(&mut chunk) {
                Ok(n) if n > 0 => budget = budget.saturating_sub(n),
                _ => break,
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// What the drained daemon reports on exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// every connection thread joined and in-flight work reached zero
    /// before the drain deadline
    pub drained_clean: bool,
    /// connections accepted over the daemon's lifetime
    pub connections: u64,
    /// requests still running when the drain deadline expired (0 when
    /// `drained_clean`)
    pub abandoned: usize,
}

struct Shared {
    service: Arc<CompileService>,
    tracer: Tracer,
    cfg: ServeConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    connections: AtomicU64,
}

/// SIGTERM/SIGINT latch. Installed once per process by
/// [`Server::spawn`]; the accept loop polls it alongside the in-process
/// stop flag so `kill <pid>` drains exactly like a `shutdown` request.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub fn raised() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn raised() -> bool {
        false
    }
}

/// The daemon. Construct with [`Server::spawn`]; interact through the
/// returned [`ServerHandle`].
pub struct Server;

/// Handle to a running daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    accept_thread: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `endpoint` and start serving on background threads. Returns
    /// immediately; use [`ServerHandle::local_addr`] to discover an
    /// ephemeral TCP port, [`ServerHandle::stop`] + [`ServerHandle::wait`]
    /// to drain.
    pub fn spawn(
        endpoint: &Endpoint,
        cfg: ServeConfig,
        tracer: Tracer,
    ) -> std::io::Result<ServerHandle> {
        sig::install();
        // post-mortem safety net: a panic anywhere in the daemon dumps the
        // flight ring to stderr before unwinding
        slc_trace::install_panic_hook();
        let (listener, addr) = match endpoint {
            Endpoint::Tcp(spec) => {
                let l = TcpListener::bind(spec.as_str())?;
                let addr = l.local_addr()?;
                (Listener::Tcp(l), Some(addr))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // a stale socket file from a previous run would fail bind
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(std::os::unix::net::UnixListener::bind(path)?),
                    None,
                )
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let service = match cfg.capacity {
            Some(cap) => Arc::new(CompileService::bounded(cap)),
            None => Arc::new(CompileService::new()),
        };
        tracer.set_thread_track(0, "acceptor");
        let shared = Arc::new(Shared {
            service,
            tracer,
            cfg,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(ServerHandle {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The bound TCP address (None for Unix-domain endpoints).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The shared compile service (counters, cache report).
    pub fn service(&self) -> &Arc<CompileService> {
        &self.shared.service
    }

    /// Ask the daemon to drain (same effect as a `shutdown` request or
    /// SIGTERM).
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Block until the accept loop and every connection thread exit, then
    /// wait (up to 2× the request timeout) for detached in-flight work to
    /// finish. Call [`ServerHandle::stop`] first, or send a `shutdown`
    /// request.
    pub fn wait(mut self) -> DrainStats {
        let conn_threads = self
            .accept_thread
            .take()
            .expect("wait() consumes the handle")
            .join()
            .unwrap_or_default();
        for t in conn_threads {
            let _ = t.join();
        }
        // connection threads are gone; only detached (timed-out) request
        // workers can still hold in-flight slots
        let deadline = Instant::now() + self.shared.cfg.timeout * 2;
        while self.shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        let abandoned = self.shared.inflight.load(Ordering::SeqCst);
        DrainStats {
            drained_clean: abandoned == 0,
            connections: self.shared.connections.load(Ordering::SeqCst),
            abandoned,
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        if sig::raised() {
            shared.stop.store(true, Ordering::SeqCst);
            break;
        }
        // reap finished connection threads: the cap counts live ones
        for t in conn_threads.extract_if(.., |t| t.is_finished()) {
            let _ = t.join();
        }
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match accepted {
            Ok(mut conn) if conn_threads.len() >= MAX_CONNECTIONS => {
                shared.service.note_rejection();
                let refusal = Response::Error {
                    kind: ErrorKind::Busy,
                    message: format!("connection limit reached ({MAX_CONNECTIONS} open)"),
                };
                let _ = conn.set_read_timeout(REFUSE_LINGER);
                if send(&mut conn, &refusal) {
                    conn.linger(REFUSE_BUDGET);
                }
            }
            Ok(conn) => {
                let id = shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
                let conn_shared = shared.clone();
                conn_threads.push(std::thread::spawn(move || {
                    serve_connection(conn, id, conn_shared)
                }));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL);
            }
            Err(_) => break,
        }
    }
    conn_threads
}

/// Write one response line. One write per response (line + newline
/// together): two small writes would tangle Nagle with delayed ACKs and add
/// ~40 ms to every request-response round trip.
fn send(conn: &mut Conn, resp: &Response) -> bool {
    let mut wire = resp.to_line().into_bytes();
    wire.push(b'\n');
    conn.write_all(&wire).is_ok() && conn.flush().is_ok()
}

/// Read newline-delimited requests off one connection until EOF or drain.
/// A line longer than [`MAX_LINE`] is answered with `too-large` and the
/// connection closes, since the rest of that line cannot be framed.
fn serve_connection(mut conn: Conn, conn_id: u64, shared: Arc<Shared>) {
    let _ = conn.set_read_timeout(Duration::from_millis(100));
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    'outer: while !shared.stop.load(Ordering::SeqCst) {
        // answer every complete line already buffered
        loop {
            let nl = buf[scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|k| scanned + k);
            scanned = if nl.is_some() { 0 } else { buf.len() };
            if nl.unwrap_or(buf.len()) > MAX_LINE {
                let refusal = Response::Error {
                    kind: ErrorKind::TooLarge,
                    message: format!("request line exceeds {MAX_LINE} bytes"),
                };
                if send(&mut conn, &refusal) {
                    conn.linger(4 * MAX_LINE);
                }
                break 'outer;
            }
            let Some(nl) = nl else { break };
            let line: Vec<u8> = buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            let resp = handle_line(&line, conn_id, &shared);
            let done = matches!(resp, Response::ShutdownAck);
            if !send(&mut conn, &resp) {
                break 'outer;
            }
            if done {
                shared.stop.store(true, Ordering::SeqCst);
                break 'outer;
            }
        }
        match conn.read(&mut chunk) {
            Ok(0) => break, // EOF: client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // no data yet — loop back to re-check the stop flag; any
                // partial line stays buffered
            }
            Err(_) => break,
        }
    }
}

/// Decrements the in-flight gauge when the request worker finishes, even
/// if the compile panics.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_line(line: &str, conn_id: u64, shared: &Arc<Shared>) -> Response {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            return Response::Error {
                kind: ErrorKind::Usage,
                message: e,
            }
        }
    };
    match req {
        // control-plane requests: answered inline, never queued, so they
        // stay responsive however loaded the compile plane is
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats {
            counters: shared.service.counters(),
        },
        Request::Dump => Response::Dump {
            trace: shared.tracer.export_process_dump("slc-serve"),
            flight: FlightRecorder::global().dump_jsonl(),
        },
        Request::Metrics => {
            let mut hists = shared.service.histograms();
            hists.merge(&shared.service.wall_histograms());
            Response::Metrics {
                text: render_prometheus(&shared.service.counters(), &hists),
            }
        }
        Request::Shutdown => Response::ShutdownAck,
        // compile-plane requests: admission-controlled + deadline-bounded
        compile_class => dispatch(compile_class, conn_id, shared),
    }
}

/// Admit, run on a worker thread, enforce the deadline.
fn dispatch(req: Request, conn_id: u64, shared: &Arc<Shared>) -> Response {
    // admission: claim a slot or answer busy
    let admitted = shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.cfg.queue).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shared.service.note_rejection();
        return Response::Error {
            kind: ErrorKind::Busy,
            message: format!("admission queue full ({} in flight)", shared.cfg.queue),
        };
    }
    shared.service.note_request();
    FlightRecorder::global().record(RecKind::Mark, "serve.admit", conn_id, 0);
    let (tx, rx) = mpsc::channel::<Response>();
    let worker_shared = shared.clone();
    std::thread::spawn(move || {
        let _slot = SlotGuard(worker_shared.clone());
        let tracer = &worker_shared.tracer;
        if tracer.is_enabled() {
            tracer.set_thread_track(conn_id as u32, &format!("conn {conn_id}"));
        }
        let resp = run_request(&req, &worker_shared.service, tracer);
        let _ = tx.send(resp);
    });
    match rx.recv_timeout(shared.cfg.timeout) {
        Ok(resp) => resp,
        Err(_) => {
            // deadline expired (or the worker panicked and dropped the
            // channel): the detached worker keeps its slot until it
            // finishes, which is exactly the backpressure we want
            shared.service.note_timeout();
            Response::Error {
                kind: ErrorKind::Timeout,
                message: format!(
                    "request exceeded the {} ms deadline",
                    shared.cfg.timeout.as_millis()
                ),
            }
        }
    }
}

/// Execute one admitted compile-plane request against the shared service.
fn run_request(req: &Request, service: &CompileService, tracer: &Tracer) -> Response {
    // a caller-supplied trace context binds the daemon into the caller's
    // distributed trace (first binding wins; later contexts still tag
    // their own request spans below)
    let ctx = match req {
        Request::Compile { opts, .. }
        | Request::Explain { opts, .. }
        | Request::Verify { opts, .. } => opts.ctx,
        _ => None,
    };
    if let Some(c) = ctx {
        tracer.set_ctx(c);
    }
    let mut span = tracer.span("serve", "serve.request");
    if let Some(c) = ctx {
        span.arg("trace_id", c.trace_id_hex());
        span.arg("parent_span", c.parent_span_hex());
    }
    match req {
        Request::Compile { source, opts } => {
            span.arg("kind", "compile");
            let (plan, cfg) = match opts.resolve() {
                Ok(x) => x,
                Err(e) => {
                    return Response::Error {
                        kind: ErrorKind::Usage,
                        message: e,
                    }
                }
            };
            match service.compile_request(source, &plan, &cfg, opts.paper_style, tracer) {
                Ok(out) => Response::Compile {
                    cached: out.cached,
                    output: out.output,
                },
                Err(e) => Response::from_service_error(&e),
            }
        }
        Request::Explain { source, opts } => {
            span.arg("kind", "explain");
            let (plan, cfg) = match opts.resolve() {
                Ok(x) => x,
                Err(e) => {
                    return Response::Error {
                        kind: ErrorKind::Usage,
                        message: e,
                    }
                }
            };
            Response::Explain {
                output: service.explain_request(source, &plan, &cfg),
            }
        }
        Request::Verify { source, opts } => {
            span.arg("kind", "verify");
            let (_, cfg) = match opts.resolve() {
                Ok(x) => x,
                Err(e) => {
                    return Response::Error {
                        kind: ErrorKind::Usage,
                        message: e,
                    }
                }
            };
            match service.verify_request(source, &cfg, tracer) {
                Ok(out) => Response::Verify {
                    clean: out.clean,
                    output: out.output,
                },
                Err(e) => Response::from_service_error(&e),
            }
        }
        // control-plane requests never reach dispatch()
        Request::Stats | Request::Dump | Request::Metrics | Request::Ping | Request::Shutdown => {
            Response::Error {
                kind: ErrorKind::Usage,
                message: "control request on the compile plane".to_string(),
            }
        }
    }
}
