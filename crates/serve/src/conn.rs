//! The connection core shared by `chl serve` and `chl route`: one acceptor
//! thread, a fixed worker pool, per-connection frame batching. The two roles
//! differ only in their [`FrameHandler`].
//!
//! ```text
//!            ┌───────────┐   mpsc    ┌──────────────┐
//!  accept()──►  acceptor  ├──────────►  worker 0..N  │ one connection per
//!            │ (nonblock) │           │ (blocking IO) │ worker at a time
//!            └───────────┘           └──────┬───────┘
//!                                           │ every frame one read produced,
//!                                           ▼ contiguous QUERY frames as a run
//!                                  FrameHandler (static dispatch)
//!                      server: SharedIndex snapshot │ router: shard backends
//! ```
//!
//! Each worker sniffs a connection's 4-byte preamble: [`MAGIC`] selects the
//! binary protocol, anything else goes to the handler's non-protocol page
//! (the HTTP adapter or the router's status page). On a protocol connection
//! it drains whatever complete frames one `read` produced, hands every
//! contiguous run of QUERY frames to the handler in **one** call (the server
//! answers it with one batched oracle call, the router with one pipelined
//! conversation per shard), answers the other frames in order between runs,
//! and writes all responses back in request order with one `write`. A
//! pipelining client therefore gets batching for free; a one-at-a-time
//! client gets single-query latency.
//!
//! Shutdown is protocol-driven (no signals): a SHUTDOWN frame — or
//! [`Handle::signal_shutdown`] from the owning process — latches the stop
//! flag, the acceptor closes, and workers finish the frames already read on
//! their current connections and exit. A SHUTDOWN frame ends its flush:
//! frames after it in the same read are not answered.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chl_core::persist::ShardSpec;
use chl_graph::types::VertexId;

use crate::protocol::{
    decode_request, encode_response, ErrorCode, FrameBuffer, Request, Response, WireError,
    DEFAULT_MAX_FRAME, MAGIC,
};

/// How often the nonblocking acceptor polls for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Read timeout on connections; each expiry re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// Upper bound on one blocked response write before the connection is
/// declared dead (a client that stopped reading must not pin a worker).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-read chunk size: large enough to swallow a deep pipeline in one read.
const READ_CHUNK: usize = 64 * 1024;

/// Tunables of the connection core (the router adds its backend timeout in
/// [`crate::router::RouterOptions`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections (the server's batched query
    /// fan-out additionally uses the process-wide rayon pool). At least 1.
    pub threads: usize,
    /// Cap on one frame's payload length in bytes, requests and responses
    /// alike.
    pub max_frame: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// What one role answers frames with. The core owns sockets, framing,
/// batching, stats and shutdown; a handler only turns decoded requests into
/// responses.
pub trait FrameHandler: Send + Sync + 'static {
    /// Per-worker mutable state, created on the worker thread (the router's
    /// backend connections; `()` for the server).
    type Worker;
    /// Role name in thread names and error messages (`serve`, `route`).
    const ROLE: &'static str;

    /// Creates one worker's state.
    fn worker(&self) -> Self::Worker;
    /// Answers a contiguous run of QUERY frames: one response per frame, in
    /// order.
    fn queries(
        &self,
        worker: &mut Self::Worker,
        run: &[Vec<(VertexId, VertexId)>],
        reply: &mut Reply<'_>,
    );
    /// Answers one PATH frame.
    fn path(&self, worker: &mut Self::Worker, u: VertexId, v: VertexId, reply: &mut Reply<'_>);
    /// Answers one MATRIX frame.
    fn matrix(
        &self,
        worker: &mut Self::Worker,
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    );
    /// The INFO answer (or a typed error).
    fn info(&self, worker: &mut Self::Worker, stats: &Stats) -> Response;
    /// Performs a RELOAD; an `Ok` answer is counted as a reload.
    fn reload(&self, worker: &mut Self::Worker, stats: &Stats) -> Response;
    /// The generation acknowledged in the SHUTDOWN answer.
    fn generation(&self) -> u64;
    /// Serves a connection whose preamble was not [`MAGIC`]; `head` holds
    /// the bytes already read.
    fn non_protocol(&self, stream: TcpStream, head: &[u8], state: &State) -> std::io::Result<()>;
}

/// A monotonic statistics counter.
///
/// All loads/stores are `Relaxed`: each counter is independently monotonic
/// and nothing synchronizes through them.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        // ORDERING: independent monotonic statistics counter; no other
        // memory is published through it (see the type-level comment).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn raise(&self, candidate: u64) {
        // ORDERING: running-maximum statistics counter; no other memory is
        // published through it (see the type-level comment).
        self.0.fetch_max(candidate, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        // ORDERING: statistics read; individually exact, mutually
        // unordered with the other counters (see the type-level comment).
        self.0.load(Ordering::Relaxed)
    }
}

/// The counters of one server or router, updated lock-free by every worker.
/// Counters a role never touches stay 0.
#[derive(Debug, Default)]
pub struct Stats {
    pub(crate) connections: Counter,
    pub(crate) http_requests: Counter,
    pub(crate) frames: Counter,
    pub(crate) queries: Counter,
    pub(crate) batch_calls: Counter,
    pub(crate) max_coalesced: Counter,
    pub(crate) error_frames: Counter,
    pub(crate) reloads: Counter,
    pub(crate) forwarded_frames: Counter,
    pub(crate) fanout_frames: Counter,
    pub(crate) shard_errors: Counter,
}

/// One coherent-enough copy of the counters (see [`Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (binary and non-protocol alike).
    pub connections: u64,
    /// Non-protocol connections: HTTP requests on a server, status-page
    /// hits on a router.
    pub http_requests: u64,
    /// Binary request frames decoded.
    pub frames: u64,
    /// Distance queries answered (server) or placed on backends (router).
    pub queries: u64,
    /// `DistanceOracle::distances` and `matrix` invocations (server).
    pub batch_calls: u64,
    /// Largest number of pipelined QUERY frames handled as one run.
    pub max_coalesced: u64,
    /// Typed error frames sent (all causes).
    pub error_frames: u64,
    /// Successful reloads (cluster-wide fan-outs on a router).
    pub reloads: u64,
    /// QUERY, PATH and MATRIX frames forwarded to backends (router).
    pub forwarded_frames: u64,
    /// Forwarded frames that spanned shards and fanned out (router).
    pub fanout_frames: u64,
    /// Frames that failed because a backend was unavailable or answered a
    /// typed error (router).
    pub shard_errors: u64,
}

impl Stats {
    /// Copies every counter. Individually exact; mutually unordered.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.get(),
            http_requests: self.http_requests.get(),
            frames: self.frames.get(),
            queries: self.queries.get(),
            batch_calls: self.batch_calls.get(),
            max_coalesced: self.max_coalesced.get(),
            error_frames: self.error_frames.get(),
            reloads: self.reloads.get(),
            forwarded_frames: self.forwarded_frames.get(),
            fanout_frames: self.fanout_frames.get(),
            shard_errors: self.shard_errors.get(),
        }
    }
}

/// State shared by the acceptor, the workers and external handles.
#[derive(Debug, Default)]
pub struct State {
    shutdown: AtomicBool,
    stats: Stats,
}

impl State {
    /// `true` once shutdown was requested (protocol frame or handle).
    pub fn is_shutdown(&self) -> bool {
        // ORDERING: a latch flag polled by acceptor and workers; the only
        // consequence of a stale read is one extra poll interval.
        self.shutdown.load(Ordering::Relaxed)
    }

    fn request_shutdown(&self) {
        // ORDERING: see is_shutdown — monotonic latch, no data published.
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Where a handler writes its answers: the flush's output buffer, the
/// counters, and the frame cap responses must fit. Every error frame sent
/// through it is counted.
pub struct Reply<'a> {
    out: &'a mut Vec<u8>,
    stats: &'a Stats,
    max_frame: u32,
}

impl<'a> Reply<'a> {
    /// Appends one response frame.
    pub fn send(&mut self, response: &Response) {
        if matches!(response, Response::Error { .. }) {
            self.stats.error_frames.add(1);
        }
        encode_response(response, self.out);
    }

    /// The counters of this service.
    pub fn stats(&self) -> &'a Stats {
        self.stats
    }

    /// `true` when a response payload of `payload` bytes fits the frame cap.
    /// Otherwise sends a typed Oversized error naming `what` (with `count`
    /// in the detail) and returns `false`. Unlike an oversized *request*,
    /// framing is never lost, so the connection keeps serving.
    pub fn fits(&mut self, payload: usize, count: usize, what: fmt::Arguments<'_>) -> bool {
        if payload <= self.max_frame as usize {
            return true;
        }
        let message = format!("{what} exceeds the {}-byte frame cap", self.max_frame);
        self.send(&Response::Error {
            code: ErrorCode::Oversized,
            detail: count as u64,
            message,
        });
        false
    }

    /// [`Reply::fits`] for a MATRIX answer of `cells` distances.
    pub fn matrix_fits(&mut self, cells: usize) -> bool {
        self.fits(
            1 + 4 + 8 * cells,
            cells,
            format_args!("matrix of {cells} cells"),
        )
    }
}

/// The typed error for the first id of `ids` outside `0..n`, in scan order.
/// Server and router both reject bad ids through this, so clients cannot
/// tell the two apart on bad input.
pub fn out_of_range(ids: impl IntoIterator<Item = VertexId>, n: usize) -> Option<Response> {
    let id = ids.into_iter().find(|&id| id as usize >= n)?;
    Some(Response::Error {
        code: ErrorCode::VertexOutOfRange,
        detail: id as u64,
        message: format!("vertex id {id} out of range for {n} vertices"),
    })
}

/// The typed error a shard server answers for a vertex it does not own.
pub fn not_this_shard(id: VertexId, shard: Option<&ShardSpec>) -> Response {
    let (sid, cnt) = shard.map_or((0, 0), |s| (s.shard_id, s.shard_count));
    Response::Error {
        code: ErrorCode::NotThisShard,
        detail: id as u64,
        message: format!("vertex id {id} is owned by another shard (this is shard {sid} of {cnt})"),
    }
}

/// A cloneable remote control for a bound server or router: shutdown +
/// stats.
#[derive(Debug, Clone)]
pub struct Handle {
    addr: SocketAddr,
    state: Arc<State>,
}

impl Handle {
    /// The address actually listened on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: the acceptor closes, workers finish the
    /// frames already read on their current connections and exit. (A
    /// router's backends keep running.)
    pub fn signal_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// `true` once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }
}

/// A service running on its own thread, as spawned by [`Service::spawn`].
#[derive(Debug)]
pub struct Spawned {
    handle: Handle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Spawned {
    /// The remote control (addr, shutdown, stats).
    pub fn handle(&self) -> &Handle {
        &self.handle
    }

    /// Signals shutdown and waits for the serving thread to exit, returning
    /// the final counters.
    pub fn shutdown(self) -> std::io::Result<StatsSnapshot> {
        self.handle.signal_shutdown();
        self.join()
    }

    /// Waits for the service to exit on its own (e.g. a protocol SHUTDOWN
    /// frame), returning the final counters.
    pub fn join(self) -> std::io::Result<StatsSnapshot> {
        match self.join.join() {
            Ok(result) => result.map(|()| self.handle.stats()),
            Err(_) => Err(std::io::Error::other("serving thread panicked")),
        }
    }
}

/// A bound-but-not-yet-running service: [`crate::Server`] or
/// [`crate::Router`].
#[derive(Debug)]
pub struct Service<H> {
    listener: TcpListener,
    handler: Arc<H>,
    opts: ServeOptions,
    state: Arc<State>,
    addr: SocketAddr,
}

impl<H: FrameHandler> Service<H> {
    /// Binds `addr` (port 0 picks an ephemeral port) for `handler`.
    pub(crate) fn bind_with<A: ToSocketAddrs>(
        addr: A,
        handler: H,
        opts: ServeOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Service {
            listener,
            handler: Arc::new(handler),
            opts: ServeOptions {
                threads: opts.threads.max(1),
                max_frame: opts.max_frame,
            },
            state: Arc::new(State::default()),
            addr,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control usable from other threads while [`Service::run`]
    /// blocks this one.
    pub fn handle(&self) -> Handle {
        Handle {
            addr: self.addr,
            state: Arc::clone(&self.state),
        }
    }

    /// Runs acceptor + workers on the calling thread until shutdown is
    /// requested, then drains and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        let Service {
            listener,
            handler,
            opts,
            state,
            addr: _,
        } = self;
        listener.set_nonblocking(true)?;

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(opts.threads);
        for i in 0..opts.threads {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let state = Arc::clone(&state);
            let max_frame = opts.max_frame;
            let worker = std::thread::Builder::new()
                .name(format!("chl-{}-{i}", H::ROLE))
                .spawn(move || worker_loop(&rx, &*handler, max_frame, &state))?;
            workers.push(worker);
        }

        while !state.is_shutdown() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    state.stats.connections.add(1);
                    if tx.send(stream).is_err() {
                        break; // all workers gone (cannot happen before shutdown)
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd pressure): back off
                    // instead of spinning or dying.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Closing the channel wakes idle workers; busy ones notice the flag
        // at their next read-timeout tick.
        drop(tx);
        for worker in workers {
            // A worker panic is a bug, but the acceptor still reports an
            // orderly error instead of propagating the panic.
            if worker.join().is_err() {
                return Err(std::io::Error::other(format!(
                    "{} worker panicked",
                    H::ROLE
                )));
            }
        }
        Ok(())
    }

    /// Moves the service onto a background thread; the returned handle
    /// controls and observes it.
    pub fn spawn(self) -> std::io::Result<Spawned> {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name(format!("chl-{}-accept", H::ROLE))
            .spawn(move || self.run())?;
        Ok(Spawned { handle, join })
    }
}

fn worker_loop<H: FrameHandler>(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    handler: &H,
    max_frame: u32,
    state: &State,
) {
    let mut worker = handler.worker();
    loop {
        // Holding the lock only for the recv keeps the other workers free to
        // pick up connections while this one serves.
        let next = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                // A worker panicked while holding the lock; the receiver
                // itself is still sound.
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv_timeout(READ_POLL)
        };
        match next {
            Ok(stream) => {
                // Connection-level IO errors (abrupt client disconnects,
                // resets) end that connection only, never the worker.
                let _ = serve_connection(stream, handler, &mut worker, max_frame, state);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if state.is_shutdown() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What happens to a connection after one flush of frames is written.
enum Disposition {
    /// Keep reading from this connection.
    Continue,
    /// Close it: a broken length header lost the framing.
    Close,
    /// Close it and stop the whole service (SHUTDOWN acknowledged).
    Shutdown,
}

fn serve_connection<H: FrameHandler>(
    mut stream: TcpStream,
    handler: &H,
    worker: &mut H::Worker,
    max_frame: u32,
    state: &State,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;

    // Preamble: 4 bytes decide binary protocol vs the non-protocol page.
    let mut head = Vec::with_capacity(4);
    let mut chunk = vec![0u8; READ_CHUNK];
    while head.len() < 4 {
        let Some(n) = read_some(&mut stream, &mut chunk, state)? else {
            return Ok(()); // silent connect-and-close
        };
        head.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    if head.get(..4) != Some(MAGIC.as_slice()) {
        state.stats.http_requests.add(1);
        return handler.non_protocol(stream, &head, state);
    }

    let mut fb = FrameBuffer::new(max_frame);
    fb.extend(head.get(4..).unwrap_or_default());
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    loop {
        // Drain every complete frame the buffer holds right now, up to a
        // broken length header.
        let broken = loop {
            match fb.next_payload() {
                Ok(Some(payload)) => payloads.push(payload),
                Ok(None) => break None,
                Err(wire) => break Some(wire),
            }
        };
        if !payloads.is_empty() || broken.is_some() {
            let mut out = Vec::new();
            let mut reply = Reply {
                out: &mut out,
                stats: &state.stats,
                max_frame,
            };
            let disposition = answer_frames(&payloads, broken, handler, worker, &mut reply);
            payloads.clear();
            let written = stream.write_all(&out);
            match disposition {
                Disposition::Continue => written?,
                // The stream cannot be re-synchronized; whether the error
                // frame got out no longer matters.
                Disposition::Close => return Ok(()),
                // The stop was acknowledged, so it holds even if the
                // acknowledgement could not be written.
                Disposition::Shutdown => {
                    state.request_shutdown();
                    return Ok(());
                }
            }
        }
        let Some(n) = read_some(&mut stream, &mut chunk, state)? else {
            return Ok(());
        };
        fb.extend(chunk.get(..n).unwrap_or_default());
    }
}

/// Reads once into `chunk`, riding out read-timeout ticks: `Some(n)` when
/// bytes arrived, `None` when the peer closed or shutdown was requested.
pub(crate) fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    state: &State,
) -> std::io::Result<Option<usize>> {
    loop {
        match stream.read(chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => return Ok(Some(n)),
            Err(e) if would_block(&e) => {
                if state.is_shutdown() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn wire_error_response(wire: &WireError) -> Response {
    let code = match wire {
        WireError::Oversized { .. } => ErrorCode::Oversized,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        WireError::Truncated | WireError::TrailingBytes => ErrorCode::Malformed,
    };
    Response::Error {
        code,
        detail: 0,
        message: wire.to_string(),
    }
}

/// Answers every frame of one flush in order, handing each contiguous run
/// of QUERY frames to the handler as one call. A SHUTDOWN ends the flush;
/// otherwise a `broken` length header that ended the drain is answered last
/// and closes the connection.
fn answer_frames<H: FrameHandler>(
    payloads: &[Vec<u8>],
    broken: Option<WireError>,
    handler: &H,
    worker: &mut H::Worker,
    reply: &mut Reply<'_>,
) -> Disposition {
    let stats = reply.stats;
    stats.frames.add(payloads.len() as u64);
    let mut requests = payloads.iter().map(|p| decode_request(p)).peekable();
    while let Some(request) = requests.next() {
        match request {
            Ok(Request::Query(first)) => {
                let mut run = vec![first];
                while let Some(Ok(Request::Query(pairs))) =
                    requests.next_if(|r| matches!(r, Ok(Request::Query(_))))
                {
                    run.push(pairs);
                }
                stats.max_coalesced.raise(run.len() as u64);
                handler.queries(worker, &run, reply);
            }
            Ok(Request::Path(u, v)) => handler.path(worker, u, v, reply),
            Ok(Request::Matrix { sources, targets }) => {
                handler.matrix(worker, &sources, &targets, reply);
            }
            Ok(Request::Info) => reply.send(&handler.info(worker, stats)),
            Ok(Request::Reload) => {
                let response = handler.reload(worker, stats);
                if matches!(response, Response::Ok { .. }) {
                    stats.reloads.add(1);
                }
                reply.send(&response);
            }
            Ok(Request::Shutdown) => {
                reply.send(&Response::Ok {
                    generation: handler.generation(),
                });
                return Disposition::Shutdown;
            }
            Err(wire) => reply.send(&wire_error_response(&wire)),
        }
    }
    match broken {
        Some(wire) => {
            reply.send(&wire_error_response(&wire));
            Disposition::Close
        }
        None => Disposition::Continue,
    }
}
