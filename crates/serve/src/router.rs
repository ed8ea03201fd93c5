//! The scatter-gather routing tier: one `chl route` process in front of a
//! cluster of `chl serve --shard` processes, speaking the same client
//! protocol on both sides.
//!
//! ```text
//!                       ┌──────────────┐  CHL1   ┌─────────────────────┐
//!  clients ── CHL1 ────►│  chl route    ├────────►│ chl serve --shard 0 │
//!  (unchanged protocol) │  QdolShardMap ├────────►│ chl serve --shard 1 │
//!                       │  placement    ├────────►│ chl serve --shard 2 │
//!                       └──────────────┘         └─────────────────────┘
//! ```
//!
//! Startup ([`ClusterView::discover`]) sends INFO to every backend, checks
//! the answers describe one coherent sharded index — same global vertex
//! count, same shard count, every shard id present exactly once — and
//! rebuilds the QDOL placement from nothing but `(shard_count,
//! num_vertices)`: [`QdolShardMap`] is fully determined by those two
//! numbers, so the router and `chl build --shards` can never disagree about
//! who owns a query.
//!
//! Per QUERY frame the router places every pair on an owning shard. A frame
//! whose pairs all land on one shard is forwarded verbatim; only a frame
//! that genuinely spans shards fans out, and the partial answers are merged
//! back into request order. Within one flush, all sub-frames bound for the
//! same backend are pipelined in a single write, so the backend's own
//! coalescing still batches them. Out-of-range ids are rejected by the
//! router itself with the exact error frame a whole-index server sends, and
//! a dead backend degrades **per frame** into a typed
//! [`ErrorCode::ShardUnavailable`] error (detail = shard id) after one
//! reconnect attempt — never a hang, never a dropped client connection.
//!
//! Control frames: INFO aggregates the cluster into an unsharded-looking
//! answer (global vertex count, summed label bytes — labels on partition
//! overlaps are counted once per owning shard — and the minimum backend
//! generation); RELOAD fans out to every shard in shard order and reports
//! the first failure (reloads are not atomic across shards); SHUTDOWN stops
//! the router only, never the backends.
//!
//! Sockets, framing and shutdown live in the connection core
//! ([`crate::conn`]); this module is the router's frame handler plus its
//! plain-text status page for non-protocol connections.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use chl_graph::types::{Distance, VertexId};
use chl_query::QdolShardMap;

use crate::client::{Client, ClientError};
use crate::conn::{out_of_range, FrameHandler, Reply, ServeOptions, Service, State, Stats};
use crate::protocol::{ErrorCode, Response, ServerInfo, DEFAULT_MAX_FRAME};

/// Tunables for one router instance.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker threads handling client connections; each worker keeps its own
    /// pool of backend connections. At least 1.
    pub threads: usize,
    /// Cap on one client frame's payload length in bytes.
    pub max_frame: u32,
    /// Read timeout on backend conversations: a backend that stops answering
    /// within this window counts as unavailable for the frames placed on it.
    pub backend_timeout: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            threads: 4,
            max_frame: DEFAULT_MAX_FRAME,
            backend_timeout: Duration::from_secs(5),
        }
    }
}

/// Why the router could not stand up in front of the given backends.
#[derive(Debug)]
pub enum RouterError {
    /// A backend could not be reached or did not answer INFO.
    Backend {
        /// The backend address as given.
        addr: String,
        /// The client-side failure.
        error: ClientError,
    },
    /// A backend serves a whole index, not a shard.
    NotSharded {
        /// The backend address as given.
        addr: String,
    },
    /// The backends do not describe one coherent sharded index.
    Inconsistent(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Backend { addr, error } => {
                write!(f, "backend {addr}: {error}")
            }
            RouterError::NotSharded { addr } => {
                write!(
                    f,
                    "backend {addr} serves a whole index, not a shard \
                     (chl route expects every backend to be `chl serve` over \
                     one `.chl` v3 shard file)"
                )
            }
            RouterError::Inconsistent(msg) => write!(f, "inconsistent cluster: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// The validated cluster the router fronts: one backend address per shard id
/// plus the placement map rebuilt from `(shard_count, num_vertices)`.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// `addr_of_shard[shard_id]` — the backend serving that shard.
    addr_of_shard: Vec<String>,
    map: QdolShardMap,
}

impl ClusterView {
    /// Connects to every backend, asks INFO, and validates the answers into
    /// a coherent cluster view. The discovery connections are dropped —
    /// serving uses per-worker pools with their own reconnect handling.
    pub fn discover(
        addrs: &[String],
        backend_timeout: Duration,
    ) -> Result<ClusterView, RouterError> {
        let mut infos = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let info = (|| {
                let mut client = Client::connect(addr)?;
                client.set_timeout(Some(backend_timeout))?;
                client.info()
            })()
            .map_err(|error| RouterError::Backend {
                addr: addr.clone(),
                error,
            })?;
            infos.push(info);
        }
        ClusterView::from_infos(addrs, &infos)
    }

    /// Pure validation half of [`ClusterView::discover`]: checks the INFO
    /// answers describe one sharded index and builds the placement map.
    pub fn from_infos(addrs: &[String], infos: &[ServerInfo]) -> Result<ClusterView, RouterError> {
        if addrs.is_empty() {
            return Err(RouterError::Inconsistent(
                "no backend addresses given".to_string(),
            ));
        }
        if addrs.len() != infos.len() {
            return Err(RouterError::Inconsistent(format!(
                "{} addresses but {} INFO answers",
                addrs.len(),
                infos.len()
            )));
        }
        let expected_count = addrs.len() as u32;
        let mut slots: Vec<Option<String>> = vec![None; addrs.len()];
        let mut num_vertices: Option<u64> = None;
        for (addr, info) in addrs.iter().zip(infos) {
            let (shard_id, shard_count) = info
                .shard
                .ok_or_else(|| RouterError::NotSharded { addr: addr.clone() })?;
            if shard_count != expected_count {
                return Err(RouterError::Inconsistent(format!(
                    "backend {addr} announces shard {shard_id} of {shard_count}, \
                     but {expected_count} backends were given"
                )));
            }
            if shard_id >= expected_count {
                return Err(RouterError::Inconsistent(format!(
                    "backend {addr} announces shard id {shard_id} >= shard count {expected_count}"
                )));
            }
            match num_vertices {
                None => num_vertices = Some(info.num_vertices),
                Some(n) if n != info.num_vertices => {
                    return Err(RouterError::Inconsistent(format!(
                        "backend {addr} covers {} vertices but an earlier backend covers {n} \
                         (shard files record the global vertex count, so these are different indexes)",
                        info.num_vertices
                    )));
                }
                Some(_) => {}
            }
            // `shard_id < expected_count == slots.len()` was checked above.
            let Some(slot) = slots.get_mut(shard_id as usize) else {
                continue;
            };
            if let Some(other) = slot {
                return Err(RouterError::Inconsistent(format!(
                    "shard {shard_id} is served by both {other} and {addr}"
                )));
            }
            *slot = Some(addr.clone());
        }
        // Pigeonhole: len(addrs) distinct ids < len(addrs) fill every slot.
        let addr_of_shard: Vec<String> = slots.into_iter().flatten().collect();
        if addr_of_shard.len() != addrs.len() {
            return Err(RouterError::Inconsistent(
                "not every shard id is served".to_string(),
            ));
        }
        let n = num_vertices.unwrap_or(0) as usize;
        Ok(ClusterView {
            map: QdolShardMap::new(addr_of_shard.len(), n),
            addr_of_shard,
        })
    }

    /// Number of shards (= backends) fronted.
    pub fn shard_count(&self) -> usize {
        self.addr_of_shard.len()
    }

    /// Global vertex count of the sharded index.
    pub fn num_vertices(&self) -> usize {
        self.map.num_vertices()
    }

    /// The backend address serving `shard`, or `None` out of range.
    pub fn addr_of_shard(&self, shard: usize) -> Option<&str> {
        self.addr_of_shard.get(shard).map(String::as_str)
    }

    /// The placement map (identical to what `chl build --shards` used).
    pub fn map(&self) -> &QdolShardMap {
        &self.map
    }
}

/// A bound-but-not-yet-running router in front of a validated cluster.
pub type Router = Service<RouteHandler>;

/// A router running on its own thread, as spawned by [`Service::spawn`].
pub type SpawnedRouter = crate::conn::Spawned;

impl Router {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of a
    /// validated cluster.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        cluster: ClusterView,
        opts: RouterOptions,
    ) -> std::io::Result<Router> {
        let handler = RouteHandler {
            cluster,
            backend_timeout: opts.backend_timeout,
        };
        let core = ServeOptions {
            threads: opts.threads,
            max_frame: opts.max_frame,
        };
        Service::bind_with(addr, handler, core)
    }
}

/// The [`FrameHandler`] of `chl route`: scatters over the [`ClusterView`]
/// through each worker's [`BackendPool`].
#[derive(Debug)]
pub struct RouteHandler {
    cluster: ClusterView,
    backend_timeout: Duration,
}

impl FrameHandler for RouteHandler {
    // Each worker owns its backend connections: no cross-worker locking on
    // the hot path, and a backend failure on one worker never poisons the
    // others' connections.
    type Worker = BackendPool;
    const ROLE: &'static str = "route";

    fn worker(&self) -> BackendPool {
        BackendPool::new(&self.cluster, self.backend_timeout)
    }

    fn queries(
        &self,
        pool: &mut BackendPool,
        run: &[Vec<(VertexId, VertexId)>],
        reply: &mut Reply<'_>,
    ) {
        route_query_run(run, pool, self.cluster.map(), reply);
    }

    fn path(&self, pool: &mut BackendPool, u: VertexId, v: VertexId, reply: &mut Reply<'_>) {
        route_path(u, v, pool, self.cluster.map(), reply);
    }

    fn matrix(
        &self,
        pool: &mut BackendPool,
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    ) {
        route_matrix(sources, targets, pool, self.cluster.map(), reply);
    }

    fn info(&self, pool: &mut BackendPool, stats: &Stats) -> Response {
        aggregate_info(pool, &self.cluster, stats)
    }

    fn reload(&self, pool: &mut BackendPool, stats: &Stats) -> Response {
        fan_out_reload(pool, &self.cluster, stats)
    }

    /// The router has no reload generation of its own; SHUTDOWN acks 0 and
    /// stops the router only — stopping backends is their operator's call.
    fn generation(&self) -> u64 {
        0
    }

    fn non_protocol(&self, stream: TcpStream, _head: &[u8], _: &State) -> std::io::Result<()> {
        route_status_page(stream, &self.cluster)
    }
}

/// One worker's lazily connected backend clients, indexed by shard id.
#[derive(Debug)]
pub struct BackendPool {
    addrs: Vec<String>,
    conns: Vec<Option<Client>>,
    timeout: Duration,
}

/// How one backend conversation failed, from the router's point of view.
enum BackendFailure {
    /// Could not connect, or the conversation broke mid-way (twice).
    Unavailable,
    /// The backend answered a typed error frame.
    Server {
        code: ErrorCode,
        detail: u64,
        message: String,
    },
}

impl BackendPool {
    fn new(cluster: &ClusterView, timeout: Duration) -> Self {
        BackendPool {
            addrs: cluster.addr_of_shard.clone(),
            conns: (0..cluster.shard_count()).map(|_| None).collect(),
            timeout,
        }
    }

    fn take_or_connect(&mut self, shard: usize) -> Option<Client> {
        if let Some(Some(conn)) = self.conns.get_mut(shard).map(Option::take) {
            return Some(conn);
        }
        let addr = self.addrs.get(shard)?;
        let mut conn = Client::connect(addr).ok()?;
        conn.set_timeout(Some(self.timeout)).ok()?;
        Some(conn)
    }

    /// Runs one conversation against `shard`, reconnecting and retrying once
    /// on connection-level failure (requests here are idempotent). A typed
    /// server error ends the attempt — the backend is alive and said no.
    fn call<T>(
        &mut self,
        shard: usize,
        f: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, BackendFailure> {
        for _attempt in 0..2 {
            let Some(mut conn) = self.take_or_connect(shard) else {
                continue;
            };
            match f(&mut conn) {
                Ok(value) => {
                    if let Some(slot) = self.conns.get_mut(shard) {
                        *slot = Some(conn);
                    }
                    return Ok(value);
                }
                Err(ClientError::Server {
                    code,
                    detail,
                    message,
                }) => {
                    if let Some(slot) = self.conns.get_mut(shard) {
                        *slot = Some(conn);
                    }
                    return Err(BackendFailure::Server {
                        code,
                        detail,
                        message,
                    });
                }
                // Io / Wire / UnexpectedResponse: the connection can no
                // longer be trusted — drop it and retry on a fresh one.
                Err(_) => {}
            }
        }
        Err(BackendFailure::Unavailable)
    }
}

fn shard_unavailable_response(shard: usize) -> Response {
    Response::Error {
        code: ErrorCode::ShardUnavailable,
        detail: shard as u64,
        message: format!("shard {shard} is unreachable"),
    }
}

fn backend_failure_response(shard: usize, failure: &BackendFailure) -> Response {
    match failure {
        BackendFailure::Unavailable => shard_unavailable_response(shard),
        BackendFailure::Server {
            code,
            detail,
            message,
        } => Response::Error {
            code: *code,
            detail: *detail,
            message: format!("shard {shard}: {message}"),
        },
    }
}

/// Minimal plain-text status for non-protocol (curl) connections; the real
/// HTTP query adapter lives on the shard servers.
fn route_status_page(mut stream: TcpStream, cluster: &ClusterView) -> std::io::Result<()> {
    let body = format!(
        "chl route: {} shards over {} vertices (zeta {})\n",
        cluster.shard_count(),
        cluster.num_vertices(),
        cluster.map().zeta()
    );
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// What one [`ShardGroup`] came back as: distances, or an error frame to
/// surface for the whole client frame.
type GroupOutcome = Result<Vec<Distance>, Response>;

/// One frame's pairs bound for one shard, with their original positions.
struct ShardGroup {
    shard: usize,
    positions: Vec<usize>,
    pairs: Vec<(VertexId, VertexId)>,
}

/// Disposition of one QUERY frame in a run.
enum FrameDisp {
    /// Decided by the router itself (out-of-range, or an empty frame).
    Local(Response),
    /// Placed on backends; groups are ordered by first pair appearance.
    Placed {
        groups: Vec<ShardGroup>,
        num_pairs: usize,
    },
}

/// Places a run of QUERY frames on owning shards, pipelines each shard's
/// sub-frames in one conversation, and merges every frame's answers back
/// into request order. Error semantics per frame:
///
/// * out-of-range id → the exact `VertexOutOfRange` frame a whole-index
///   server sends (router-local, never forwarded);
/// * owning backend unreachable after a reconnect attempt →
///   [`ErrorCode::ShardUnavailable`] with the shard id in `detail`; only the
///   frames placed on that shard fail;
/// * backend answered a typed error → forwarded with the shard prefixed to
///   the message.
fn route_query_run(
    run: &[Vec<(VertexId, VertexId)>],
    pool: &mut BackendPool,
    map: &QdolShardMap,
    reply: &mut Reply<'_>,
) {
    let stats = reply.stats();
    let n = map.num_vertices();

    let mut disps: Vec<FrameDisp> = Vec::with_capacity(run.len());
    // Per-shard worklist of (frame index, group index), in pipeline order.
    let mut per_shard: Vec<Vec<(usize, usize)>> = vec![Vec::new(); map.shard_count()];
    for (fi, pairs) in run.iter().enumerate() {
        // Same scan order and message as a whole-index server, so clients
        // cannot tell the router from a single process on bad input.
        if let Some(error) = out_of_range(pairs.iter().flat_map(|&(u, v)| [u, v]), n) {
            disps.push(FrameDisp::Local(error));
            continue;
        }
        if pairs.is_empty() {
            disps.push(FrameDisp::Local(Response::Distances(Vec::new())));
            continue;
        }
        let mut groups: Vec<ShardGroup> = Vec::new();
        for (pi, &(u, v)) in pairs.iter().enumerate() {
            let shard = map.shard_for_query(u, v);
            match groups.iter_mut().find(|g| g.shard == shard) {
                Some(group) => {
                    group.positions.push(pi);
                    group.pairs.push((u, v));
                }
                None => groups.push(ShardGroup {
                    shard,
                    positions: vec![pi],
                    pairs: vec![(u, v)],
                }),
            }
        }
        stats.forwarded_frames.add(1);
        stats.queries.add(pairs.len() as u64);
        if groups.len() > 1 {
            stats.fanout_frames.add(1);
        }
        for (gi, group) in groups.iter().enumerate() {
            if let Some(work) = per_shard.get_mut(group.shard) {
                work.push((fi, gi));
            }
        }
        disps.push(FrameDisp::Placed {
            groups,
            num_pairs: pairs.len(),
        });
    }

    // Scatter: one pipelined conversation per shard with work.
    let mut outcomes: Vec<Vec<Option<GroupOutcome>>> = disps
        .iter()
        .map(|d| match d {
            FrameDisp::Local(_) => Vec::new(),
            FrameDisp::Placed { groups, .. } => (0..groups.len()).map(|_| None).collect(),
        })
        .collect();
    for (shard, work) in per_shard.iter().enumerate() {
        if work.is_empty() {
            continue;
        }
        let frames: Vec<Vec<(VertexId, VertexId)>> = work
            .iter()
            .filter_map(|&(fi, gi)| match disps.get(fi) {
                Some(FrameDisp::Placed { groups, .. }) => groups.get(gi).map(|g| g.pairs.clone()),
                _ => None,
            })
            .collect();
        let result = pool.call(shard, |client| client.pipeline(&frames));
        match result {
            Ok(answers) if answers.len() == frames.len() => {
                for (&(fi, gi), answer) in work.iter().zip(answers) {
                    let entry = match answer {
                        Ok(ds) => Ok(ds),
                        Err((code, detail)) => {
                            stats.shard_errors.add(1);
                            Err(Response::Error {
                                code,
                                detail,
                                message: format!("shard {shard}: {code}"),
                            })
                        }
                    };
                    if let Some(slot) = outcomes.get_mut(fi).and_then(|o| o.get_mut(gi)) {
                        *slot = Some(entry);
                    }
                }
            }
            // A response-count mismatch means the conversation desynced;
            // treat it like a dead backend for these frames.
            Ok(_) => {
                stats.shard_errors.add(work.len() as u64);
                for &(fi, gi) in work {
                    if let Some(slot) = outcomes.get_mut(fi).and_then(|o| o.get_mut(gi)) {
                        *slot = Some(Err(shard_unavailable_response(shard)));
                    }
                }
            }
            Err(failure) => {
                stats.shard_errors.add(work.len() as u64);
                let resp = backend_failure_response(shard, &failure);
                for &(fi, gi) in work {
                    if let Some(slot) = outcomes.get_mut(fi).and_then(|o| o.get_mut(gi)) {
                        *slot = Some(Err(resp.clone()));
                    }
                }
            }
        }
    }

    // Gather: emit one response per frame, in request order.
    for (disp, frame_outcomes) in disps.into_iter().zip(outcomes) {
        match disp {
            FrameDisp::Local(resp) => reply.send(&resp),
            FrameDisp::Placed { groups, num_pairs } => {
                let mut distances = vec![0u64; num_pairs];
                let mut failure: Option<Response> = None;
                for (group, outcome) in groups.iter().zip(frame_outcomes) {
                    match outcome {
                        Some(Ok(ds)) if ds.len() == group.positions.len() => {
                            for (&pos, &d) in group.positions.iter().zip(&ds) {
                                if let Some(slot) = distances.get_mut(pos) {
                                    *slot = d;
                                }
                            }
                        }
                        Some(Err(resp)) => {
                            failure.get_or_insert(resp);
                        }
                        // Wrong count or an unfilled slot: desynced backend.
                        _ => {
                            failure.get_or_insert(shard_unavailable_response(group.shard));
                        }
                    }
                }
                reply.send(&failure.unwrap_or(Response::Distances(distances)));
            }
        }
    }
}

/// Sends the error frame of one client frame that failed on a backend,
/// counted in `shard_errors`.
fn send_shard_failure(reply: &mut Reply<'_>, response: &Response) {
    reply.stats().shard_errors.add(1);
    reply.send(response);
}

/// Routes one PATH frame to the shard owning the pair (QDOL guarantees one
/// exists) and relays the answer. Out-of-range ids are rejected locally with
/// the exact frame a whole-index server sends; a dead owning shard is a
/// typed [`ErrorCode::ShardUnavailable`].
fn route_path(
    u: VertexId,
    v: VertexId,
    pool: &mut BackendPool,
    map: &QdolShardMap,
    reply: &mut Reply<'_>,
) {
    if let Some(error) = out_of_range([u, v], map.num_vertices()) {
        return reply.send(&error);
    }
    reply.stats().forwarded_frames.add(1);
    reply.stats().queries.add(1);
    let shard = map.shard_for_query(u, v);
    match pool.call(shard, |client| client.path(u, v)) {
        Ok(vertices) => reply.send(&Response::Path(vertices)),
        Err(failure) => send_shard_failure(reply, &backend_failure_response(shard, &failure)),
    }
}

/// Routes one MATRIX frame: every cell is placed on the shard owning its
/// pair, each shard with work answers one sub-matrix over the (sorted,
/// deduplicated) sources and targets of its cells, and the cells are merged
/// back into the client's row-major block. All ids a shard receives are
/// owned by it — each appears in some cell placed there, and QDOL ownership
/// is per-vertex — so the extra cells a sub-matrix computes are answerable
/// waste, never `NotThisShard`. Any needed shard being dead fails the whole
/// frame (a partial matrix has no wire representation).
fn route_matrix(
    sources: &[VertexId],
    targets: &[VertexId],
    pool: &mut BackendPool,
    map: &QdolShardMap,
    reply: &mut Reply<'_>,
) {
    if let Some(error) = out_of_range(sources.iter().chain(targets).copied(), map.num_vertices()) {
        return reply.send(&error);
    }
    let cells = sources.len() * targets.len();
    if !reply.matrix_fits(cells) {
        return;
    }
    reply.stats().forwarded_frames.add(1);
    reply.stats().queries.add(cells as u64);
    if cells == 0 {
        return reply.send(&Response::Matrix(Vec::new()));
    }

    // Place every cell, collecting each shard's id sets.
    let mut shard_of_cell: Vec<usize> = Vec::with_capacity(cells);
    let mut sub_sources: Vec<Vec<VertexId>> = vec![Vec::new(); map.shard_count()];
    let mut sub_targets: Vec<Vec<VertexId>> = vec![Vec::new(); map.shard_count()];
    for &s in sources {
        for &t in targets {
            let shard = map.shard_for_query(s, t);
            shard_of_cell.push(shard);
            if let (Some(ss), Some(ts)) = (sub_sources.get_mut(shard), sub_targets.get_mut(shard)) {
                ss.push(s);
                ts.push(t);
            }
        }
    }
    for ids in sub_sources.iter_mut().chain(sub_targets.iter_mut()) {
        ids.sort_unstable();
        ids.dedup();
    }
    let needed: Vec<usize> = (0..map.shard_count())
        .filter(|&s| !sub_sources.get(s).is_none_or(Vec::is_empty))
        .collect();
    if needed.len() > 1 {
        reply.stats().fanout_frames.add(1);
    }

    // Scatter: one sub-matrix conversation per shard with work.
    let mut blocks: Vec<Option<Vec<Distance>>> = vec![None; map.shard_count()];
    for &shard in &needed {
        let (Some(ss), Some(ts)) = (sub_sources.get(shard), sub_targets.get(shard)) else {
            continue;
        };
        match pool.call(shard, |client| client.matrix(ss, ts)) {
            Ok(block) if block.len() == ss.len() * ts.len() => {
                if let Some(slot) = blocks.get_mut(shard) {
                    *slot = Some(block);
                }
            }
            // Wrong cell count: desynced backend, same as dead.
            Ok(_) => return send_shard_failure(reply, &shard_unavailable_response(shard)),
            Err(failure) => {
                return send_shard_failure(reply, &backend_failure_response(shard, &failure))
            }
        }
    }

    // Gather: pull each client cell out of its shard's sub-block.
    let mut merged: Vec<Distance> = Vec::with_capacity(cells);
    for (ci, &shard) in shard_of_cell.iter().enumerate() {
        let (s, t) = (
            sources.get(ci / targets.len()).copied().unwrap_or_default(),
            targets.get(ci % targets.len()).copied().unwrap_or_default(),
        );
        let cell = blocks
            .get(shard)
            .and_then(|b| b.as_ref())
            .and_then(|block| {
                let ss = sub_sources.get(shard)?;
                let ts = sub_targets.get(shard)?;
                let row = ss.binary_search(&s).ok()?;
                let col = ts.binary_search(&t).ok()?;
                block.get(row * ts.len() + col).copied()
            });
        match cell {
            Some(d) => merged.push(d),
            // Unreachable by construction; treat as a desynced backend
            // rather than risking a wrong-length response.
            None => return send_shard_failure(reply, &shard_unavailable_response(shard)),
        }
    }
    reply.send(&Response::Matrix(merged));
}

/// Aggregates the cluster into one unsharded-looking INFO answer: global
/// vertex count, label bytes summed across shards (partition overlaps are
/// counted once per owning shard — this is real cluster memory, not the
/// deduplicated index size), and the minimum backend generation (the most
/// conservative view of how reloaded the cluster is). Flags report what
/// holds on **every** shard. A failing shard fails the frame and counts in
/// `shard_errors`.
fn aggregate_info(pool: &mut BackendPool, cluster: &ClusterView, stats: &Stats) -> Response {
    let mut total_labels = 0u64;
    let mut generation = u64::MAX;
    let mut compressed = true;
    let mut mapped = true;
    for shard in 0..cluster.shard_count() {
        match pool.call(shard, |client| client.info()) {
            Ok(info) => {
                total_labels = total_labels.saturating_add(info.total_labels);
                generation = generation.min(info.generation);
                compressed &= info.compressed;
                mapped &= info.mapped;
            }
            Err(failure) => {
                stats.shard_errors.add(1);
                return backend_failure_response(shard, &failure);
            }
        }
    }
    Response::Info(ServerInfo {
        num_vertices: cluster.num_vertices() as u64,
        total_labels,
        generation: if generation == u64::MAX {
            0
        } else {
            generation
        },
        compressed,
        mapped,
        shard: None,
    })
}

/// Fans RELOAD out to every shard in shard order and reports the minimum
/// resulting generation. Not atomic: a mid-sequence failure leaves earlier
/// shards reloaded, and the error frame names the first shard that failed
/// (counted in `shard_errors`).
fn fan_out_reload(pool: &mut BackendPool, cluster: &ClusterView, stats: &Stats) -> Response {
    let mut generation = u64::MAX;
    for shard in 0..cluster.shard_count() {
        match pool.call(shard, |client| client.reload()) {
            Ok(g) => generation = generation.min(g),
            Err(failure) => {
                stats.shard_errors.add(1);
                return backend_failure_response(shard, &failure);
            }
        }
    }
    Response::Ok {
        generation: if generation == u64::MAX {
            0
        } else {
            generation
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(shard: Option<(u32, u32)>, n: u64) -> ServerInfo {
        ServerInfo {
            num_vertices: n,
            total_labels: 10,
            generation: 0,
            compressed: false,
            mapped: false,
            shard,
        }
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn from_infos_accepts_a_coherent_cluster_in_any_order() {
        // Backends listed out of shard order still map correctly.
        let a = addrs(3);
        let infos = [
            info(Some((2, 3)), 16),
            info(Some((0, 3)), 16),
            info(Some((1, 3)), 16),
        ];
        let cluster = ClusterView::from_infos(&a, &infos).expect("coherent cluster");
        assert_eq!(cluster.shard_count(), 3);
        assert_eq!(cluster.num_vertices(), 16);
        assert_eq!(cluster.addr_of_shard(0), Some(a[1].as_str()));
        assert_eq!(cluster.addr_of_shard(1), Some(a[2].as_str()));
        assert_eq!(cluster.addr_of_shard(2), Some(a[0].as_str()));
        assert_eq!(cluster.addr_of_shard(3), None);
        assert_eq!(cluster.map().shard_count(), 3);
        assert_eq!(cluster.map().num_vertices(), 16);
    }

    #[test]
    fn from_infos_rejects_incoherent_clusters() {
        let a = addrs(2);
        // A whole-index backend.
        let err = ClusterView::from_infos(&a, &[info(None, 16), info(Some((1, 2)), 16)])
            .expect_err("whole index rejected");
        assert!(matches!(err, RouterError::NotSharded { .. }));
        // Duplicate shard id.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((0, 2)), 16)])
            .expect_err("duplicate shard rejected");
        assert!(err.to_string().contains("served by both"));
        // Mismatched global vertex count (different indexes).
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((1, 2)), 17)])
            .expect_err("mixed indexes rejected");
        assert!(err.to_string().contains("vertices"));
        // Shard count disagreeing with the address list.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 3)), 16), info(Some((1, 3)), 16)])
            .expect_err("wrong count rejected");
        assert!(err.to_string().contains("backends were given"));
        // Shard id out of range.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((9, 2)), 16)])
            .expect_err("id out of range rejected");
        assert!(err.to_string().contains(">="));
        // No backends at all.
        let err = ClusterView::from_infos(&[], &[]).expect_err("empty rejected");
        assert!(matches!(err, RouterError::Inconsistent(_)));
    }

    #[test]
    fn router_options_default_and_error_display() {
        let opts = RouterOptions::default();
        assert!(opts.threads >= 1);
        assert_eq!(opts.max_frame, DEFAULT_MAX_FRAME);
        let err = RouterError::NotSharded {
            addr: "10.0.0.1:4040".into(),
        };
        assert!(err.to_string().contains("10.0.0.1:4040"));
        let unavailable = shard_unavailable_response(2);
        match unavailable {
            Response::Error { code, detail, .. } => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert_eq!(detail, 2);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
}
