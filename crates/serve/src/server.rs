//! The server's frame handler: answers from the [`SharedIndex`] snapshot.
//!
//! Sockets, framing, batching and shutdown live in the connection core
//! ([`crate::conn`]); this module only turns decoded requests into answers.
//! Every contiguous run of QUERY frames the core collects is answered with a
//! **single** batched [`DistanceOracle::distances`] call (which fans out on
//! the rayon pool). Control frames (INFO / RELOAD / SHUTDOWN) are answered
//! in order between batches. Reload never stops anything: each batch is
//! answered from the [`SharedIndex`] snapshot taken for it. Non-protocol
//! connections get the HTTP adapter ([`crate::http`]).

use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::Arc;

use chl_core::oracle::DistanceOracle;
use chl_core::paths::PathError;
use chl_graph::types::{Distance, VertexId};

use crate::conn::{
    not_this_shard, out_of_range, FrameHandler, Reply, ServeOptions, Service, State, Stats,
};
use crate::http;
use crate::index::SharedIndex;
use crate::protocol::{ErrorCode, Response};

/// Cap on pairs per [`DistanceOracle::distances`] call; larger coalesced
/// batches are answered in chunks of this size.
const MAX_BATCH: usize = 1 << 16;

/// A bound-but-not-yet-running server over a [`SharedIndex`].
pub type Server = Service<ServeHandler>;

/// A server running on its own thread, as spawned by [`Service::spawn`].
pub type SpawnedServer = crate::conn::Spawned;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over a shared index.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        shared: Arc<SharedIndex>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        Service::bind_with(addr, ServeHandler { shared }, opts)
    }
}

/// The [`FrameHandler`] of `chl serve`: one whole index or one shard file.
#[derive(Debug)]
pub struct ServeHandler {
    shared: Arc<SharedIndex>,
}

impl FrameHandler for ServeHandler {
    type Worker = ();
    const ROLE: &'static str = "serve";

    fn worker(&self) {}

    /// Every answerable frame's pairs go into one batched `distances` call
    /// (chunked at `MAX_BATCH` pairs); frames naming an out-of-range id — or, on
    /// a shard file, an id owned by another shard — answer a typed error
    /// frame instead, without failing their neighbors. Range is checked
    /// before ownership, so out-of-range frames get byte-identical answers
    /// from a shard and from a whole-index server.
    fn queries(&self, _: &mut (), run: &[Vec<(VertexId, VertexId)>], reply: &mut Reply<'_>) {
        // One snapshot for the whole run: a concurrent reload never changes
        // answers mid-batch, and in-flight batches keep the old generation
        // alive until they finish.
        let snapshot = self.shared.snapshot();
        let oracle = snapshot.oracle();
        let n = oracle.num_vertices();

        // Frame dispositions: Ok(range into the batch) or the typed failure.
        let mut batch: Vec<(VertexId, VertexId)> = Vec::new();
        let mut frames: Vec<Result<Range<usize>, Response>> = Vec::with_capacity(run.len());
        for pairs in run {
            let ids = || pairs.iter().flat_map(|&(u, v)| [u, v]);
            let refusal = out_of_range(ids(), n).or_else(|| {
                // Every id is in range here, so ownership is the only question.
                let id = snapshot.foreign(ids())?;
                Some(not_this_shard(id, snapshot.shard()))
            });
            match refusal {
                Some(error) => frames.push(Err(error)),
                None => {
                    let start = batch.len();
                    batch.extend_from_slice(pairs);
                    frames.push(Ok(start..batch.len()));
                }
            }
        }

        let answers = batched_distances(oracle, &batch, reply.stats());
        reply.stats().queries.add(batch.len() as u64);
        for frame in frames {
            match frame {
                Ok(range) => {
                    let ds = answers.get(range).unwrap_or_default();
                    reply.send(&Response::Distances(ds.to_vec()));
                }
                Err(error) => reply.send(&error),
            }
        }
    }

    /// Range is checked before shard ownership — the QUERY discipline — then
    /// the generation's parent records reconstruct the walk. A path too long
    /// for the frame cap answers a typed Oversized error.
    fn path(&self, _: &mut (), u: VertexId, v: VertexId, reply: &mut Reply<'_>) {
        let snapshot = self.shared.snapshot();
        if let Some(error) = out_of_range([u, v], snapshot.num_vertices()) {
            return reply.send(&error);
        }
        if let Some(id) = snapshot.foreign([u, v]) {
            return reply.send(&not_this_shard(id, snapshot.shard()));
        }
        match snapshot.path(u, v) {
            Ok(hops) => {
                let vertices = hops.unwrap_or_default();
                let count = vertices.len();
                if reply.fits(
                    1 + 4 + 4 * count,
                    count,
                    format_args!("path of {count} vertices"),
                ) {
                    reply.stats().queries.add(1);
                    reply.send(&Response::Path(vertices));
                }
            }
            // An interior chain vertex owned elsewhere (possible on shard
            // files even when both endpoints are owned here).
            Err(PathError::NotThisShard { vertex }) => {
                reply.send(&not_this_shard(vertex, snapshot.shard()));
            }
            // No path section, or parent records that cannot witness the
            // pair: distances still serve, reconstruction does not.
            Err(e) => reply.send(&Response::Error {
                code: ErrorCode::NoPathData,
                detail: 0,
                message: e.to_string(),
            }),
        }
    }

    /// Answers through the hub-pivoted block kernel. Range is checked over
    /// sources then targets (first offender wins), then shard ownership,
    /// then the frame cap.
    fn matrix(
        &self,
        _: &mut (),
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    ) {
        let snapshot = self.shared.snapshot();
        let oracle = snapshot.oracle();
        let ids = || sources.iter().chain(targets).copied();
        if let Some(error) = out_of_range(ids(), oracle.num_vertices()) {
            return reply.send(&error);
        }
        if let Some(id) = snapshot.foreign(ids()) {
            return reply.send(&not_this_shard(id, snapshot.shard()));
        }
        let cells = sources.len() * targets.len();
        if reply.matrix_fits(cells) {
            reply.stats().queries.add(cells as u64);
            reply.stats().batch_calls.add(1);
            reply.send(&Response::Matrix(oracle.matrix(sources, targets)));
        }
    }

    fn info(&self, _: &mut (), _: &Stats) -> Response {
        Response::Info(self.shared.info())
    }

    fn reload(&self, _: &mut (), _: &Stats) -> Response {
        match self.shared.reload() {
            Ok(generation) => Response::Ok { generation },
            Err(e) => Response::Error {
                code: ErrorCode::ReloadFailed,
                detail: 0,
                message: e.to_string(),
            },
        }
    }

    fn generation(&self) -> u64 {
        self.shared.generation()
    }

    fn non_protocol(&self, stream: TcpStream, head: &[u8], state: &State) -> std::io::Result<()> {
        http::serve_http(stream, head, &self.shared, state)
    }
}

/// One `distances` call per [`MAX_BATCH`] pairs, counted in the stats.
fn batched_distances(
    oracle: &dyn DistanceOracle,
    pairs: &[(VertexId, VertexId)],
    stats: &Stats,
) -> Vec<Distance> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut answers = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(MAX_BATCH) {
        stats.batch_calls.add(1);
        answers.extend(oracle.distances(chunk));
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DEFAULT_MAX_FRAME;

    #[test]
    fn options_default_and_clamp() {
        let opts = ServeOptions::default();
        assert!(opts.threads >= 1);
        assert_eq!(opts.max_frame, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn stats_snapshot_reports_counters() {
        let stats = Stats::default();
        stats.queries.add(3);
        stats.max_coalesced.raise(5);
        stats.max_coalesced.raise(2);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.max_coalesced, 5);
        assert_eq!(snap.connections, 0);
    }
}
