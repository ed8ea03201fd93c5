//! The traced run's per-layer figures: every public entry point of the
//! graph, ranking, core and serve layers timed from outside, in process,
//! on the workload's graph and query pool.
//!
//! The build path is replayed as spans under one `build` parent (graph
//! read, ranking, construction with cleaning, flattening, encoding,
//! writing) so the orchestrator can reconcile their sum with the untraced
//! `chl build` wall time. The serve path runs a real server, and a real
//! router in front of three QDOL shard servers, on loopback in this process
//! over the same files; their final counters must equal the frames sent.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chl_core::api::{ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::persist::{self, SaveOptions};
use chl_core::IndexView;
use chl_graph::csr::CsrGraph;
use chl_graph::io::read_binary;
use chl_graph::types::VertexId;
use chl_query::QdolShardMap;
use chl_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use chl_serve::{
    Client, ClusterView, LoadedIndex, Router, RouterOptions, ServeOptions, Server, SharedIndex,
};

use crate::json::Json;
use crate::pool::Pool;
use crate::stats::nearest_rank;
use crate::trace::Tracer;

/// What the workload builds and serves.
#[derive(Debug, Clone)]
pub struct Shape {
    /// `chl build --compress`.
    pub compress: bool,
    /// `chl serve --mmap`.
    pub mmap: bool,
    /// Pairs per QUERY frame.
    pub batch: usize,
}

/// Minimum wall time of each micro-timing loop.
const MIN_LOOP: Duration = Duration::from_millis(300);

/// Idle round trips timed per endpoint (after as many warm-up frames).
const IDLE_FRAMES: usize = 2000;

/// Frames of the workload's shape sent through the router.
const ROUTED_FRAMES: usize = 500;

/// RELOAD frames sent while the server is under load.
const RELOADS: usize = 5;

/// Runs `f(i)` for `i = 0, 1, ...` until [`MIN_LOOP`] has passed; returns
/// nanoseconds per call.
fn per_call(mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0;
    while calls % 256 != 0 || start.elapsed() < MIN_LOOP {
        f(calls);
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Runs every layer timing and returns the metrics, writing spans to
/// `spans_out`.
pub fn run(
    graph_path: &Path,
    dir: &Path,
    shape: &Shape,
    seed: u64,
    spans_out: &Path,
    out: &mut Json,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now());
    let index_path = dir.join("layers.chl");
    let save = SaveOptions {
        compress: shape.compress,
        ..SaveOptions::default()
    };

    // --- build path, as `chl build` runs it -------------------------------
    let build = tracer.open("build", None);
    let g: CsrGraph = tracer.span("graph.read", Some(build), || {
        std::fs::File::open(graph_path)
            .map_err(|e| fail("open graph", e))
            .and_then(|f| {
                read_binary(std::io::BufReader::new(f)).map_err(|e| fail("read graph", e))
            })
    })?;
    // `chl build` resolves `--ranking auto` with its default seed, 42.
    let ranking = tracer.span("ranking.resolve", Some(build), || {
        RankingStrategy::Auto { seed: 42 }.resolve(&g)
    });
    let result = tracer
        .span("core.build", Some(build), || {
            ChlBuilder::new(&g)
                .ranking(RankingStrategy::Explicit(ranking))
                .build()
        })
        .map_err(|e| fail("build", e))?;
    let flat = tracer.span("flat.from_index", Some(build), || {
        FlatIndex::from_index(&result.index)
    });
    let stats = result.stats;
    let bytes = tracer.span("persist.encode", Some(build), || {
        persist::to_bytes_with(&flat, &save)
    });
    tracer
        .span("persist.write", Some(build), || {
            std::fs::write(&index_path, &bytes)
        })
        .map_err(|e| fail("write index", e))?;
    drop(bytes);
    tracer.close(build);

    for name in [
        "graph.read",
        "ranking.resolve",
        "flat.from_index",
        "persist.encode",
        "persist.write",
    ] {
        out.num(&format!("{name}_s"), tracer.seconds(name));
    }
    out.num("core.build_s", tracer.seconds("core.build"));
    out.num("trace.build_s", tracer.seconds("build"));
    out.num("core.construct_s", stats.construction_time.as_secs_f64());
    out.num("core.clean_s", stats.cleaning_time.as_secs_f64());
    out.int(
        "core.vertices_explored",
        stats.total_vertices_explored() as u64,
    );
    out.int(
        "core.labels_generated",
        stats.total_labels_generated() as u64,
    );
    out.num("core.redundancy", stats.redundancy_ratio());
    out.int("core.supersteps", stats.supersteps as u64);
    out.int("core.planted_trees", stats.planted_trees as u64);
    out.int("core.rank_queries", stats.distance_queries as u64);
    drop(result.index);

    // --- open paths -------------------------------------------------------
    let loaded = tracer
        .span("persist.load", None, || persist::load(&index_path))
        .map_err(|e| fail("load index", e))?;
    let mapped = tracer
        .span("mapped.open", None, || MmapIndex::open(&index_path))
        .map_err(|e| fail("map index", e))?;
    out.num("persist.load_s", tracer.seconds("persist.load"));
    out.num("mapped.open_s", tracer.seconds("mapped.open"));
    if loaded.total_labels() != flat.total_labels() {
        return Err("reloaded index lost labels".to_string());
    }
    drop(flat);

    // --- kernel and oracle over the workload's pairs ----------------------
    let pool = Pool::new(&g, seed, 2);
    drop(g);
    let view: IndexView<'_> = if shape.mmap {
        mapped.view()
    } else {
        loaded.as_index_view()
    };
    let p = pool.pairs.len();
    for (i, &(u, v)) in pool.pairs.iter().enumerate() {
        if view.query(u, v) != pool.truth[i] {
            return Err(format!("kernel answered ({u}, {v}) wrongly"));
        }
    }
    let kernel_ns = tracer.span("kernel.query", None, || {
        per_call(|i| {
            let (u, v) = pool.pairs[i % p];
            black_box(view.query(black_box(u), black_box(v)));
        })
    });
    out.num("kernel.query_ns", kernel_ns);
    let entries: usize = pool
        .pairs
        .iter()
        .map(|&(u, v)| loaded.labels_of(u).len() + loaded.labels_of(v).len())
        .sum();
    out.num("kernel.entries_per_query", entries as f64 / p as f64);

    let served = LoadedIndex::open(&index_path, shape.mmap).map_err(|e| fail("open oracle", e))?;
    let oracle = served.oracle();
    let call1_ns = tracer.span("oracle.call1", None, || {
        per_call(|i| {
            black_box(oracle.distances(black_box(&pool.pairs[i % p..i % p + 1])));
        })
    });
    out.num("oracle.call1_ns", call1_ns);
    let two = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .map_err(|e| fail("rayon pool", e))?;
    let batch64_ns = tracer.span("oracle.batch64", None, || {
        two.install(|| {
            per_call(|i| {
                let at = (i * 64) % (p - 64);
                black_box(oracle.distances(black_box(&pool.pairs[at..at + 64])));
            })
        })
    });
    out.num("oracle.batch64_ns_per_pair", batch64_ns / 64.0);

    // --- protocol codecs for the workload's frame shape -------------------
    let pairs: Vec<(VertexId, VertexId)> = pool.pairs[..shape.batch].to_vec();
    let request = Request::Query(pairs.clone());
    let response = Response::Distances(pool.truth[..shape.batch].to_vec());
    let mut req_wire = Vec::new();
    encode_request(&request, &mut req_wire);
    let mut resp_wire = Vec::new();
    encode_response(&response, &mut resp_wire);
    let mut scratch = Vec::with_capacity(req_wire.len().max(resp_wire.len()));
    let encode_ns = tracer.span("protocol.encode", None, || {
        per_call(|_| {
            scratch.clear();
            encode_request(black_box(&request), &mut scratch);
            encode_response(black_box(&response), &mut scratch);
            black_box(&scratch);
        })
    });
    let decode_ns = tracer.span("protocol.decode", None, || {
        per_call(|_| {
            black_box(decode_request(black_box(&req_wire[4..])).ok());
            black_box(decode_response(black_box(&resp_wire[4..])).ok());
        })
    });
    out.num("protocol.encode_ns", encode_ns);
    out.num("protocol.decode_ns", decode_ns);
    drop((loaded, mapped, served));

    // --- server: idle round trip and RELOAD under load --------------------
    let shared = Arc::new(
        SharedIndex::open(&index_path, shape.mmap).map_err(|e| fail("open served index", e))?,
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&shared), ServeOptions::default())
        .and_then(Server::spawn)
        .map_err(|e| fail("spawn server", e))?;
    let direct = server.handle().addr();
    let server_rtt = tracer
        .span("server.rtt_idle", None, || idle_rtt_us(direct, &pool))
        .map_err(|e| fail("idle server round trip", e))?;
    out.num("server.rtt_idle_us", server_rtt);
    out.num("server.self_us", server_rtt - call1_ns / 1000.0);
    let (reload_s, loaded_frames) = tracer
        .span("serve.reload", None, || {
            reload_under_load(direct, &pool, shape.batch)
        })
        .map_err(|e| fail("reload under load", e))?;
    out.num("serve.reload_s", reload_s);
    let stats = server.shutdown().map_err(|e| fail("stop server", e))?;
    let idle = 2 * IDLE_FRAMES as u64;
    reconcile(
        "server",
        (
            stats.connections,
            stats.frames,
            stats.queries,
            stats.error_frames,
        ),
        (
            3,
            idle + loaded_frames + RELOADS as u64,
            idle + loaded_frames * shape.batch as u64,
            0,
        ),
    )?;

    // --- router over three shard servers ----------------------------------
    let whole = persist::load(&index_path).map_err(|e| fail("load index", e))?;
    // Three is the smallest QDOL layout whose shards differ: with two, both
    // shards own the same partition pair and the router never fans out.
    let shard_paths = write_shards(&whole, dir, 3, &save)?;
    drop(whole);
    let mut shards = Vec::new();
    for path in &shard_paths {
        let shared =
            Arc::new(SharedIndex::open(path, shape.mmap).map_err(|e| fail("open shard", e))?);
        let spawned = Server::bind("127.0.0.1:0", shared, ServeOptions::default())
            .and_then(Server::spawn)
            .map_err(|e| fail("spawn shard server", e))?;
        shards.push(spawned);
    }
    let addrs: Vec<String> = shards
        .iter()
        .map(|s| s.handle().addr().to_string())
        .collect();
    let options = RouterOptions::default();
    let cluster = ClusterView::discover(&addrs, options.backend_timeout)
        .map_err(|e| fail("discover shards", e))?;
    let router = Router::bind("127.0.0.1:0", cluster, options)
        .and_then(Router::spawn)
        .map_err(|e| fail("spawn router", e))?;
    let routed = router.handle().addr();
    let router_rtt = tracer
        .span("router.rtt_idle", None, || idle_rtt_us(routed, &pool))
        .map_err(|e| fail("idle router round trip", e))?;
    out.num("router.rtt_idle_us", router_rtt);
    out.num("router.hop_us", router_rtt - server_rtt);
    tracer
        .span("router.frames", None, || {
            routed_frames(routed, &pool, shape.batch)
        })
        .map_err(|e| fail("routed frames", e))?;
    let rstats = router.shutdown().map_err(|e| fail("stop router", e))?;
    let mut shard_queries = 0;
    for s in shards {
        shard_queries += s
            .shutdown()
            .map_err(|e| fail("stop shard server", e))?
            .queries;
    }
    let routed_queries = idle + (ROUTED_FRAMES * shape.batch) as u64;
    reconcile(
        "router",
        (
            rstats.connections,
            rstats.frames,
            rstats.queries,
            rstats.error_frames,
        ),
        (2, idle + ROUTED_FRAMES as u64, routed_queries, 0),
    )?;
    if shard_queries != routed_queries {
        return Err(format!(
            "shard servers answered {shard_queries} queries, the router placed {routed_queries}"
        ));
    }
    out.num(
        "router.fanout_frac",
        rstats.fanout_frames as f64 / rstats.forwarded_frames.max(1) as f64,
    );
    out.int("router.shard_errors", rstats.shard_errors);

    let mut file = std::fs::File::create(spans_out).map_err(|e| fail("create span file", e))?;
    tracer
        .write_jsonl(&mut file)
        .map_err(|e| fail("write spans", e))?;
    Ok(())
}

/// Checks a serving process's final (connections, frames, queries, error
/// frames) against what this process sent it.
fn reconcile(
    who: &str,
    got: (u64, u64, u64, u64),
    want: (u64, u64, u64, u64),
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{who} counted (connections, frames, queries, error frames) {got:?}, the client sent {want:?}"
        ))
    }
}

/// Writes the QDOL shard files of `whole`, as `chl build --shards` does.
fn write_shards(
    whole: &FlatIndex,
    dir: &Path,
    count: usize,
    save: &SaveOptions,
) -> Result<Vec<PathBuf>, String> {
    let map = QdolShardMap::new(count, whole.num_vertices());
    (0..map.shard_count())
        .map(|id| {
            let shard = whole
                .restrict_to_shard(map.spec(id))
                .map_err(|e| fail("derive shard", e))?;
            let path = dir.join(format!("layers.shard-{id}-of-{count}.chl"));
            std::fs::write(&path, persist::to_bytes_with(&shard, save))
                .map_err(|e| fail("write shard", e))?;
            Ok(path)
        })
        .collect()
}

/// Median round trip of single-pair frames sent one at a time, µs.
fn idle_rtt_us(addr: std::net::SocketAddr, pool: &Pool) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| fail("connect", e))?;
    let mut rtts = Vec::with_capacity(IDLE_FRAMES);
    for i in 0..2 * IDLE_FRAMES {
        let (u, v) = pool.pairs[i % pool.pairs.len()];
        let start = Instant::now();
        let d = client.query(u, v).map_err(|e| fail("query", e))?;
        let rtt = start.elapsed().as_nanos() as u64;
        if d != pool.truth[i % pool.pairs.len()] {
            return Err(format!("({u}, {v}) answered wrongly"));
        }
        if i >= IDLE_FRAMES {
            rtts.push(rtt);
        }
    }
    rtts.sort_unstable();
    Ok(nearest_rank(&rtts, 0.5).unwrap_or(0) as f64 / 1000.0)
}

/// Median RELOAD round trip, in seconds, while a second connection keeps
/// a closed loop of `batch`-pair frames running; also returns how many
/// frames that loop sent.
fn reload_under_load(
    addr: std::net::SocketAddr,
    pool: &Pool,
    batch: usize,
) -> Result<(f64, u64), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let loader = s.spawn(|| -> Result<u64, String> {
            let mut client = Client::connect(addr).map_err(|e| fail("connect", e))?;
            let mut at = 0;
            let mut frames = 0;
            // ORDERING: a plain stop flag; no data is published through it.
            while !stop.load(Ordering::Relaxed) {
                let pairs = &pool.pairs[at..at + batch];
                let ds = client.query_batch(pairs).map_err(|e| fail("query", e))?;
                frames += 1;
                if ds[..] != pool.truth[at..at + batch] {
                    return Err("wrong answer under reload".to_string());
                }
                at = (at + batch) % (pool.pairs.len() - batch);
            }
            Ok(frames)
        });
        let mut times = Vec::new();
        let result = (|| {
            let mut client = Client::connect(addr).map_err(|e| fail("connect", e))?;
            for _ in 0..RELOADS {
                std::thread::sleep(Duration::from_millis(100));
                let start = Instant::now();
                client.reload().map_err(|e| fail("reload", e))?;
                times.push(start.elapsed().as_nanos() as u64);
            }
            Ok::<(), String>(())
        })();
        // ORDERING: see the load above.
        stop.store(true, Ordering::Relaxed);
        let frames = loader
            .join()
            .map_err(|_| "load thread panicked".to_string())??;
        result?;
        times.sort_unstable();
        Ok((nearest_rank(&times, 0.5).unwrap_or(0) as f64 / 1e9, frames))
    })
}

/// Sends [`ROUTED_FRAMES`] frames of the workload's shape through the
/// router, checking every answer.
fn routed_frames(addr: std::net::SocketAddr, pool: &Pool, batch: usize) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| fail("connect", e))?;
    for f in 0..ROUTED_FRAMES {
        let at = (f * batch) % (pool.pairs.len() - batch);
        let ds = client
            .query_batch(&pool.pairs[at..at + batch])
            .map_err(|e| fail("query", e))?;
        if ds[..] != pool.truth[at..at + batch] {
            return Err("router answered wrongly".to_string());
        }
    }
    Ok(())
}
