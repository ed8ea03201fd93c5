//! `perfbench-tool`: the compiled half of the repository benchmark. The
//! orchestrator (`perfbench/run.py`) builds and starts the `chl` processes;
//! this tool drives and checks the load against them (`load`) and times
//! each layer's entry points in process for the traced run (`layers`).
//!
//! ```text
//! perfbench-tool load --graph g.bin --addr 127.0.0.1:7557 --seed 1 \
//!     --mode open --batch 1 --warm-ms 200 --measure-ms 30000 --segments 5 \
//!     --rate 4000 [--ladder 4000,8000 --rung-ms 1000 --p99-limit-us 20000] \
//!     [--spans f]
//! perfbench-tool load ... --mode closed --conns 2 --batch 64 --reload-ms 2000
//! perfbench-tool relabel --in base.bin --out g.bin --seed 1
//! perfbench-tool layers --graph g.bin --dir work --seed 1 --batch 64 \
//!     --compress 1 --mmap 1 --spans spans.jsonl
//! ```
//!
//! Each command prints one JSON object on its last stdout line. `load`
//! counts failed frames (error frames, refusals, timeouts, wrong answers)
//! in that object; `layers` exits 1 on a wrong answer. Both exit 1 when a
//! step cannot run at all.

mod json;
mod layers;
mod load;
mod pool;
mod relabel;
mod stats;
mod trace;

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use chl_graph::csr::CsrGraph;
use chl_graph::io::read_binary;

use json::Json;
use load::{tally, OpenConn, PhaseLog};
use pool::Pool;
use stats::{
    backlog_grows, due_latency, max_rate, nearest_rank, supports_percentile, window_medians,
    window_sums, Rung,
};
use trace::Tracer;

/// `--name value` pairs.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .0
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))?;
        raw.parse()
            .map_err(|_| format!("invalid value '{raw}' for --{name}"))
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("load") => Args::parse(&raw[1..]).and_then(|a| run_load(&a)),
        Some("layers") => Args::parse(&raw[1..]).and_then(|a| run_layers(&a)),
        Some("relabel") => Args::parse(&raw[1..]).and_then(|a| run_relabel(&a)),
        _ => Err("usage: perfbench-tool load|layers|relabel --flag value ...".to_string()),
    };
    match result {
        Ok(json) => println!("{}", json.render()),
        Err(e) => {
            eprintln!("perfbench-tool: {e}");
            std::process::exit(1);
        }
    }
}

fn read_graph(path: &Path) -> Result<CsrGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_binary(std::io::BufReader::new(file)).map_err(|e| format!("read graph: {e}"))
}

fn run_relabel(a: &Args) -> Result<Json, String> {
    let g = read_graph(&a.get::<PathBuf>("in")?)?;
    let h = relabel::relabel(&g, &relabel::permutation(g.num_vertices(), a.get("seed")?))?;
    let out: PathBuf = a.get("out")?;
    let file = std::fs::File::create(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    chl_graph::io::write_binary(&h, file).map_err(|e| format!("write graph: {e}"))?;
    let mut json = Json::default();
    json.int("vertices", h.num_vertices() as u64);
    json.int("edges", h.num_edges() as u64);
    Ok(json)
}

fn ms(a: &Args, name: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(a.get(name)?))
}

fn run_layers(a: &Args) -> Result<Json, String> {
    let shape = layers::Shape {
        compress: a.get::<u8>("compress")? == 1,
        mmap: a.get::<u8>("mmap")? == 1,
        batch: a.get("batch")?,
    };
    let mut out = Json::default();
    layers::run(
        &a.get::<PathBuf>("graph")?,
        &a.get::<PathBuf>("dir")?,
        &shape,
        a.get("seed")?,
        &a.get::<PathBuf>("spans")?,
        &mut out,
    )?;
    Ok(out)
}

fn run_load(a: &Args) -> Result<Json, String> {
    let g = read_graph(&a.get::<PathBuf>("graph")?)?;
    let pool = Pool::new(&g, a.get("seed")?, 2);
    drop(g);
    let addr: SocketAddr = a.get("addr")?;
    let batch: usize = a.get("batch")?;
    let mut out = Json::default();
    match a.get::<String>("mode")?.as_str() {
        "open" => open_load(a, addr, &pool, batch, &mut out)?,
        "closed" => closed_load(a, addr, &pool, batch, &mut out)?,
        other => return Err(format!("unknown --mode {other}")),
    }
    Ok(out)
}

/// Length of the windows the median latency and throughput are taken
/// over. A host stall inflates the windows it falls in; the median across
/// windows is the typical window, not one the stall dragged up.
const WINDOW: Duration = Duration::from_secs(1);

/// Whole windows in `d`.
fn windows(d: Duration) -> usize {
    (d.as_nanos() / WINDOW.as_nanos()) as usize
}

/// `(due time, latency)` of a phase's answered frames, ns.
fn latencies(phase: &PhaseLog) -> Vec<(u64, u64)> {
    phase
        .due
        .iter()
        .zip(&phase.received)
        .filter_map(|(&d, &r)| due_latency(d, r).map(|l| (d, l)))
        .collect()
}

/// Sorted latencies of `points`.
fn sorted(points: &[(u64, u64)]) -> Vec<u64> {
    let mut l: Vec<u64> = points.iter().map(|p| p.1).collect();
    l.sort_unstable();
    l
}

/// One measured segment of a load.
struct Segment {
    /// `(start time, latency)` of each answered frame, ns.
    points: Vec<(u64, u64)>,
    /// When the segment's measurement began, ns.
    from: u64,
    /// Whether the segment recorded a span per frame.
    traced: bool,
}

/// Reports the latency of `segments`, `count` windows each: `p50_us` is
/// the median of the per-window medians; `p99_us`, `p999_us` (when ten
/// samples lie beyond it) and `samples` are over every point pooled.
fn report_latency<'a>(
    segments: impl Iterator<Item = &'a Segment> + Clone,
    count: usize,
    out: &mut Json,
    prefix: &str,
) {
    let window = WINDOW.as_nanos() as u64;
    let mut medians: Vec<u64> = segments
        .clone()
        .flat_map(|s| window_medians(&s.points, s.from, window, count))
        .collect();
    medians.sort_unstable();
    let pooled: Vec<(u64, u64)> = segments.flat_map(|s| s.points.iter().copied()).collect();
    let pooled = sorted(&pooled);
    let us = |v: Option<u64>| v.unwrap_or(0) as f64 / 1000.0;
    out.num(&format!("{prefix}p50_us"), us(nearest_rank(&medians, 0.5)));
    out.num(&format!("{prefix}p99_us"), us(nearest_rank(&pooled, 0.99)));
    if supports_percentile(pooled.len(), 0.999) {
        out.num(
            &format!("{prefix}p999_us"),
            us(nearest_rank(&pooled, 0.999)),
        );
    }
    out.int(&format!("{prefix}samples"), pooled.len() as u64);
}

/// Reports the latency of every segment and, when the run was traced, of
/// its untraced and traced segments apart: their difference is the cost
/// of recording a span per frame.
fn report_segments(segments: &[Segment], count: usize, traced: bool, out: &mut Json) {
    report_latency(segments.iter(), count, out, "");
    if traced {
        report_latency(
            segments.iter().filter(|s| !s.traced),
            count,
            out,
            "untraced.",
        );
        report_latency(segments.iter().filter(|s| s.traced), count, out, "traced.");
    }
}

// Both loops split the measured window into segments, each on fresh
// connections: the server hands a connection to one worker thread, and
// where that worker and the client land on the CPUs moves one
// connection's median latency by up to a third. In a traced run every
// second segment records spans.

fn open_load(
    a: &Args,
    addr: SocketAddr,
    pool: &Pool,
    batch: usize,
    out: &mut Json,
) -> Result<(), String> {
    let rate: f64 = a.get("rate")?;
    let traced = a.0.contains_key("spans");
    let segments: u32 = a.get("segments")?;
    let warm = ms(a, "warm-ms")?;
    let segment = ms(a, "measure-ms")? / segments;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut last_conn = None;
    let mut phases: Vec<PhaseLog> = Vec::new();
    let mut measured = Vec::new();
    let mut late = Vec::new();
    let (mut answered, mut window) = (0, 0.0);
    for seg in 0..segments {
        // Close the previous segment's connection first: the server keeps a
        // worker on every open connection.
        drop(last_conn.take());
        let mut conn = OpenConn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        phases.push(conn.phase(epoch, pool, batch, rate, warm, false));
        let record = traced && seg % 2 == 1;
        let mut phase = conn.phase(epoch, pool, batch, rate, segment, record);
        let parent = tracer.record("load.segment", None, phase.start, phase.end);
        tracer.adopt(parent, std::mem::take(&mut phase.spans));
        let last = phase.received.iter().filter(|&&r| r != stats::NEVER).max();
        window += last.map_or(0, |&r| r - phase.start) as f64 / 1e9;
        let l = latencies(&phase);
        answered += l.len();
        late.extend(phase.lateness());
        measured.push(Segment {
            points: l,
            from: phase.start,
            traced: record,
        });
        phases.push(phase);
        last_conn = Some(conn);
    }
    report_segments(&measured, windows(segment), traced, out);
    out.num("throughput_qps", (answered * batch) as f64 / window);
    late.sort_unstable();
    out.num(
        "late_max_ms",
        late.last().copied().unwrap_or(0) as f64 / 1e6,
    );
    out.num(
        "late_p99_ms",
        nearest_rank(&late, 0.99).unwrap_or(0) as f64 / 1e6,
    );

    if let (Some(ladder), Some(conn)) = (a.0.get("ladder"), last_conn.as_mut()) {
        let rung_time = ms(a, "rung-ms")?;
        let limit_ns = a.get::<u64>("p99-limit-us")? * 1000;
        let mut rungs = Vec::new();
        for r in ladder.split(',') {
            let r: f64 = r.parse().map_err(|_| format!("bad ladder rate '{r}'"))?;
            let phase = conn.phase(epoch, pool, batch, r, rung_time, false);
            let mut l = sorted(&latencies(&phase));
            // An unanswered frame misses every latency limit.
            l.resize(phase.due.len(), u64::MAX);
            let rung = Rung {
                rate: r,
                p99_ns: nearest_rank(&l, 0.99).unwrap_or(u64::MAX),
                backlog_grew: backlog_grows(&phase.due, &phase.received, phase.start, phase.end),
                failed: tally(&phase.outcomes).total() as usize,
            };
            let late_max = phase.lateness().into_iter().max().unwrap_or(0);
            let met = rung.met(limit_ns);
            eprintln!(
                "ladder {r:>8.0}/s: p99 {:>9.1}us, backlog {}, late max {:.2}ms -> {}",
                rung.p99_ns as f64 / 1000.0,
                if rung.backlog_grew { "grows" } else { "steady" },
                late_max as f64 / 1e6,
                if met { "met" } else { "missed" }
            );
            phases.push(phase);
            rungs.push(rung);
            if !met {
                break;
            }
        }
        out.num("max_rate_rps", max_rate(&rungs, limit_ns).unwrap_or(0.0));
    }

    let outcomes: Vec<load::Outcome> = phases.iter().flat_map(|p| p.outcomes.clone()).collect();
    report_counts(
        out,
        phases.iter().map(|p| p.due.len() as u64).sum(),
        phases.iter().map(|p| (p.due.len() * batch) as u64).sum(),
        u64::from(segments),
        &outcomes,
    );
    write_spans(a, &tracer)
}

fn closed_load(
    a: &Args,
    addr: SocketAddr,
    pool: &Pool,
    batch: usize,
    out: &mut Json,
) -> Result<(), String> {
    let conns: usize = a.get("conns")?;
    let traced = a.0.contains_key("spans");
    let segments: u32 = a.get("segments")?;
    let segment = ms(a, "measure-ms")? / segments;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut runs = Vec::new();
    let mut measured = Vec::new();
    for seg in 0..segments {
        let record = traced && seg % 2 == 1;
        let begin = load::since(epoch);
        let mut run = load::closed_loop(
            addr,
            pool,
            conns,
            batch,
            ms(a, "warm-ms")?,
            segment,
            ms(a, "reload-ms")?,
            record,
        );
        // The run's own timestamps count from its start.
        let parent = tracer.record("load.segment", None, begin, load::since(epoch));
        let spans = std::mem::take(&mut run.spans)
            .into_iter()
            .map(|s| trace::Span {
                start: s.start + begin,
                end: s.end + begin,
                ..s
            });
        tracer.adopt(parent, spans.collect());
        measured.push(Segment {
            points: std::mem::take(&mut run.measured),
            from: run.measure_from,
            traced: record,
        });
        runs.push(run);
    }
    let count = windows(segment);
    report_segments(&measured, count, traced, out);
    // Distances answered per window, by when the answer arrived.
    let mut per_window: Vec<u64> = measured
        .iter()
        .flat_map(|s| {
            let answers: Vec<(u64, u64)> = s
                .points
                .iter()
                .map(|&(t0, l)| (t0 + l, batch as u64))
                .collect();
            window_sums(&answers, s.from, WINDOW.as_nanos() as u64, count)
        })
        .collect();
    per_window.sort_unstable();
    let median = nearest_rank(&per_window, 0.5).unwrap_or(0);
    out.num("throughput_qps", median as f64 / WINDOW.as_secs_f64());
    // A closed loop sends when the previous answer arrives: never late.
    out.num("late_max_ms", 0.0);
    out.num("late_p99_ms", 0.0);
    let reloads: u64 = runs.iter().map(|r| r.reloads).sum();
    let reload_failures: u64 = runs.iter().map(|r| r.reload_failures).sum();
    if reload_failures > 0 {
        return Err(format!("{reload_failures} RELOAD frames failed"));
    }
    let outcomes: Vec<load::Outcome> = runs.iter().flat_map(|r| r.outcomes.clone()).collect();
    report_counts(
        out,
        runs.iter().map(|r| r.frames).sum::<u64>() + reloads,
        runs.iter().map(|r| r.queries).sum(),
        (conns * runs.len()) as u64,
        &outcomes,
    );
    write_spans(a, &tracer)
}

fn write_spans(a: &Args, tracer: &Tracer) -> Result<(), String> {
    if let Some(path) = a.0.get("spans") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        tracer
            .write_jsonl(&mut w)
            .and_then(|_| w.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

/// The counts the orchestrator reconciles with the server's exit line.
fn report_counts(
    out: &mut Json,
    frames: u64,
    queries: u64,
    connections: u64,
    outcomes: &[load::Outcome],
) {
    let f = tally(outcomes);
    out.int("frames", frames);
    out.int("queries", queries);
    out.int("connections", connections);
    out.int("attempted", outcomes.len() as u64);
    out.int("failed", f.total());
    out.int("error_frames", f.error_frames);
    out.int("refused", f.refused);
    out.int("timed_out", f.timed_out);
    out.int("wrong", f.wrong);
    out.num("failed_frac", f.failed_frac(outcomes.len() as u64));
}
