//! The load generator: one client process driving a running `chl serve` or
//! `chl route` over the binary protocol, checking every answer against the
//! pool's Dijkstra distances.
//!
//! * Open loop ([`OpenConn`]): one connection, a sender thread that sends
//!   each frame when it is due on a fixed-rate schedule (late sends go out
//!   at once and are counted, never dropped) and a receiver thread that
//!   reads the in-order responses. Latency runs from the due time.
//! * Closed loop ([`closed_loop`]): one thread per connection, each
//!   sending its next frame when the previous one is answered, with a
//!   RELOAD sent on the first connection at a fixed period.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use chl_serve::protocol::{
    decode_response, encode_request, FrameBuffer, Request, Response, DEFAULT_MAX_FRAME, MAGIC,
};

use crate::pool::Pool;
use crate::stats::{Failures, Nanos, NEVER};
use crate::trace::Span;

/// How long a response may take before the frame counts as timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// What happened to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, every distance equal to Dijkstra's.
    Ok,
    /// Answered with a typed error frame.
    Error,
    /// Answered with a wrong distance, or with a frame of the wrong kind.
    Wrong,
    /// Never answered.
    TimedOut,
    /// Never sent: the connection failed first.
    Refused,
}

/// Tallies outcomes into a failure count.
pub fn tally(outcomes: &[Outcome]) -> Failures {
    let mut f = Failures::default();
    for o in outcomes {
        match o {
            Outcome::Ok => {}
            Outcome::Error => f.error_frames += 1,
            Outcome::Wrong => f.wrong += 1,
            Outcome::TimedOut => f.timed_out += 1,
            Outcome::Refused => f.refused += 1,
        }
    }
    f
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> Nanos {
    epoch.elapsed().as_nanos() as Nanos
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&MAGIC)?;
    Ok(stream)
}

/// Encodes the QUERY frame of `batch` pool pairs starting at `start`.
fn encode_query(pool: &Pool, start: usize, batch: usize, out: &mut Vec<u8>) {
    let pairs = pool
        .positions(start, batch)
        .map(|i| pool.pairs[i])
        .collect();
    encode_request(&Request::Query(pairs), out);
}

/// Judges one decoded response to the frame starting at `start`.
fn judge(pool: &Pool, start: usize, batch: usize, payload: &[u8]) -> Outcome {
    match decode_response(payload) {
        Ok(Response::Distances(ds)) if ds.len() == batch => {
            let right = pool
                .positions(start, batch)
                .zip(&ds)
                .all(|(i, &d)| pool.truth[i] == d);
            if right {
                Outcome::Ok
            } else {
                Outcome::Wrong
            }
        }
        Ok(Response::Error { .. }) => Outcome::Error,
        _ => Outcome::Wrong,
    }
}

/// Reads until `fb` holds a complete frame; returns its payload and the
/// time its last bytes arrived.
fn read_frame(
    stream: &mut TcpStream,
    fb: &mut FrameBuffer,
    chunk: &mut [u8],
    epoch: Instant,
    arrived: &mut Nanos,
) -> Option<Vec<u8>> {
    loop {
        match fb.next_payload() {
            Ok(Some(payload)) => return Some(payload),
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(chunk) {
            Ok(0) => return None,
            Ok(n) => {
                *arrived = since(epoch);
                fb.extend(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// Reads until `fb` holds a complete frame from a nonblocking `stream`,
/// spinning between reads; gives up after [`READ_TIMEOUT`] without bytes.
fn poll_frame(
    stream: &mut TcpStream,
    fb: &mut FrameBuffer,
    chunk: &mut [u8],
    epoch: Instant,
    arrived: &mut Nanos,
) -> Option<Vec<u8>> {
    let mut idle_since = Instant::now();
    loop {
        match fb.next_payload() {
            Ok(Some(payload)) => return Some(payload),
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(chunk) {
            Ok(0) => return None,
            Ok(n) => {
                *arrived = since(epoch);
                fb.extend(&chunk[..n]);
                idle_since = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                if idle_since.elapsed() > READ_TIMEOUT {
                    return None;
                }
                std::hint::spin_loop();
            }
            Err(_) => return None,
        }
    }
}

/// Writes all of `bytes` to a nonblocking `stream`, spinning while its
/// send buffer is full; gives up after [`READ_TIMEOUT`] without progress.
fn poll_send(stream: &mut TcpStream, mut bytes: &[u8]) -> bool {
    let mut idle_since = Instant::now();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => {
                bytes = &bytes[n..];
                idle_since = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                if idle_since.elapsed() > READ_TIMEOUT {
                    return false;
                }
                std::hint::spin_loop();
            }
            Err(_) => return false,
        }
    }
    true
}

/// Per-frame record of one open-loop phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// First due time.
    pub start: Nanos,
    /// End of the schedule (exclusive).
    pub end: Nanos,
    /// When each frame was due.
    pub due: Vec<Nanos>,
    /// When each frame was actually sent ([`NEVER`] if it was not).
    pub sent: Vec<Nanos>,
    /// When each frame's response arrived ([`NEVER`] if it did not).
    pub received: Vec<Nanos>,
    /// What happened to each frame.
    pub outcomes: Vec<Outcome>,
    /// One span per answered frame, from due time to answer, when traced.
    pub spans: Vec<Span>,
}

impl PhaseLog {
    /// How late each sent frame went out, in nanoseconds.
    pub fn lateness(&self) -> Vec<u64> {
        self.due
            .iter()
            .zip(&self.sent)
            .filter(|(_, &s)| s != NEVER)
            .map(|(&d, &s)| s.saturating_sub(d))
            .collect()
    }
}

/// One open-loop connection, driven in poll mode: the sender spins until
/// each frame is due and the receiver spins on a nonblocking socket, so
/// neither waits on a timer or a wake-up from idle. The orchestrator runs
/// the tool at the lowest CPU priority, so the spinning yields to the
/// servers whenever they have work.
#[derive(Debug)]
pub struct OpenConn {
    stream: TcpStream,
    cursor: usize,
}

impl OpenConn {
    /// Connects and sends the protocol preamble.
    pub fn connect(addr: SocketAddr) -> std::io::Result<OpenConn> {
        let stream = connect(addr)?;
        stream.set_nonblocking(true)?;
        Ok(OpenConn { stream, cursor: 0 })
    }

    /// Runs one fixed-rate phase of `duration` and waits for every answer
    /// (or a timeout). A broken connection marks the rest of the phase as
    /// failed rather than aborting the run, so failures are counted. With
    /// `traced`, the receiver records a span per frame as it goes.
    #[allow(clippy::too_many_arguments)]
    pub fn phase(
        &mut self,
        epoch: Instant,
        pool: &Pool,
        batch: usize,
        rate: f64,
        duration: Duration,
        traced: bool,
    ) -> PhaseLog {
        let count = ((rate * duration.as_secs_f64()).round() as usize).max(1);
        let interval = 1e9 / rate;
        // Start a little in the future so the first frame is not born late.
        let start = since(epoch) + 1_000_000;
        let due: Vec<Nanos> = (0..count)
            .map(|k| start + (k as f64 * interval) as Nanos)
            .collect();
        let end = start + duration.as_nanos() as Nanos;
        let first = self.cursor;
        self.cursor = (self.cursor + count * batch) % pool.pairs.len();

        let writer = self.stream.try_clone();
        let mut spans = Vec::new();
        let (sent, (received, outcomes)) = std::thread::scope(|s| {
            let due = &due;
            let sender = s.spawn(move || {
                let mut sent = vec![NEVER; count];
                let Ok(mut writer) = writer else {
                    return sent;
                };
                let mut wire = Vec::with_capacity(16 + 8 * batch);
                for (k, &d) in due.iter().enumerate() {
                    wire.clear();
                    encode_query(pool, first + k * batch, batch, &mut wire);
                    while since(epoch) < d {
                        std::hint::spin_loop();
                    }
                    if !poll_send(&mut writer, &wire) {
                        // Unblock the receiver; the rest count as refused.
                        let _ = writer.shutdown(Shutdown::Both);
                        break;
                    }
                    sent[k] = since(epoch);
                }
                sent
            });
            let mut received = vec![NEVER; count];
            let mut outcomes = vec![Outcome::TimedOut; count];
            let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
            let mut chunk = vec![0u8; 64 * 1024];
            let mut arrived = 0;
            for k in 0..count {
                let reader = &mut self.stream;
                let Some(payload) = poll_frame(reader, &mut fb, &mut chunk, epoch, &mut arrived)
                else {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    break;
                };
                received[k] = arrived;
                outcomes[k] = judge(pool, first + k * batch, batch, &payload);
                if traced {
                    spans.push(Span::frame(due[k], arrived));
                }
            }
            let sent = sender.join().expect("the sender thread panicked");
            (sent, (received, outcomes))
        });
        let outcomes = outcomes
            .into_iter()
            .zip(&sent)
            .map(|(o, &s)| if s == NEVER { Outcome::Refused } else { o })
            .collect();
        PhaseLog {
            start,
            end,
            due,
            sent,
            received,
            outcomes,
            spans,
        }
    }
}

/// What a closed-loop run measured.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// `(send time, latency)` of each frame answered correctly inside the
    /// measured window, ns since the run's epoch.
    pub measured: Vec<(Nanos, u64)>,
    /// Start of the measured window, ns since the run's epoch.
    pub measure_from: Nanos,
    /// Every QUERY frame sent, warm-up included.
    pub frames: u64,
    /// Every distance requested, warm-up included.
    pub queries: u64,
    /// RELOAD frames sent.
    pub reloads: u64,
    /// Outcome of every QUERY frame.
    pub outcomes: Vec<Outcome>,
    /// RELOADs answered with something other than the next generation.
    pub reload_failures: u64,
    /// One span per measured frame, from send to answer, when traced.
    pub spans: Vec<Span>,
}

/// Runs `conns` closed-loop connections of `batch`-pair frames: `warm`
/// unmeasured, then `measure` measured. The first connection also sends a
/// RELOAD every `reload_every` of the measured window (never, if zero).
/// With `traced`, each connection records a span per measured frame.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    batch: usize,
    warm: Duration,
    measure: Duration,
    reload_every: Duration,
    traced: bool,
) -> ClosedRun {
    let epoch = Instant::now();
    let measure_from = warm.as_nanos() as Nanos;
    let measure_to = measure_from + measure.as_nanos() as Nanos;
    let runs: Vec<ClosedRun> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let reload_every = if c == 0 { reload_every } else { Duration::ZERO };
                    closed_conn(
                        addr,
                        pool,
                        batch,
                        c * pool.pairs.len() / conns,
                        epoch,
                        (measure_from, measure_to),
                        reload_every,
                        traced,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a load connection panicked"))
            .collect()
    });
    let mut out = ClosedRun {
        measure_from,
        ..ClosedRun::default()
    };
    for r in runs {
        out.measured.extend(r.measured);
        out.frames += r.frames;
        out.queries += r.queries;
        out.reloads += r.reloads;
        out.outcomes.extend(r.outcomes);
        out.reload_failures += r.reload_failures;
        out.spans.extend(r.spans);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn closed_conn(
    addr: SocketAddr,
    pool: &Pool,
    batch: usize,
    mut cursor: usize,
    epoch: Instant,
    (measure_from, measure_to): (Nanos, Nanos),
    reload_every: Duration,
    traced: bool,
) -> ClosedRun {
    let mut run = ClosedRun::default();
    let mut stream = match connect(addr).and_then(|s| {
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(_) => {
            run.frames = 1;
            run.queries = batch as u64;
            run.outcomes.push(Outcome::Refused);
            return run;
        }
    };
    let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut wire = Vec::with_capacity(16 + 8 * batch);
    let mut arrived = 0;
    let mut generation = None;
    let period = reload_every.as_nanos() as Nanos;
    let mut next_reload = if period > 0 {
        measure_from + period / 2
    } else {
        NEVER
    };
    loop {
        let now = since(epoch);
        if now >= measure_to {
            break;
        }
        if now >= next_reload {
            next_reload += period;
            wire.clear();
            encode_request(&Request::Reload, &mut wire);
            run.reloads += 1;
            let answer = stream
                .write_all(&wire)
                .ok()
                .and_then(|_| read_frame(&mut stream, &mut fb, &mut chunk, epoch, &mut arrived));
            match answer.map(|p| decode_response(&p)) {
                Some(Ok(Response::Ok { generation: g }))
                    if generation.is_none_or(|prev: u64| g == prev + 1) =>
                {
                    generation = Some(g);
                }
                _ => run.reload_failures += 1,
            }
            continue;
        }
        wire.clear();
        encode_query(pool, cursor, batch, &mut wire);
        run.frames += 1;
        run.queries += batch as u64;
        let t0 = since(epoch);
        let answer = stream
            .write_all(&wire)
            .ok()
            .and_then(|_| read_frame(&mut stream, &mut fb, &mut chunk, epoch, &mut arrived));
        let Some(payload) = answer else {
            run.outcomes.push(Outcome::TimedOut);
            break;
        };
        let outcome = judge(pool, cursor, batch, &payload);
        run.outcomes.push(outcome);
        if t0 >= measure_from && outcome == Outcome::Ok {
            run.measured.push((t0, arrived - t0));
            if traced {
                run.spans.push(Span::frame(t0, arrived));
            }
        }
        cursor = (cursor + batch) % pool.pairs.len();
    }
    run
}
