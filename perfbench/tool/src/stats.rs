//! The arithmetic every figure the benchmark reports goes through: the
//! nearest-rank percentile, one-second windows, due-time latency, the rate
//! ladder's backlog rule and the failed fraction. Kept free of I/O so the self-tests below
//! pin each rule exactly.

/// Nanosecond timestamp relative to one run-wide epoch.
pub type Nanos = u64;

/// Marks a frame whose response never arrived.
pub const NEVER: Nanos = u64::MAX;

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it (`q` in `0..=1`). `None` for
/// an empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Whether a sample of `n` supports the `q` percentile: at least ten
/// samples must lie beyond it.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// The medians of the fixed windows `[from + k*window, from + (k+1)*window)`,
/// `k < count`, over `(time, value)` points; empty windows are skipped.
pub fn window_medians(
    points: &[(Nanos, u64)],
    from: Nanos,
    window: Nanos,
    count: usize,
) -> Vec<u64> {
    let mut windows = vec![Vec::new(); count];
    for &(t, v) in points {
        if let Some(w) = t
            .checked_sub(from)
            .and_then(|d| windows.get_mut((d / window) as usize))
        {
            w.push(v);
        }
    }
    windows
        .into_iter()
        .filter_map(|mut w| {
            w.sort_unstable();
            nearest_rank(&w, 0.5)
        })
        .collect()
}

/// Sum of `(time, amount)` points per fixed window, as in
/// [`window_medians`]; empty windows count 0.
pub fn window_sums(points: &[(Nanos, u64)], from: Nanos, window: Nanos, count: usize) -> Vec<u64> {
    let mut sums = vec![0; count];
    for &(t, v) in points {
        if let Some(w) = t
            .checked_sub(from)
            .and_then(|d| sums.get_mut((d / window) as usize))
        {
            *w += v;
        }
    }
    sums
}

/// Latency of one frame, timed from when it was due to be sent, not from
/// when the generator managed to send it: a stall that delays later sends
/// shows up in their latency instead of vanishing from the record.
pub fn due_latency(due: Nanos, received: Nanos) -> Option<Nanos> {
    (received != NEVER).then(|| received.saturating_sub(due))
}

/// Frames due by `t` that had not been answered by `t`.
pub fn backlog_at(due: &[Nanos], received: &[Nanos], t: Nanos) -> usize {
    let due_by = due.iter().filter(|&&d| d <= t).count();
    let answered_by = received.iter().filter(|&&r| r <= t).count();
    due_by.saturating_sub(answered_by)
}

/// The rate ladder's backlog rule: a step's backlog grows when the frames
/// outstanding at its end exceed those outstanding at its midpoint by more
/// than `max(16, 2%)` of the frames due within the step. A server keeping
/// up holds the backlog near `rate x latency` throughout; one falling
/// behind accumulates `(rate - capacity) x elapsed`.
pub fn backlog_grows(due: &[Nanos], received: &[Nanos], start: Nanos, end: Nanos) -> bool {
    let mid = start + (end - start) / 2;
    let due_in_step = due.iter().filter(|&&d| d >= start && d < end).count();
    let tolerance = (due_in_step / 50).max(16);
    backlog_at(due, received, end) > backlog_at(due, received, mid) + tolerance
}

/// One rung of the rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate in frames per second.
    pub rate: f64,
    /// Nearest-rank p99 of the due-time latencies of the step's frames,
    /// counting unanswered frames as over any limit.
    pub p99_ns: u64,
    /// Whether the backlog grew within the step.
    pub backlog_grew: bool,
    /// Frames of the step that failed (error, timeout, wrong answer).
    pub failed: usize,
}

impl Rung {
    /// A rung is met when p99 stays under the limit, the backlog does not
    /// grow and no frame failed.
    pub fn met(&self, p99_limit_ns: u64) -> bool {
        self.p99_ns <= p99_limit_ns && !self.backlog_grew && self.failed == 0
    }
}

/// Highest rate of an ascending ladder met by it and every rung below it;
/// `None` when even the first rung misses.
pub fn max_rate(rungs: &[Rung], p99_limit_ns: u64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.met(p99_limit_ns))
        .last()
        .map(|r| r.rate)
}

/// Failure tally of a run, counted in frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Frames answered with a typed error frame.
    pub error_frames: u64,
    /// Frames that could not be sent because the connection was refused.
    pub refused: u64,
    /// Frames whose response never arrived.
    pub timed_out: u64,
    /// Frames answered with at least one distance that disagrees with
    /// Dijkstra.
    pub wrong: u64,
}

impl Failures {
    /// Frames that failed for any reason.
    pub fn total(&self) -> u64 {
        self.error_frames + self.refused + self.timed_out + self.wrong
    }

    /// `(error frames + refused + timed out + wrong) / attempted`; 0 for an
    /// empty run.
    pub fn failed_frac(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            self.total() as f64 / attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_q() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&s, 0.50), Some(500));
        assert_eq!(nearest_rank(&s, 0.99), Some(990));
        assert_eq!(nearest_rank(&s, 0.999), Some(999));
        assert_eq!(nearest_rank(&s, 1.0), Some(1000));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7, 9], 0.5), Some(7));
        assert_eq!(nearest_rank(&[7, 9], 0.51), Some(9));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn windows_split_points_by_time_and_drop_the_rest() {
        let points = [
            (100, 5),
            (150, 1),
            (199, 3),
            (200, 9),
            (250, 7),
            (300, 4),
            (99, 8),
        ];
        // Windows [100, 200) and [200, 300); 300 and 99 fall outside.
        assert_eq!(window_medians(&points, 100, 100, 2), vec![3, 7]);
        assert_eq!(window_sums(&points, 100, 100, 2), vec![9, 16]);
        assert_eq!(window_medians(&points, 100, 100, 4), vec![3, 7, 4]);
        assert_eq!(window_sums(&points, 100, 100, 4), vec![9, 16, 4, 0]);
        // Three stalled windows of ten pull a pooled median up; the median
        // of window medians stays where the unstalled windows put it.
        let mut points = Vec::new();
        for w in 0..10u64 {
            for k in 0..100 {
                let lat = if w < 3 { 1_000 } else { 10 + k };
                points.push((w * 1000 + k, lat));
            }
        }
        let mut medians = window_medians(&points, 0, 1000, 10);
        medians.sort_unstable();
        assert_eq!(nearest_rank(&medians, 0.5), Some(59));
        let mut pooled: Vec<u64> = points.iter().map(|p| p.1).collect();
        pooled.sort_unstable();
        assert_eq!(nearest_rank(&pooled, 0.5), Some(81));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(10_000, 0.999));
        assert!(!supports_percentile(9_999, 0.999));
    }

    #[test]
    fn latency_counts_from_the_due_time_so_stalls_are_charged() {
        // Frame due at 1000 but sent late at 5000, answered at 5100: the
        // 4000 of generator stall is part of what the user waited.
        assert_eq!(due_latency(1_000, 5_100), Some(4_100));
        assert_eq!(due_latency(1_000, NEVER), None);
        // A response can never precede its due time, but clamp anyway.
        assert_eq!(due_latency(2_000, 1_000), Some(0));
    }

    #[test]
    fn backlog_counts_due_but_unanswered_frames() {
        let due = [0, 10, 20, 30];
        let received = [5, 25, NEVER, NEVER];
        assert_eq!(backlog_at(&due, &received, 4), 1);
        assert_eq!(backlog_at(&due, &received, 10), 1);
        assert_eq!(backlog_at(&due, &received, 30), 2);
    }

    #[test]
    fn backlog_rule_flags_a_server_that_falls_behind() {
        // 1000 frames due every 1000ns over [0, 1_000_000).
        let due: Vec<u64> = (0..1000).map(|i| i * 1000).collect();
        // Keeping up: each answered 300ns after its due time.
        let ok: Vec<u64> = due.iter().map(|d| d + 300).collect();
        assert!(!backlog_grows(&due, &ok, 0, 1_000_000));
        // Serving at half the offered rate: answers drift ever later.
        let slow: Vec<u64> = (0..1000).map(|i| 300 + i * 2000).collect();
        assert!(backlog_grows(&due, &slow, 0, 1_000_000));
        // A constant delay, however long, is latency and not a growing
        // backlog; the p99 limit judges it.
        let late: Vec<u64> = due.iter().map(|d| d + 200_000).collect();
        assert!(!backlog_grows(&due, &late, 0, 1_000_000));
    }

    #[test]
    fn ladder_stops_at_the_first_missed_rung() {
        let rung = |rate: f64, p99_ns: u64, backlog_grew: bool| Rung {
            rate,
            p99_ns,
            backlog_grew,
            failed: 0,
        };
        let limit = 1_000;
        let rungs = [
            rung(1.0, 100, false),
            rung(2.0, 200, false),
            rung(3.0, 900, true),
            rung(4.0, 300, false),
        ];
        assert_eq!(max_rate(&rungs, limit), Some(2.0));
        assert_eq!(max_rate(&[rung(1.0, 5_000, false)], limit), None);
        let failing = Rung {
            failed: 1,
            ..rung(1.0, 10, false)
        };
        assert!(!failing.met(limit));
    }

    #[test]
    fn failed_frac_adds_every_failure_kind_over_attempts() {
        let f = Failures {
            error_frames: 1,
            refused: 2,
            timed_out: 3,
            wrong: 4,
        };
        assert_eq!(f.total(), 10);
        assert!((f.failed_frac(40) - 0.25).abs() < 1e-12);
        assert_eq!(Failures::default().failed_frac(100), 0.0);
        assert_eq!(f.failed_frac(0), 0.0);
    }
}
