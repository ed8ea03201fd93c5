//! Spans recorded by the benchmark's own timers around calls into the
//! program's layers. Spans stay in memory and are written out once, at the
//! end of the run.

use std::io::Write;
use std::time::Instant;

use crate::stats::Nanos;

/// One timed interval: a call into a layer, or a phase of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer entry point or phase name, e.g. `persist.encode`.
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: Nanos,
    /// End, nanoseconds since the tracer's epoch.
    pub end: Nanos,
}

impl Span {
    /// A load frame's span, from when it was due to its answer; its parent
    /// is set when a [`Tracer`] adopts it.
    pub fn frame(start: Nanos, end: Nanos) -> Span {
        Span {
            name: "frame".to_string(),
            parent: None,
            start,
            end,
        }
    }
}

/// An in-memory span store sharing one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }

    /// Opens a span and returns its id; close it with [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end = end;
    }

    /// Times `f` as a span named `name`; returns its result.
    pub fn span<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere on the same epoch; returns
    /// its id.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Nanos, end: Nanos) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Adds spans recorded elsewhere on the same epoch as children of
    /// `parent`.
    pub fn adopt(&mut self, parent: usize, spans: Vec<Span>) {
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: Some(parent),
            ..s
        }));
    }

    /// Duration of the most recent span named `name`, seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end - s.start) as f64 / 1e9)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start,
                s.end,
                self_time(&self.spans, id)
            )?;
        }
        Ok(())
    }
}

/// A span's duration minus the part of it its children cover (overlapping
/// children, as from parallel work, are counted once).
pub fn self_time(spans: &[Span], id: usize) -> Nanos {
    let me = &spans[id];
    let mut covered: Vec<(Nanos, Nanos)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = me.start;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    (me.end - me.start) - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: Nanos, end: Nanos) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("build", None, 0, 100),
            span("read", Some(0), 10, 30),
            span("rank", Some(0), 20, 50),
            span("write", Some(0), 90, 120),
            span("inner", Some(1), 10, 20),
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100.
        assert_eq!(self_time(&spans, 0), 50);
        assert_eq!(self_time(&spans, 1), 10);
        assert_eq!(self_time(&spans, 2), 30);
    }
}
