//! In-memory spans recorded by the benchmark around its calls into
//! `wsn_sim`, written out once the run ends.

use std::io::{self, Write};
use std::time::Instant;

use wsn_sim::persist::{json, render_compact};

/// One timed interval: nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`persist.parse`, `runner.map`, …).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans in memory. Spans from worker threads are timed by the
/// job itself and added afterwards with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer for `workload`, its clock starting now.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Adds an interval measured elsewhere (a job on a worker thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur())
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Summed self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or_else(json::null, |p| json::uint(p as u64));
            let line = render_compact(&json::obj(vec![
                ("name", json::string(s.name)),
                ("start_ns", json::uint(s.start)),
                ("end_ns", json::uint(s.end)),
                ("parent", parent),
                ("workload", json::string(self.workload)),
            ]));
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover. Children may overlap one another (parallel jobs), so the
/// covered part is the length of the union of their intervals, clipped to
/// the parent.
pub fn self_time(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // batch [0,100) ⊃ parse [0,10), map [20,70) ⊃ two overlapping
        // jobs [20,60) and [25,70), journal [80,90).
        let spans = vec![
            span("batch", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("map", 20, 70, Some(0)),
            span("job", 20, 60, Some(2)),
            span("job", 25, 70, Some(2)),
            span("journal", 80, 90, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 10 - 50 - 10);
        // The overlapping jobs cover the whole map interval once.
        assert_eq!(self_time(&spans, 2), 0);
        assert_eq!(self_time(&spans, 1), 10);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 5, 15, Some(0))];
        assert_eq!(self_time(&spans, 0), 5);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new("test");
        let root = t.enter("root");
        t.time("leaf", || std::hint::black_box(1 + 1));
        t.time("leaf", || ());
        t.exit(root);
        assert_eq!(t.spans.iter().filter(|s| s.name == "leaf").count(), 2);
        assert!(t.spans.iter().skip(1).all(|s| s.parent == Some(0)));
        let children = t.total_s("leaf");
        assert!((t.self_s("root") + children - t.total_s("root")).abs() < 1e-9);
    }
}
