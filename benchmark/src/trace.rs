//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written out when the traced pass ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Time inside the layer. For a span around one call this is its
    /// whole duration; a layer called once per record instead
    /// accumulates its calls' time here, under one span.
    pub busy: Duration,
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            busy: Duration::ZERO,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.busy = span.end - span.start;
        span.busy
    }

    /// Records a per-call layer under the open span: `calls` calls that
    /// together took `busy`, somewhere between `start` and now.
    pub fn accumulated(&mut self, name: &'static str, start: Duration, busy: Duration, calls: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: self.origin.elapsed(),
            busy,
            calls,
        });
    }

    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// A span's busy time less what its child spans account for.
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy)
            .sum();
        self.spans[id].busy.saturating_sub(children)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span and line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("id", Json::num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start.as_nanos() as f64)),
                ("end_ns", Json::num(s.end.as_nanos() as f64)),
                ("busy_ns", Json::num(s.busy.as_nanos() as f64)),
                ("self_ns", Json::num(self.self_time(id).as_nanos() as f64)),
                ("calls", Json::num(s.calls as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(Duration::from_millis(3));
        t.exit(inner);
        let start = t.now();
        std::thread::sleep(Duration::from_millis(2));
        t.accumulated("per_call", start, Duration::from_millis(1), 500);
        let outer = t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(spans[1].busy >= Duration::from_millis(3) && outer >= spans[1].busy);
        assert_eq!(
            (spans[2].calls, spans[2].busy),
            (500, Duration::from_millis(1))
        );
        assert_eq!(
            t.self_time(0),
            spans[0].busy - spans[1].busy - Duration::from_millis(1)
        );
        assert_eq!(t.self_time(1), spans[1].busy);
    }
}
