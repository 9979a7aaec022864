//! The harness-side span recorder of the traced run.
//!
//! Spans wrap the benchmark's own calls into the layers' public
//! functions — nothing is added inside `crates/`. They live in memory
//! and are written to `out/trace_<workload>.json` when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` indexes the recorder's span list;
/// spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; hand it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans entered from now on carry its id.
    pub fn next_op(&mut self) {
        assert!(self.open.is_empty(), "operation ended with open spans");
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Records a leaf span around `f` (which cannot open spans itself).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name, in first-seen order: count, total duration and
    /// total self time in microseconds — where the traced time went.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let self_ns = self_times_ns(&self.spans);
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let row = match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => row,
                None => {
                    rows.push((span.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.duration_ns() as f64 / 1e3;
            row.3 += own as f64 / 1e3;
        }
        rows
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(f64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time is its duration minus the part of it its child
/// spans cover. Children of one parent never overlap here (the traced
/// run is single-threaded), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::new();
        rec.next_op();
        let root = rec.enter("op");
        rec.time("leaf", || std::hint::black_box(1 + 1));
        rec.exit(root);
        rec.next_op();
        rec.time("leaf", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 1));
        assert_eq!((spans[2].parent, spans[2].op), (None, 2));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert_eq!(rec.durations_us("leaf").len(), 2);
        let summary = rec.summary();
        assert_eq!(
            summary.iter().map(|row| (row.0, row.1)).collect::<Vec<_>>(),
            [("op", 1), ("leaf", 2)]
        );
        let (_, _, op_total, op_self) = summary[0];
        assert!(op_self <= op_total);
    }
}
