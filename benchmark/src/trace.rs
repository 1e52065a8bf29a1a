//! Spans recorded from the benchmark's own code, around calls into each
//! layer. Nothing inside `crates/` is instrumented: every span here is a
//! public call timed from the outside.

use std::time::Instant;

use nemfpga_obs::SpanRecord;

/// In-memory span log of one process, written out as a chrome://tracing
/// file when the round ends.
pub struct Tracer {
    origin: Instant,
    pid: u64,
    next_id: u64,
    spans: Vec<SpanRecord>,
}

/// An open span: close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    op: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// Span id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A tracer whose spans carry `pid` (the round number) in the trace.
    pub fn new(pid: u64) -> Self {
        Self { origin: Instant::now(), pid, next_id: 1, spans: Vec::new() }
    }

    /// Opens a span of `op` under `parent` (0 = a root span).
    pub fn open(&mut self, op: u64, parent: u64, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, op, parent, name, start: Instant::now() }
    }

    /// Closes `span`, records it, and returns its duration in ms.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        self.push(span.id, span.op, span.parent, span.name, span.start, end)
    }

    /// Records a span timed elsewhere (on a client thread, say).
    pub fn record(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.push(id, op, parent, name, start, end);
    }

    fn push(
        &mut self,
        id: u64,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(SpanRecord {
            cat: layer_of(name),
            name,
            start_ns,
            dur_ns,
            tid: self.pid,
            args: vec![("op", op), ("span", id), ("parent", parent)],
        });
        dur_ns as f64 / 1e6
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(op, parent, name);
        let out = f();
        self.close(span);
        out
    }

    /// Summed duration (ms) of the spans called `name` that belong to `op`.
    pub fn op_total_ms(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.args.first() == Some(&("op", op)))
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// The spans as a chrome://tracing document.
    pub fn to_chrome_trace(&self) -> String {
        nemfpga_obs::trace::to_chrome_trace(&self.spans)
    }
}

/// The layer a span name belongs to: its prefix before the first `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut t = Tracer::new(3);
        let root = t.open(7, 0, "flow.op");
        let x = t.time(7, root.id(), "pnr.place", || 41 + 1);
        let root_id = root.id();
        let total = t.close(root);
        assert_eq!(x, 42);
        assert!(total >= t.op_total_ms(7, "pnr.place"));
        let place = &t.spans[0];
        assert_eq!(place.cat, "pnr");
        assert_eq!(place.args, vec![("op", 7), ("span", 2), ("parent", root_id)]);
        assert_eq!(t.op_total_ms(8, "pnr.place"), 0.0);
        let doc = t.to_chrome_trace();
        assert!(doc.starts_with("{\"displayTimeUnit\""), "{doc}");
        assert!(doc.contains("\"name\":\"flow.op\""));
        assert!(doc.contains("\"tid\":3"));
    }
}
