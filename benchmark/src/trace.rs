//! In-memory spans and counts recorded by the harness around every call
//! into a layer. Nothing here touches the program: spans open and close in
//! the benchmark's own files, on the one driver thread, so a child span
//! always lies inside its parent and never overlaps a sibling.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.plan`; the root span of an operation
    /// is `op`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The repair / sweep / round / drain this span belongs to.
    pub op: u64,
}

/// Span and count sink. Disabled, every method is a plain call-through, so
/// untraced runs pay one branch per boundary.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Time `f` as a span named `name`, child of whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add `by` to the count `name` (work done, bytes moved, retries...).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// The running total of a count (0 when never counted).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: seconds of self time (duration minus the part its
    /// children cover) and the number of spans.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let e = out.entry(s.name).or_default();
            e.self_s += own as f64 / 1e9;
            e.spans += 1;
        }
        out
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"counts\":{{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        s.push_str("},\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub self_s: f64,
    pub spans: usize,
}

/// Self time of each span in nanoseconds: its duration minus its direct
/// children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] > plan [10,40] > simulate [15,35]; op > exec [50,90]
        let spans = vec![
            span("op", 0, 100, None),
            span("core.plan", 10, 40, Some(0)),
            span("netsim.simulate", 15, 35, Some(1)),
            span("exec.run", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let v = tr.span("a", |tr| {
            tr.span("b", |_| ());
            tr.span("b", |tr| tr.span("c", |_| 42))
        });
        assert_eq!(v, 42);
        let names: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.op))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a", None, 7),
                ("b", Some(0), 7),
                ("b", Some(0), 7),
                ("c", Some(2), 7)
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.by_name()["b"].spans, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a", |tr| tr.span("b", |_| 1)), 1);
        tr.count("x", 3.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.total("x"), 0.0);
    }
}
