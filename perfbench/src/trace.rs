//! In-memory spans recorded around calls into the program's public
//! functions.  Nothing inside the program is instrumented: every span is
//! opened and closed here, in the benchmark's own code, so a span covers the
//! whole call into a layer including whatever that layer calls in turn.
//!
//! Spans stay in memory while the benchmark runs and are written out as
//! JSON lines when it ends.  A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use mbfi_core::report::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans caused by one request (a grid pass, a served grid, a set-up
    /// repetition) share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.  A disabled tracer records nothing and returns `None`
/// ids, so the timed code is the same whether tracing is on or off.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Open a span that children can name as their parent; close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let (Some(spans), Some(id)) = (self.spans.as_ref(), id) {
            let end = self.ns(Instant::now());
            spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => spans.lock().expect("span list lock poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span.  Children may nest further and may
/// overlap each other (concurrent children); overlap is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Durations in ms of the spans called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// JSON lines of every span with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (id, (span, own)) in spans.iter().zip(own).enumerate() {
        let mut obj = Json::object();
        obj.set("id", id);
        obj.set("name", span.name);
        obj.set("start_ns", span.start_ns);
        obj.set("end_ns", span.end_ns);
        obj.set("self_ns", own);
        obj.set("parent", span.parent.map_or(Json::Null, Json::from));
        obj.set("request", span.request);
        out.push_str(&obj.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,35); root > b [50,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 35, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two concurrent children [10,60) and [40,80), plus one nested in
        // the union [20,30): the union covers [10,80) = 70.
        let spans = vec![
            span("root", 0, 100, None),
            span("c", 10, 60, Some(0)),
            span("c", 40, 80, Some(0)),
            span("c", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 45, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn durations_select_spans_by_name() {
        let spans = vec![
            span("pass", 0, 1_000_000, None),
            span("grid", 0, 600_000, Some(0)),
            span("grid", 1_000_000, 1_400_000, None),
        ];
        assert_eq!(durations_ms(&spans, "grid"), vec![0.6, 0.4]);
        assert!(durations_ms(&spans, "render").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("x", None, 0);
        assert_eq!(id, None);
        tracer.close(id);
        assert_eq!(tracer.span("y", None, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn open_close_nests_children() {
        let tracer = Tracer::new(true);
        let root = tracer.open("root", None, 3);
        tracer.span("child", root, 3, || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
