//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around each call it
//! makes into a library layer; nothing is recorded inside the library.
//! A disabled tracer costs one branch per call, so the untraced run
//! shares the driver code with the traced one. Spans stay in memory and
//! are written once, at exit, as Chrome-trace JSON (`chrome://tracing`,
//! Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Returned by a disabled tracer; [`Tracer::end`] ignores it.
const NO_SPAN: SpanId = usize::MAX;

/// One timed interval around a call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `serve.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// The request this span worked for, when it worked for one.
    pub request_id: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread, nesting by call order.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A disabled tracer.
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// A tracer that records (`enabled`) or ignores every call; span
    /// times count from `origin`, so several tracers can share a clock.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request_id: Option<u64>) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request_id);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children may overlap each other
/// only if recorded on several threads; the union is what is removed).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Chrome-trace JSON for `lanes` of `(name, spans)`, one process lane
/// per workload: every span a complete (`X`) slice — children nest
/// under their parents by time containment — and every request a flow
/// (`s`/`t`/`f` arrows) through the slices that carry its id, so one
/// request can be followed from submit to last token.
pub fn chrome_trace_json(lanes: &[(&str, &[Span])]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut events: Vec<String> = Vec::new();
    for (lane, (name, spans)) in lanes.iter().enumerate() {
        let pid = lane + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        for (id, span) in spans.iter().enumerate() {
            let mut args = format!("\"span\":{id}");
            if let Some(parent) = span.parent {
                let _ = write!(args, ",\"parent\":{parent}");
            }
            if let Some(req) = span.request_id {
                let _ = write!(args, ",\"request_id\":{req}");
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                span.name,
                us(span.start_ns),
                us(span.duration_ns()),
            ));
        }
        // One flow per request, through its spans in start order.
        let mut by_request: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
        for span in spans.iter() {
            if let Some(req) = span.request_id {
                by_request.entry(req).or_default().push(span);
            }
        }
        for (req, hops) in by_request {
            if hops.len() < 2 {
                continue;
            }
            for (i, span) in hops.iter().enumerate() {
                let ph = match i {
                    0 => "s",
                    i if i + 1 == hops.len() => "f",
                    _ => "t",
                };
                // Flow ids are global to the file; keep lanes apart.
                events.push(format!(
                    "{{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"{ph}\",\"bp\":\"e\",\
                     \"id\":{},\"pid\":{pid},\"tid\":1,\"ts\":{:.3}}}",
                    (pid as u64) << 32 | req,
                    us(span.start_ns),
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 50..70
            span(10, 40, Some(0)), // child with its own child
            span(15, 25, Some(1)), // grandchild: not subtracted from the root
            span(50, 70, Some(0)), // second child
            span(200, 230, None),  // leaf root
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn self_time_removes_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the first child by 20
            span(90, 120, Some(0)), // sticks out past the parent
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_by_call_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("a.outer", None);
        t.span("a.inner", Some(7), || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[1].request_id, Some(7));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations_ms("a.inner").len(), 1);

        let mut off = Tracer::off();
        let id = off.begin("a.outer", None);
        off.end(id);
        assert_eq!(off.span("a.inner", None, || 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_a_slice_per_span_and_a_flow_per_request() {
        let mut spans = vec![span(0, 5_000, None), span(1_000, 2_000, Some(0))];
        spans[0].request_id = Some(3);
        spans[1].request_id = Some(3);
        let json = chrome_trace_json(&[("lane", &spans)]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"parent\":0"));
        assert!(crate::report::parse_json(&json).is_ok());
    }
}
