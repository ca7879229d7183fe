//! In-memory spans around the calls into each layer.
//!
//! The benchmark drives the layers from outside, so a span is recorded here,
//! around a public call, never inside the program. Spans stay in memory and
//! are written once, when the workload ends. A disabled tracer costs one
//! branch per boundary, which is what the untraced pass runs with.

use std::collections::BTreeMap;
use std::time::Instant;

use dmp_runner::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `netsim.run_until`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an iteration's root.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (the identifier its spans share).
    pub iteration: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(Option<usize>);

/// Span recorder for one pass of one workload.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    /// A tracer that records nothing (the untraced pass).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer (the traced pass).
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    /// Mark the start of iteration `i`; later spans carry it.
    pub fn begin_iteration(&mut self, i: u32) {
        self.iteration = i;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span. For calls that need no nested spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per iteration, the self seconds summed by span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.iteration)
            .or_default()
            .entry(s.name)
            .or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The span file: every span with its self time.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans.iter().zip(self_ns(spans)).map(|(s, own)| {
        Json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("self_ns", Json::Num(own as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("iteration", Json::Num(f64::from(s.iteration))),
        ])
    });
    Json::obj([
        ("schema", Json::Str("benchmark-spans/v1".into())),
        ("workload", Json::Str(workload.to_string())),
        ("spans", Json::arr(rows)),
    ])
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
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("iteration", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // iteration: 100 − (30 + 40); a: 30 − 10; grandchildren count once.
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        let by_name = self_seconds_by_name(&spans);
        let total: f64 = by_name[&0].values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "self times tile the root");
    }

    #[test]
    fn tracer_nests_by_call_order_and_tags_iterations() {
        let mut t = Tracer::on();
        for i in 0..2 {
            t.begin_iteration(i);
            let root = t.enter("iteration");
            t.span("layer.call", || std::hint::black_box(1 + 1));
            let outer = t.enter("layer.outer");
            t.span("layer.inner", || ());
            t.exit(outer);
            t.exit(root);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[7].iteration, 1);
        for (iteration, names) in self_seconds_by_name(spans) {
            let root = &spans[iteration as usize * 4];
            let total: f64 = names.values().sum();
            assert!((total - root.duration_ns() as f64 * 1e-9).abs() < 1e-12);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.enter("iteration");
        assert_eq!(t.span("x", || 5), 5);
        t.exit(open);
        assert!(t.spans().is_empty());
    }
}
