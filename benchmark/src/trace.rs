//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program under test is instrumented: a span is opened
//! here, in the benchmark, just before a call into a layer's public function
//! and closed just after. Where one public call hides several layers, the
//! traced op *replays* the inner public call on the same inputs after the
//! real op has been timed and records it as a child of the span it explains
//! (`replay: true`); such a child lies outside its parent's interval, so
//! self time is taken over durations: a span's own duration minus the
//! durations of its children.
//!
//! Spans stay in memory until the run ends ([`write_file`]).

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one explains (`None` for an op's root).
    pub parent: Option<usize>,
    /// The op all spans of one request share.
    pub op_id: u64,
    /// Recorded after the op, by calling the layer again on the same inputs.
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

const DISABLED: usize = usize::MAX;

/// An in-memory span recorder. A disabled tracer records nothing and its
/// calls cost one branch, so untraced runs share the op code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        replay: bool,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(DISABLED);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op_id,
            replay,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Opens the root span of op `op_id`.
    pub fn root(&mut self, op_id: u64) -> SpanId {
        self.open("op", None, op_id, false)
    }

    /// Opens a span for a call made as part of the op, under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        self.open(name, Some(parent), op_id, false)
    }

    /// Opens a span for a replayed inner call that explains `parent`.
    pub fn begin_replay(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        self.open(name, Some(parent), op_id, true)
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0].end_ns = self.now_ns();
        }
    }

    /// Appends another recorder's spans (one recorder per client thread),
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's durations,
/// never below zero (a replayed child can outlast the call it explains).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.duration_ns();
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name, roots (`op`) included.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Share of op time attributed to a layer: the self times of all non-root
/// spans over the durations of the roots. Below `0.9`, some call the op
/// makes is not wrapped in a span.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut layers, mut ops) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        match span.parent {
            None => ops += span.duration_ns(),
            Some(_) => layers += self_ns,
        }
    }
    if ops == 0 {
        0.0
    } else {
        layers as f64 / ops as f64
    }
}

/// Writes the spans as a JSON array of
/// `{name, start_ns, end_ns, parent, op_id, replay}`.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let doc = Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("replay", Json::Bool(s.replay)),
                ])
            })
            .collect(),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0, replay: false }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] ── a [10,60] ── a1 [20,30]
        //            │           └─ a2 [30,55]
        //            └─ b [60,90]
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("a2", 30, 55, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 15, 10, 25, 30]);
        // 80 of the op's 100 ns sit in layer spans.
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"], LayerTotals { count: 1, total_ns: 50, self_ns: 15 });
        assert_eq!(durations_of(&spans, "b"), vec![30.0]);
    }

    #[test]
    fn replayed_children_count_by_duration_and_clamp_at_zero() {
        // The replay of `inner` runs after the op and outlasts `outer`.
        let spans = vec![
            span("op", 0, 50, None),
            span("outer", 5, 45, Some(0)),
            Span { replay: true, ..span("inner", 200, 260, Some(1)) },
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 0, 60]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let root = off.root(1);
        let child = off.begin("x", root, 1);
        off.end(child);
        off.end(root);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, epoch);
        let mut b = Tracer::new(true, epoch);
        for (tracer, op) in [(&mut a, 0), (&mut b, 1)] {
            let root = tracer.root(op);
            let child = tracer.begin_replay("x", root, op);
            tracer.end(child);
            tracer.end(root);
        }
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(a.spans()[3].replay && a.spans()[3].op_id == 1);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
