//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the system under test is
//! instrumented: a span measures exactly one call made from benchmark
//! code.

use approxiot_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// No layer tag (driver, codec, broker, fault and root spans).
pub const NO_LAYER: u8 = u8::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified operation, e.g. `codec.encode`.
    pub name: &'static str,
    /// Edge layer the call ran on (`NO_LAYER` when not a node call).
    pub layer: u8,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The pass (one full run over the workload) the span belongs to.
    pub run: u32,
}

/// Collects spans; a disabled tracer records nothing and only runs the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the wrapped calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags every following span with pass `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, layer: u8, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[index as usize].end = end;
        out
    }

    /// Records a zero-length marker span (e.g. a result arriving).
    pub fn mark(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.now();
            self.spans.push(Span {
                name,
                layer: NO_LAYER,
                start: now,
                end: now,
                parent: self.open.last().copied(),
                run: self.run,
            });
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes spans as JSON lines: name, layer, start, end (ns), parent
    /// index, run id, and the span's own index.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().take(limit).enumerate() {
            let mut obj = BTreeMap::new();
            obj.insert("id".to_string(), Json::from(index));
            obj.insert("name".to_string(), Json::from(span.name));
            if span.layer != NO_LAYER {
                obj.insert("layer".to_string(), Json::from(span.layer as u64));
            }
            obj.insert("start_ns".to_string(), Json::from(span.start));
            obj.insert("end_ns".to_string(), Json::from(span.end));
            obj.insert(
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
            );
            obj.insert("run".to_string(), Json::from(span.run as u64));
            out.push_str(&compact(&Json::Obj(obj)));
            out.push('\n');
        }
        out
    }
}

/// Per-pass span totals: inclusive and self time per `(name, layer)`.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Inclusive nanoseconds per `(name, layer)`.
    pub inclusive: BTreeMap<(&'static str, u8), u64>,
    /// Self nanoseconds (inclusive minus direct children) summed over all
    /// spans.
    pub self_total: u64,
}

impl SpanTotals {
    /// Inclusive milliseconds of every span named `name` (any layer).
    pub fn ms(&self, name: &str) -> f64 {
        self.inclusive
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Inclusive milliseconds of every `node.*` and `summary.*` span on
    /// edge layer `layer`: the time the layer's nodes were busy.
    pub fn layer_busy_ms(&self, layer: u8) -> f64 {
        self.inclusive
            .iter()
            .filter(|((n, l), _)| {
                *l == layer && (n.starts_with("node.") || n.starts_with("summary."))
            })
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e6
    }
}

/// Totals the spans recorded from index `from` on (one pass's; they nest
/// only among themselves). The benchmark never nests one node or summary
/// span inside another, so per-layer busy time (their inclusive sum)
/// counts no call twice.
pub fn totals(tracer: &Tracer, from: usize) -> SpanTotals {
    let spans = &tracer.spans[from..];
    let mut totals = SpanTotals::default();
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        let dur = span.end - span.start;
        *totals.inclusive.entry((span.name, span.layer)).or_insert(0) += dur;
        if let Some(parent) = span.parent.and_then(|p| (p as usize).checked_sub(from)) {
            child_time[parent] += dur;
        }
    }
    for (span, children) in spans.iter().zip(child_time) {
        totals.self_total += (span.end - span.start).saturating_sub(children);
    }
    totals
}

/// One-line rendering of the hand-rolled JSON tree (its pretty printer
/// puts every member on its own line; strings never contain raw
/// newlines, so joining the trimmed lines is lossless).
pub fn compact(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim).collect()
}
