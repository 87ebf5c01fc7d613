//! Spans recorded by the benchmark around each public call of a layer.
//!
//! A span has a name, a start, an end and the span that caused it; spans
//! of one op share the op's root span. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus the part its child spans cover; self allocations likewise.

use std::collections::BTreeMap;
use std::time::Instant;

use fnc2::obs::Json;

use crate::alloc;

/// The root span of every op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug)]
struct Span {
    name: &'static str,
    family: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Allocation calls inside the span, children included.
    allocs: u64,
    /// Whether the span belongs to the counted first pass.
    counted: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    family: &'static str,
    counted: bool,
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

/// Per-(span name, family) totals of a traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Self time over all spans, in ns.
    pub self_ns: u64,
    /// Self allocations over the counted spans.
    pub self_allocs: u64,
    /// Spans seen.
    pub spans: u64,
    /// Spans in the counted pass.
    pub counted_spans: u64,
}

impl Tracer {
    /// An empty recorder. Allocation counting is switched on for the
    /// inside of every span and off for the recorder's own bookkeeping.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            family: "",
            counted: false,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks whether the next ops belong to the counted first pass, whose
    /// work counts must repeat exactly from run to run.
    pub fn set_counted(&mut self, counted: bool) {
        self.counted = counted;
    }

    /// Runs one op of input family `family` under a root span; returns
    /// the op's result and its duration in ms.
    pub fn op<T>(&mut self, family: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.family = family;
        // A panic in an earlier op may have left spans open.
        self.open.clear();
        let id = self.begin(OP);
        let r = f(self);
        self.end(id);
        (r, self.spans[id].dur_ns() as f64 / 1e6)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Adds a deterministic work count of the current op (kept for ops of
    /// the counted pass only).
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.counted {
            *self.counts.entry((name, self.family)).or_default() += value;
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        alloc::set_counting(false);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            family: self.family,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: alloc::allocs(),
            counted: self.counted,
        });
        self.open.push(id as u32);
        alloc::set_counting(true);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    fn end(&mut self, id: usize) {
        let t = self.now_ns();
        alloc::set_counting(false);
        let a = alloc::allocs();
        let span = &mut self.spans[id];
        span.end_ns = t;
        span.allocs = a - span.allocs;
        self.open.pop();
        alloc::set_counting(true);
    }

    /// Self time and self allocations per (span name, family).
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
                child_allocs[p as usize] += s.allocs;
            }
        }
        let mut out: BTreeMap<_, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry((s.name, s.family)).or_default();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
            t.spans += 1;
            if s.counted {
                t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
                t.counted_spans += 1;
            }
        }
        out
    }

    /// The counts of the counted pass per (count name, family).
    pub fn counts(&self) -> &BTreeMap<(&'static str, &'static str), u64> {
        &self.counts
    }

    /// Every span as one JSON array (name, family, parent index, start
    /// and end in ns since the recorder was made, inclusive allocations).
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name),
                        Json::str(s.family),
                        s.parent.map_or(Json::Int(-1), |p| Json::Int(i64::from(p))),
                        Json::Int(s.start_ns as i64),
                        Json::Int(s.end_ns as i64),
                        Json::Int(s.allocs as i64),
                    ])
                })
                .collect(),
        )
    }
}
