//! The metric vocabulary of `BENCHMARK.json` and how a run computes it.

use std::collections::BTreeMap;

use fnc2::obs::Json;

use crate::harness::Sample;
use crate::trace::{Totals, Tracer, OP};

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("latency_ms.p99", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Layer spans and the metric of their mean self time per op.
const LAYER_TIMES: [(&str, &str); 19] = [
    ("olga.parse", "olga.parse_ms"),
    ("olga.check", "olga.check_ms"),
    ("olga.lower", "olga.lower_ms"),
    ("analysis.classify", "analysis.classify_ms"),
    ("lint", "lint.ms"),
    ("visit.seqs", "visit.seqs_ms"),
    ("visit.program", "visit.program_ms"),
    ("visit.eval", "visit.eval_ms"),
    ("space.flat", "space.flat_ms"),
    ("space.objects", "space.objects_ms"),
    ("space.lifetimes", "space.lifetimes_ms"),
    ("space.plan", "space.plan_ms"),
    ("space.program", "space.program_ms"),
    ("space.eval", "space.eval_ms"),
    ("tables.encode", "tables.encode_ms"),
    ("tables.decode", "tables.decode_ms"),
    ("tables.verify", "tables.verify_ms"),
    ("artifact.load", "artifact.load_ms"),
    ("incremental.wave", "incremental.wave_ms"),
];

/// Layer spans and the metric of their self allocation calls per op of
/// the counted pass.
const LAYER_ALLOCS: [(&str, &str); 4] = [
    ("space.plan", "space.plan.allocs"),
    ("visit.eval", "visit.eval.allocs"),
    ("space.eval", "space.eval.allocs"),
    ("incremental.wave", "incremental.wave.allocs"),
];

/// Work counts per op of the counted pass: (metric, unit).
const COUNTS: [(&str, &str); 8] = [
    ("gfa.fixpoint.steps", "count/op"),
    ("eval.evals", "count/op"),
    ("eval.copies", "count/op"),
    ("space.plan.copies_eliminated", "count/op"),
    ("space.max_live_cells", "count/op"),
    ("tables.artifact_bytes", "bytes/op"),
    ("ag.memo_hits", "count/op"),
    ("inc.reevaluated", "count/op"),
];

/// The decorate input families that get their own per-layer metrics.
const FAMILIES: [&str; 3] = ["minipascal", "blocks", "synthetic"];

/// The per-family subset of the layer metrics.
const FAMILY_TIMES: [&str; 4] = ["visit.program", "visit.eval", "space.program", "space.eval"];
const FAMILY_ALLOCS: [&str; 2] = ["visit.eval", "space.eval"];
const FAMILY_COUNTS: [&str; 4] = [
    "eval.evals",
    "eval.copies",
    "space.max_live_cells",
    "ag.memo_hits",
];

/// Per-layer metrics: (name, unit), in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    out.extend(LAYER_TIMES.iter().map(|&(_, m)| (m.to_string(), "ms")));
    out.extend(
        LAYER_ALLOCS
            .iter()
            .map(|&(_, m)| (m.to_string(), "count/op")),
    );
    out.extend(COUNTS.iter().map(|&(m, u)| (m.to_string(), u)));
    out.push(("ag.intern_hit_ratio".into(), "ratio"));
    out.push(("inc.cut_ratio".into(), "ratio"));
    out.push(("tables.identical_ratio".into(), "ratio"));
    for f in FAMILIES {
        for s in FAMILY_TIMES {
            out.push((format!("{}.{f}", time_metric(s)), "ms"));
        }
        for s in FAMILY_ALLOCS {
            out.push((format!("{}.{f}", alloc_metric(s)), "count/op"));
        }
        for c in FAMILY_COUNTS {
            out.push((format!("{c}.{f}"), "count/op"));
        }
        out.push((format!("ag.intern_hit_ratio.{f}"), "ratio"));
    }
    out.push(("trace.coverage".into(), "ratio"));
    out.push(("trace.overhead_ms".into(), "ms"));
    out.push(("trace.ops".into(), "count"));
    out
}

fn time_metric(span: &str) -> &'static str {
    LAYER_TIMES
        .iter()
        .find(|(s, _)| *s == span)
        .expect("listed span")
        .1
}

fn alloc_metric(span: &str) -> &'static str {
    LAYER_ALLOCS
        .iter()
        .find(|(s, _)| *s == span)
        .expect("listed span")
        .1
}

/// A metric value with its unit, as the result line prints it.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))])
}

/// The `q` quantile by nearest rank, with the count of samples beyond it.
fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The latency percentiles of `samples`: (metric, ms, samples beyond).
pub fn latencies(samples: &[Sample]) -> Vec<(&'static str, f64, usize)> {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    ms.sort_by(f64::total_cmp);
    [
        ("latency_ms.p50", 0.5),
        ("latency_ms.p90", 0.9),
        ("latency_ms.p99", 0.99),
    ]
    .into_iter()
    .map(|(name, q)| {
        let (v, beyond) = percentile(&ms, q);
        (name, v, beyond)
    })
    .collect()
}

/// The per-layer metrics of a traced phase, by name.
pub fn layer_values(tr: &Tracer, overhead_ms: f64) -> BTreeMap<String, f64> {
    let totals = tr.totals();
    // Totals of span `name` over one family, or over all of them.
    let of = |name: &str, fam: Option<&str>| -> Totals {
        let mut sum = Totals::default();
        for ((n, f), t) in &totals {
            if *n == name && fam.is_none_or(|x| x == *f) {
                sum.self_ns += t.self_ns;
                sum.self_allocs += t.self_allocs;
                sum.spans += t.spans;
                sum.counted_spans += t.counted_spans;
            }
        }
        sum
    };
    let count = |name: &str, fam: Option<&str>| -> u64 {
        tr.counts()
            .iter()
            .filter(|((n, f), _)| *n == name && fam.is_none_or(|x| x == *f))
            .map(|(_, v)| v)
            .sum()
    };
    let per = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let hit_ratio = |fam: Option<&str>| {
        let hits = count("eval.intern_hits", fam);
        per(hits, hits + count("eval.intern_misses", fam))
    };

    let ops = of(OP, None);
    let mut out = BTreeMap::new();
    for (span, m) in LAYER_TIMES {
        out.insert(m.to_string(), per(of(span, None).self_ns, ops.spans) / 1e6);
    }
    for (span, m) in LAYER_ALLOCS {
        out.insert(
            m.to_string(),
            per(of(span, None).self_allocs, ops.counted_spans),
        );
    }
    for (m, _) in COUNTS {
        out.insert(m.to_string(), per(count(m, None), ops.counted_spans));
    }
    out.insert("ag.intern_hit_ratio".into(), hit_ratio(None));
    out.insert(
        "inc.cut_ratio".into(),
        per(count("inc.unchanged", None), count("inc.reevaluated", None)),
    );
    out.insert(
        "tables.identical_ratio".into(),
        per(count("tables.identical", None), ops.counted_spans),
    );
    for f in FAMILIES {
        let fam_ops = of(OP, Some(f));
        for s in FAMILY_TIMES {
            let v = per(of(s, Some(f)).self_ns, fam_ops.spans) / 1e6;
            out.insert(format!("{}.{f}", time_metric(s)), v);
        }
        for s in FAMILY_ALLOCS {
            let v = per(of(s, Some(f)).self_allocs, fam_ops.counted_spans);
            out.insert(format!("{}.{f}", alloc_metric(s)), v);
        }
        for c in FAMILY_COUNTS {
            let v = per(count(c, Some(f)), fam_ops.counted_spans);
            out.insert(format!("{c}.{f}"), v);
        }
        out.insert(format!("ag.intern_hit_ratio.{f}"), hit_ratio(Some(f)));
    }
    // Every span lies inside an op, so all self times add up to the ops'
    // total duration.
    let all_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    out.insert("trace.coverage".into(), 1.0 - per(ops.self_ns, all_ns));
    out.insert("trace.overhead_ms".into(), overhead_ms);
    out.insert("trace.ops".into(), ops.spans as f64);
    out
}
