//! `compile`: OLGA source → artifact → decorated tree. One op runs
//! `Pipeline::compile_olga`, `artifact::emit_tables` and
//! `Compiled::evaluate` on the grammar's sample input.

use fnc2::ag::{Grammar, Tree};
use fnc2::analysis::classify_recorded;
use fnc2::artifact::emit_tables;
use fnc2::obs::{Counters, Key, Obs};
use fnc2::olga::ast::Unit;
use fnc2::space::{plan_storage, FlatProgram, Lifetimes, ObjectIndex};
use fnc2::tables::Tables;
use fnc2::visit::{build_visit_seqs, Evaluator, RootInputs};
use fnc2::{Compiled, PhaseTimes, Pipeline, Report};
use fnc2_corpus::rng::Rng;

use crate::harness::{
    guarded, reference, root_output, timed, Config, RootOutput, Sample, Stopwatch, Workload,
};
use crate::sources::{sample_input, schedule, sources};
use crate::trace::Tracer;

const SALT: u64 = 0xc0de_0001;

struct Item {
    family: &'static str,
    text: String,
    input: Tree,
    /// The artifact bytes of the first compile of this source in the run.
    artifact: Vec<u8>,
    /// The same, in canonical form.
    canonical: Vec<u8>,
    want: RootOutput,
}

/// The `compile` workload.
pub struct Compile {
    pipeline: Pipeline,
    items: Vec<Item>,
    schedule: Vec<usize>,
}

impl Workload for Compile {
    fn setup(cfg: &Config) -> (Self, f64) {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ SALT);
        let pipeline = Pipeline::new();
        let srcs = sources(&mut rng);
        let schedule = schedule(&srcs);
        let mut sw = Stopwatch::default();
        let items = srcs
            .into_iter()
            .map(|s| {
                let (compiled, artifact, input) = sw.time(|| {
                    let c = pipeline
                        .compile_olga(&s.text)
                        .expect("corpus source compiles");
                    let artifact = emit_tables(&c, &pipeline, &s.text);
                    let input = sample_input(s.family, &c.grammar);
                    (c, artifact, input)
                });
                let mut canonical = canonical(&artifact).expect("fresh artifact decodes");
                if cfg.corrupt {
                    canonical[0] ^= 0xff;
                }
                let want = reference(&compiled.grammar, &input, cfg.corrupt);
                Item {
                    family: s.family,
                    text: s.text,
                    input,
                    artifact,
                    canonical,
                    want,
                }
            })
            .collect();
        let w = Compile {
            pipeline,
            items,
            schedule,
        };
        (w, sw.seconds())
    }

    fn pass_len(&self) -> usize {
        self.schedule.len()
    }

    fn op(&mut self, i: usize, tr: Option<&mut Tracer>, out: &mut Vec<Sample>) {
        let item = &self.items[self.schedule[i % self.schedule.len()]];
        let p = &self.pipeline;
        let inputs = RootInputs::new();
        let (result, ms) = guarded(|| match tr {
            None => timed(|| {
                let c = p.compile_olga(&item.text).ok()?;
                let bytes = emit_tables(&c, p, &item.text);
                let (values, _) = c.evaluate(&item.input, &inputs).ok()?;
                Some((c, bytes, values))
            }),
            Some(tr) => {
                let (r, ms) = tr.op(item.family, |tr| replay(tr, p, &item.text, &item.input));
                if let Some((_, bytes, _)) = &r {
                    tr.count("tables.identical", u64::from(*bytes == item.artifact));
                }
                (r, ms)
            }
        });
        // The traced replay is checked against `emit_tables(compile_olga(..))`
        // like the untraced path, which makes a replay that drifts from the
        // pipeline fail the run.
        let ok = result.is_some_and(|(c, bytes, values)| {
            canonical(&bytes).is_some_and(|b| b == item.canonical)
                && root_output(&c.grammar, &item.input, &values) == item.want
        });
        out.push(Sample {
            family: item.family,
            ms,
            raw_ms: ms,
            ok,
        });
    }
}

/// `bytes` re-encoded with the stacks popped after each step in ascending
/// order. The storage planner lists them in hash-map order, which varies
/// from one compile of a source to the next; popping distinct stacks in
/// another order has no effect, so ops compare artifacts in this form and
/// the traced run reports byte identity on its own
/// (`tables.identical_ratio`).
fn canonical(bytes: &[u8]) -> Option<Vec<u8>> {
    let (mut tables, _) = Tables::from_bytes(bytes).ok()?;
    if let Some(plan) = &mut tables.space_plan {
        for access in plan.access.values_mut() {
            for step in &mut access.steps {
                step.pops_after.sort_unstable();
            }
        }
    }
    Some(tables.to_bytes())
}

/// The OLGA front end, one public call per span: parse, check, lower.
pub fn front_end(tr: &mut Tracer, source: &str) -> Option<Grammar> {
    let units = tr
        .span("olga.parse", |_| fnc2::olga::parse_units(source))
        .ok()?;
    let checked = tr.span("olga.check", |_| {
        let mut compiler = fnc2::olga::Compiler::new();
        let mut ag = None;
        for unit in units {
            match unit {
                Unit::Module(m) => compiler.add_module(m).ok()?,
                Unit::Ag(a) if ag.is_none() => ag = Some(a),
                Unit::Ag(_) => return None,
            }
        }
        compiler.check_ag(ag?).ok()
    })?;
    let (grammar, _) = tr
        .span("olga.lower", |_| fnc2::olga::lower(&checked))
        .ok()?;
    Some(grammar)
}

/// `compile_olga` → `emit_tables` → `evaluate`, replayed one public call
/// at a time in the order `Pipeline::compile_recorded` makes them.
fn replay(
    tr: &mut Tracer,
    p: &Pipeline,
    source: &str,
    input: &Tree,
) -> Option<(Compiled, Vec<u8>, fnc2::ag::AttrValues)> {
    let grammar = front_end(tr, source)?;
    let mut obs = Obs::new();
    let classification = tr
        .span("analysis.classify", |_| {
            classify_recorded(&grammar, p.max_oag_k, p.inclusion, &mut obs)
        })
        .ok()?;
    tr.count(
        "gfa.fixpoint.steps",
        obs.metrics.counter("gfa.fixpoint.steps"),
    );
    let lo = classification.l_ordered.as_ref()?;
    let lint = tr.span("lint", |_| {
        fnc2::lint::lint_grammar_recorded(&grammar, Some(&classification), &mut obs)
    });
    let seqs = tr.span("visit.seqs", |_| build_visit_seqs(&grammar, lo));
    let flat = tr.span("space.flat", |_| FlatProgram::new(&grammar, &seqs));
    let objects = tr.span("space.objects", |_| ObjectIndex::new(&grammar));
    let lifetimes = tr.span("space.lifetimes", |_| {
        Lifetimes::analyze(&grammar, &seqs, &flat, &objects)
    });
    let plan = tr.span("space.plan", |_| {
        plan_storage(&grammar, &seqs, &flat, &objects, &lifetimes)
    });
    tr.count(
        "space.plan.copies_eliminated",
        plan.stats.copies_eliminated as u64,
    );
    let report = Report {
        class: classification.class,
        phyla: grammar.phylum_count(),
        operators: grammar.production_count(),
        occurrences: grammar.attr_count(),
        rules: grammar.rule_count(),
        transform: classification.l_ordered.as_ref().map(|l| l.stats.clone()),
        space: Some(plan.stats.clone()),
        times: PhaseTimes::default(),
    };
    let compiled = Compiled {
        grammar,
        classification,
        seqs,
        flat: Some(flat),
        objects: Some(objects),
        lifetimes: Some(lifetimes),
        space_plan: Some(plan),
        lint,
        report,
        intern: p.intern,
    };
    let bytes = tr.span("tables.encode", |_| emit_tables(&compiled, p, source));
    tr.count("tables.artifact_bytes", bytes.len() as u64);
    let values = evaluate(tr, &compiled, input)?;
    Some((compiled, bytes, values))
}

/// `Compiled::evaluate`, replayed: evaluator construction, then the
/// recorded evaluation.
pub fn evaluate(tr: &mut Tracer, c: &Compiled, input: &Tree) -> Option<fnc2::ag::AttrValues> {
    let ev = tr.span("visit.program", |_| {
        Evaluator::new(&c.grammar, &c.seqs).with_interning(c.intern)
    });
    let mut counters = Counters::new();
    let (values, _) = tr
        .span("visit.eval", |_| {
            ev.evaluate_recorded(input, &RootInputs::new(), &mut counters)
        })
        .ok()?;
    count_eval(tr, &counters);
    Some(values)
}

/// Records the evaluator and interning counts of one evaluation.
pub fn count_eval(tr: &mut Tracer, c: &Counters) {
    for (name, key) in [
        ("eval.evals", Key::EvalEvals),
        ("eval.copies", Key::EvalCopies),
        ("space.max_live_cells", Key::SpaceMaxLiveCells),
        ("eval.intern_hits", Key::EvalInternHits),
        ("eval.intern_misses", Key::EvalInternMisses),
        ("ag.memo_hits", Key::EvalMemoHits),
    ] {
        tr.count(name, c.get(key));
    }
}
