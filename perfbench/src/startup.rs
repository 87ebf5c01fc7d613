//! `startup`: artifact load → decorated tree, what every `--cache-dir`
//! hit pays. Set-up emits every corpus artifact into memory; one op runs
//! `artifact::load_tables` then `Compiled::evaluate` on a small input.

use fnc2::analysis::AgClass;
use fnc2::artifact::{emit_tables, load_tables};
use fnc2::obs::Counters;
use fnc2::space::ObjectIndex;
use fnc2::tables::{fingerprint_source, Tables};
use fnc2::{Compiled, PhaseTimes, Pipeline, Report};
use fnc2_corpus::rng::Rng;

use crate::compile::{evaluate, front_end};
use crate::harness::{
    guarded, reference, root_output, timed, Config, RootOutput, Sample, Stopwatch, Workload,
};
use crate::sources::{sample_input, schedule, sources};
use crate::trace::Tracer;

const SALT: u64 = 0x5747_0002;

struct Item {
    family: &'static str,
    text: String,
    artifact: Vec<u8>,
    input: fnc2::ag::Tree,
    /// The class the full cascade found.
    class: Option<AgClass>,
    want: RootOutput,
}

/// The `startup` workload.
pub struct Startup {
    pipeline: Pipeline,
    items: Vec<Item>,
    schedule: Vec<usize>,
}

impl Workload for Startup {
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
                let want = reference(&compiled.grammar, &input, cfg.corrupt);
                Item {
                    family: s.family,
                    text: s.text,
                    artifact,
                    input,
                    class: (!cfg.corrupt).then_some(compiled.report.class),
                    want,
                }
            })
            .collect();
        let w = Startup {
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
        let inputs = fnc2::visit::RootInputs::new();
        let (result, ms) = guarded(|| match tr {
            None => timed(|| {
                let c = load_tables(&item.artifact, &item.text, p).ok()?;
                let (values, _) = c.evaluate(&item.input, &inputs).ok()?;
                Some((c, values))
            }),
            Some(tr) => tr.op(item.family, |tr| {
                let c = tr.span("artifact.load", |tr| {
                    load(tr, p, &item.artifact, &item.text)
                })?;
                let values = evaluate(tr, &c, &item.input)?;
                Some((c, values))
            }),
        });
        let ok = result.is_some_and(|(c, values)| {
            Some(c.report.class) == item.class
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

/// `artifact::load_tables`, replayed one public call at a time: decode,
/// the configuration and fingerprint checks, the front end, verification,
/// and assembly of the `Compiled`.
fn load(tr: &mut Tracer, p: &Pipeline, bytes: &[u8], source: &str) -> Option<Compiled> {
    let config = p.tables_config();
    let (tables, found) = tr
        .span("tables.decode", |_| Tables::from_bytes(bytes))
        .ok()?;
    if tables.config != config || found != fingerprint_source(source, &config) {
        return None;
    }
    let space = [
        tables.flat.is_some(),
        tables.lifetimes.is_some(),
        tables.space_plan.is_some(),
    ];
    if space != [config.optimize_space; 3] {
        return None;
    }
    let grammar = front_end(tr, source)?;
    tr.span("tables.verify", |_| tables.verify_against(&grammar))
        .ok()?;
    let Tables {
        classification,
        seqs,
        flat,
        lifetimes,
        space_plan,
        lint,
        ..
    } = tables;
    let lint = fnc2::lint::LintReport::new(lint);
    fnc2::lint::record_report(&lint, &mut Counters::new());
    let objects = flat.is_some().then(|| ObjectIndex::new(&grammar));
    let report = Report {
        class: classification.class,
        phyla: grammar.phylum_count(),
        operators: grammar.production_count(),
        occurrences: grammar.attr_count(),
        rules: grammar.rule_count(),
        transform: classification.l_ordered.as_ref().map(|l| l.stats.clone()),
        space: space_plan.as_ref().map(|s| s.stats.clone()),
        times: PhaseTimes::default(),
    };
    Some(Compiled {
        grammar,
        classification,
        seqs,
        flat,
        objects,
        lifetimes,
        space_plan,
        lint,
        report,
        intern: p.intern,
    })
}
