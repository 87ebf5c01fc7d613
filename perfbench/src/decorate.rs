//! `decorate`: one op decorates one tree of a seeded pool, alternating
//! `Compiled::evaluate` and `Compiled::evaluate_optimized` with pipeline
//! defaults. The pool mixes value-heavy mini-Pascal programs and blocks
//! scope inputs with dispatch-heavy synthetic trees.

use fnc2::ag::Tree;
use fnc2::artifact::{emit_tables, load_tables};
use fnc2::obs::Counters;
use fnc2::space::SpaceEvaluator;
use fnc2::visit::RootInputs;
use fnc2::{Compiled, Pipeline};
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{
    blocks_tree_generic, parse_minipascal, sample_program, synthetic, synthetic_tree,
    BLOCKS_OLGA_LIST, MINIPASCAL_OLGA, TABLE1_PROFILES,
};

use crate::compile::{count_eval, evaluate};
use crate::harness::{
    guarded, reference, root_output, stratified, timed, Config, RootOutput, Sample, Stopwatch,
    Workload,
};
use crate::trace::Tracer;

const SALT: u64 = 0xdec0_0003;

/// Pool size and size range per family: mini-Pascal statement blocks,
/// blocks items, synthetic nodes. Chosen so that neither the mini-Pascal
/// nor the synthetic family takes more than about 2/3 of evaluation time.
const MINIPASCAL: (usize, usize, usize) = (24, 4, 30);
const BLOCKS: (usize, usize, usize) = (24, 50, 300);
const SYNTHETIC: (usize, usize, usize) = (24, 2000, 20000);

/// The two Table 1 profiles of the synthetic family (OAG(0) and OAG(1)).
const PROFILES: [usize; 2] = [0, 6];

struct Input {
    family: &'static str,
    grammar: usize,
    tree: Tree,
    want: RootOutput,
}

/// The `decorate` workload.
pub struct Decorate {
    grammars: Vec<Compiled>,
    pool: Vec<Input>,
}

impl Workload for Decorate {
    fn setup(cfg: &Config) -> (Self, f64) {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ SALT);
        let pipeline = Pipeline::new();
        let mut sw = Stopwatch::default();
        let mut grammars: Vec<Compiled> = sw.time(|| {
            [MINIPASCAL_OLGA, BLOCKS_OLGA_LIST]
                .into_iter()
                .map(|src| {
                    let c = pipeline.compile_olga(src).expect("corpus source compiles");
                    let bytes = emit_tables(&c, &pipeline, src);
                    load_tables(&bytes, src, &pipeline).expect("fresh artifact loads")
                })
                .collect()
        });
        for &p in &PROFILES {
            let c = sw.time(|| pipeline.compile(synthetic(&TABLE1_PROFILES[p])));
            grammars.push(c.expect("synthetic profile compiles"));
        }

        let mut trees: Vec<(&'static str, usize, Tree)> = Vec::new();
        let (n, lo, hi) = MINIPASCAL;
        for k in stratified(&mut rng, n, lo, hi) {
            let tree = sw.time(|| parse_minipascal(&grammars[0].grammar, &sample_program(k)));
            trees.push(("minipascal", 0, tree.expect("sample program parses")));
        }
        let (n, lo, hi) = BLOCKS;
        for items in stratified(&mut rng, n, lo, hi) {
            let spec = blocks_spec(&mut rng, items);
            let tree = sw.time(|| blocks_tree_generic(&grammars[1].grammar, &spec));
            trees.push(("blocks", 1, tree));
        }
        let (n, lo, hi) = SYNTHETIC;
        for (j, nodes) in stratified(&mut rng, n, lo, hi).into_iter().enumerate() {
            let g = 2 + j % PROFILES.len();
            let profile = &TABLE1_PROFILES[PROFILES[j % PROFILES.len()]];
            let seed = rng.next_u64();
            let tree = sw.time(|| synthetic_tree(&grammars[g].grammar, profile, nodes, seed));
            trees.push(("synthetic", g, tree));
        }
        rng.shuffle(&mut trees);
        let pool = trees
            .into_iter()
            .map(|(family, grammar, tree)| Input {
                family,
                grammar,
                want: reference(&grammars[grammar].grammar, &tree, cfg.corrupt),
                tree,
            })
            .collect();
        (Decorate { grammars, pool }, sw.seconds())
    }

    fn pass_len(&self) -> usize {
        2 * self.pool.len()
    }

    fn op(&mut self, i: usize, tr: Option<&mut Tracer>, out: &mut Vec<Sample>) {
        let n = self.pool.len();
        let input = &self.pool[i % n];
        // Tree k takes the two evaluators in turn from pass to pass, and
        // consecutive ops alternate within a pass.
        let optimized = (i / n + i % n) % 2 == 1;
        let c = &self.grammars[input.grammar];
        let (g, tree) = (&c.grammar, &input.tree);
        let inputs = RootInputs::new();
        let (root, ms) = match (tr, optimized) {
            (None, false) => guarded(|| {
                let (r, ms) = timed(|| c.evaluate(tree, &inputs));
                (r.ok().map(|(v, _)| root_output(g, tree, &v)), ms)
            }),
            (None, true) => guarded(|| {
                let (r, ms) = timed(|| c.evaluate_optimized(tree, &inputs));
                (r.ok().map(|o| root_output(g, tree, &o.node_values)), ms)
            }),
            (Some(tr), false) => guarded(|| {
                let (r, ms) = tr.op(input.family, |tr| evaluate(tr, c, tree));
                (r.map(|v| root_output(g, tree, &v)), ms)
            }),
            (Some(tr), true) => guarded(|| {
                let (r, ms) = tr.op(input.family, |tr| {
                    let fp = c.flat.as_ref()?;
                    let plan = c.space_plan.as_ref()?;
                    let ev = tr.span("space.program", |_| {
                        SpaceEvaluator::new(g, &c.seqs, fp, plan).with_interning(c.intern)
                    });
                    let mut counters = Counters::new();
                    let outcome = tr
                        .span("space.eval", |_| {
                            ev.evaluate_recorded(tree, &inputs, &mut counters)
                        })
                        .ok()?;
                    count_eval(tr, &counters);
                    Some(outcome)
                });
                (r.map(|o| root_output(g, tree, &o.node_values)), ms)
            }),
        };
        out.push(Sample {
            family: input.family,
            ms,
            raw_ms: ms,
            ok: root.is_some_and(|r| r == input.want),
        });
    }
}

/// A blocks scope input of `items` items: declarations and uses of names
/// from a small pool, with nested blocks up to depth 4.
fn blocks_spec(rng: &mut Rng, items: usize) -> String {
    let mut spec = String::new();
    let mut depth = 0;
    for _ in 0..items {
        let r = rng.gen_usize(0, 99);
        let name = rng.gen_usize(0, 63);
        if r < 4 && depth < 4 {
            spec.push_str("[ ");
            depth += 1;
        } else if r < 8 && depth > 0 {
            spec.push_str("] ");
            depth -= 1;
        } else if r < 45 {
            spec.push_str(&format!("d:v{name} "));
        } else {
            spec.push_str(&format!("u:v{name} "));
        }
    }
    spec.push_str(&"] ".repeat(depth));
    spec
}
