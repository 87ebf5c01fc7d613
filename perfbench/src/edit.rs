//! `edit`: edit script → re-decorated tree. Set-up builds an
//! `IncrementalEvaluator` over a seeded mini-Pascal program; one op is
//! one wave of a seeded script of three edit kinds: a literal change, an
//! operator swap, and a declaration type swap.

use fnc2::ag::{Grammar, NodeId, ProductionId, Tree, TreeBuilder, Value};
use fnc2::incremental::IncrementalEvaluator;
use fnc2::obs::{Counters, Key};
use fnc2::Pipeline;
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{parse_minipascal, MINIPASCAL_OLGA};

use crate::harness::{guarded, reference, timed, Config, RootOutput, Sample, Stopwatch, Workload};
use crate::trace::Tracer;

const SALT: u64 = 0xed17_0004;

/// Statement blocks of the programs of a run. The sizes are equal so that
/// the seed varies what the programs say, not how much work they are, and
/// there are eight programs to average out what one program's content
/// does to the cost of a local edit.
const BLOCKS: [usize; 8] = [25; 8];
const PROGRAMS: usize = BLOCKS.len();

/// The productions the script swaps, in pairs.
struct Prods {
    elit: ProductionId,
    pairs: [(ProductionId, ProductionId); 3],
}

impl Prods {
    fn new(g: &Grammar) -> Prods {
        let p = |n: &str| g.production_by_name(n).expect("mini-Pascal operator");
        Prods {
            elit: p("elit"),
            pairs: [
                (p("eadd"), p("esub")),
                (p("elt"), p("eeq")),
                (p("tint"), p("tbool")),
            ],
        }
    }

    /// The edit kind that targets nodes of production `p`, if any.
    fn kind(&self, p: ProductionId) -> Option<usize> {
        if p == self.elit {
            return Some(0);
        }
        let pair = self.pairs.iter().position(|&(a, b)| p == a || p == b)?;
        Some(if pair == 2 { 2 } else { 1 })
    }

    /// The other production of `p`'s pair.
    fn partner(&self, p: ProductionId) -> Option<ProductionId> {
        self.pairs.iter().find_map(|&(a, b)| {
            if p == a {
                Some(b)
            } else if p == b {
                Some(a)
            } else {
                None
            }
        })
    }
}

/// A seeded permutation of the targets of one edit kind in one program,
/// dealt in turn across that program's sessions, so that every target is
/// edited equally often whatever the seed.
#[derive(Default)]
struct Deck {
    order: Vec<usize>,
    at: usize,
}

impl Deck {
    fn draw(&mut self, rng: &mut Rng, targets: usize) -> usize {
        if self.at == self.order.len() {
            self.order = (0..targets).collect();
            rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// The `edit` workload.
pub struct Edit {
    grammar: &'static Grammar,
    programs: Vec<String>,
    inc: IncrementalEvaluator<'static>,
    prods: Prods,
    rng: Rng,
    /// Edit targets per kind: literal leaves, binary operators, types.
    targets: [Vec<NodeId>; 3],
    /// Per program, the decks the targets of each kind are drawn from.
    decks: Vec<[Deck; 3]>,
    /// The edit kinds of the current session, in the order they run.
    kinds: Vec<usize>,
    /// Sessions started.
    sessions: usize,
    /// First sample of the session the next check covers.
    window: usize,
    corrupt: bool,
}

const KINDS: [&str; 3] = ["literal", "operator", "type"];

/// One edit of the script.
enum Change {
    /// Replace a literal leaf with `leaf`, child `slot` of `parent`.
    Literal {
        leaf: Tree,
        parent: NodeId,
        slot: usize,
    },
    /// Swap the production at the target for its partner.
    Swap(ProductionId),
}

impl Edit {
    /// Draws the order of the next session's edit kinds.
    ///
    /// A session swaps the type of every per-block variable of its program
    /// once and makes as many literal changes and as many operator swaps, in
    /// a seeded order, so that every session of a program does the same mix
    /// of work whatever the seed. Sessions take the programs in turn, and
    /// each starts from its program as set up: the evaluator's intern table
    /// keeps every value it has seen (about 1 MB per wave on these
    /// programs), so sessions of fixed content keep `peak_rss_mb`
    /// independent of how many waves fit in a run. Each session ends with a
    /// check against a fresh demand-driven evaluation; one session per
    /// program is a pass.
    fn plan_session(&mut self) {
        let swaps = BLOCKS[(self.sessions - 1) % PROGRAMS];
        self.kinds = (0..KINDS.len() * swaps).map(|i| i % KINDS.len()).collect();
        self.rng.shuffle(&mut self.kinds);
    }
}

/// A well-typed mini-Pascal program of `blocks` statement blocks in the
/// shape of `fnc2_corpus::sample_program`, with seeded literals, arithmetic
/// and comparison operators.
fn program(rng: &mut Rng, blocks: usize) -> String {
    let mut out =
        String::from("program edit;\nvar n : integer;\nvar acc : integer;\nvar flag : boolean;\n");
    for i in 0..blocks {
        out.push_str(&format!("var x{i} : integer;\n"));
    }
    out.push_str(&format!(
        "begin\n  n := {};\n  acc := 0;\n  flag := true",
        rng.gen_range(50, 150)
    ));
    for i in 0..blocks {
        let arith = *rng.choose(&["*", "+", "-"]);
        let sign = *rng.choose(&["+", "-"]);
        let cmp = *rng.choose(&["<", "="]);
        let (a, b, c) = (
            rng.gen_range(0, 99),
            rng.gen_range(0, 99),
            rng.gen_range(0, 9),
        );
        out.push_str(&format!(
            ";\n  x{i} := n {arith} {a} {sign} acc;\n  if x{i} {cmp} n then acc := acc {sign} x{i} else acc := acc - {b} end;\n  while {c} < n do n := n - 1; acc := acc + 1 end;\n  write acc"
        ));
    }
    out.push_str("\nend.\n");
    out
}

/// Parses `program` and decorates it: the start of a session.
fn start(
    grammar: &'static Grammar,
    prods: &Prods,
    program: &str,
) -> (IncrementalEvaluator<'static>, [Vec<NodeId>; 3]) {
    let tree = parse_minipascal(grammar, program).expect("program parses");
    let inc = IncrementalEvaluator::new(grammar, tree, Default::default());
    let inc = inc.expect("initial decoration");
    let tree = inc.tree();
    let mut targets: [Vec<NodeId>; 3] = Default::default();
    for (n, _) in tree.preorder() {
        match prods.kind(tree.node(n).production()) {
            // Type swaps take the per-block variables `x{i}`: `n`, `acc` and
            // `flag` are used by every block, and a swap of one of them
            // costs ten times more, a handful of edits whose place in the
            // tail would decide `latency_ms.p99` alone.
            Some(2) => {
                let decl = tree.node(n).parent().expect("types sit under declarations");
                let name = tree.node(decl).token().map(Value::as_str);
                if name.is_some_and(|v| v.starts_with('x')) {
                    targets[2].push(n);
                }
            }
            Some(kind) => targets[kind].push(n),
            None => {}
        }
    }
    (inc, targets)
}

impl Workload for Edit {
    fn setup(cfg: &Config) -> (Self, f64) {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ SALT);
        let programs: Vec<String> = BLOCKS.iter().map(|&b| program(&mut rng, b)).collect();
        let mut sw = Stopwatch::default();
        let compiled = sw.time(|| Pipeline::new().compile_olga(MINIPASCAL_OLGA));
        // The evaluator borrows the grammar for the rest of the process;
        // one small grammar leaks per set-up.
        let grammar: &'static Grammar =
            Box::leak(Box::new(compiled.expect("corpus source compiles").grammar));
        let prods = Prods::new(grammar);
        let (inc, targets) = sw.time(|| start(grammar, &prods, &programs[0]));
        let mut w = Edit {
            grammar,
            programs,
            inc,
            prods,
            rng,
            targets,
            decks: (0..PROGRAMS).map(|_| Default::default()).collect(),
            kinds: Vec::new(),
            sessions: 1,
            window: 0,
            corrupt: cfg.corrupt,
        };
        w.plan_session();
        (w, sw.seconds())
    }

    fn pass_len(&self) -> usize {
        KINDS.len() * BLOCKS.iter().sum::<usize>()
    }

    fn op(&mut self, _i: usize, tr: Option<&mut Tracer>, out: &mut Vec<Sample>) {
        if self.kinds.is_empty() {
            self.finish(out);
            let program = &self.programs[self.sessions % PROGRAMS];
            (self.inc, self.targets) = start(self.grammar, &self.prods, program);
            self.sessions += 1;
            self.plan_session();
        }
        let kind = self.kinds.pop().expect("planned session");
        let deck = &mut self.decks[(self.sessions - 1) % PROGRAMS][kind];
        let j = deck.draw(&mut self.rng, self.targets[kind].len());
        let at = self.targets[kind][j];
        let tree = self.inc.tree();
        let g = self.grammar;
        let change = if kind == 0 {
            let parent = tree.node(at).parent().expect("literals have parents");
            // `child_index` is 1-based.
            let slot = tree.child_index(at).expect("literals are children") - 1;
            let mut tb = TreeBuilder::new(g);
            let value = Value::Int(self.rng.gen_range(0, 999));
            let leaf = tb
                .node_with_token(self.prods.elit, &[], Some(value))
                .expect("literal leaf");
            Change::Literal {
                leaf: tb.finish(leaf),
                parent,
                slot,
            }
        } else {
            let p = tree.node(at).production();
            Change::Swap(self.prods.partner(p).expect("swappable operator"))
        };
        let inc = &mut self.inc;
        let (stats, ms) = match tr {
            None => guarded(|| {
                let (r, ms) = timed(|| match &change {
                    Change::Literal { leaf, .. } => inc.replace_subtree(at, leaf),
                    Change::Swap(p) => inc.swap_production(at, *p),
                });
                (r.ok(), ms)
            }),
            Some(tr) => guarded(|| {
                let (r, ms) = tr.op(KINDS[kind], |tr| {
                    let mut c = Counters::new();
                    let r = tr.span("incremental.wave", |_| match &change {
                        Change::Literal { leaf, .. } => {
                            inc.replace_subtrees_recorded(vec![(at, leaf.clone())], &mut c)
                        }
                        Change::Swap(p) => inc.swap_production_recorded(at, *p, &mut c),
                    });
                    for (name, key) in [
                        ("inc.reevaluated", Key::IncReevaluated),
                        ("inc.unchanged", Key::IncUnchanged),
                        ("eval.intern_hits", Key::EvalInternHits),
                        ("eval.intern_misses", Key::EvalInternMisses),
                        ("ag.memo_hits", Key::EvalMemoHits),
                    ] {
                        tr.count(name, c.get(key));
                    }
                    r
                });
                (r.ok(), ms)
            }),
        };
        if let Change::Literal { parent, slot, .. } = change {
            self.targets[0][j] = self.inc.tree().node(parent).children()[slot];
        }
        out.push(Sample {
            family: KINDS[kind],
            ms,
            raw_ms: ms,
            ok: stats.is_some(),
        });
    }

    /// Compares the root attributes with a fresh demand-driven run on the
    /// current tree; a mismatch fails every wave of the session.
    fn finish(&mut self, out: &mut Vec<Sample>) {
        let tree = self.inc.tree();
        let want = reference(self.grammar, tree, self.corrupt);
        let got: RootOutput = self
            .grammar
            .synthesized(self.grammar.root())
            .into_iter()
            .map(|a| self.inc.value(tree.root(), a).cloned())
            .collect();
        if got != want {
            for s in &mut out[self.window..] {
                s.ok = false;
            }
        }
        self.window = out.len();
    }
}
