//! The OLGA sources of the `compile` and `startup` workloads and the
//! sample input each grammar is evaluated on.

use fnc2::ag::{Grammar, Tree, TreeBuilder, Value};
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{
    blocks_tree_generic, parse_minipascal, sample_program, sized_ag_source, BLOCKS_OLGA_LIST,
    DESK_OLGA, MINIPASCAL_OLGA,
};

use crate::harness::stratified;

/// Sized AGs per run; their line counts are drawn from one stratum each.
const SIZED: usize = 12;
const SIZED_LINES: (usize, usize) = (200, 2500);

/// One OLGA source of the corpus.
#[derive(Debug)]
pub struct Source {
    /// Input family: `minipascal`, `blocks`, `desk` or `sized`.
    pub family: &'static str,
    /// The OLGA text.
    pub text: String,
}

/// The corpus of a run: the three hand-written AGs, then `SIZED`
/// generated ones whose line counts the seed draws.
pub fn sources(rng: &mut Rng) -> Vec<Source> {
    let mut out = vec![
        Source {
            family: "minipascal",
            text: MINIPASCAL_OLGA.to_string(),
        },
        Source {
            family: "blocks",
            text: BLOCKS_OLGA_LIST.to_string(),
        },
        Source {
            family: "desk",
            text: DESK_OLGA.to_string(),
        },
    ];
    let (lo, hi) = SIZED_LINES;
    for (j, lines) in stratified(rng, SIZED, lo, hi).into_iter().enumerate() {
        out.push(Source {
            family: "sized",
            text: sized_ag_source(&format!("sized{j}"), lines),
        });
    }
    out
}

/// Mini-Pascal ops in one pass; blocks and desk take one op each and the
/// sized AGs one op per AG.
///
/// The weights put each reported percentile inside one cluster of like
/// ops instead of on the edge between two, where it would jump from run
/// to run. A pass of 45 ops, 31 of them mini-Pascal, puts
/// `latency_ms.p50` near the middle of the mini-Pascal ops (the sized AGs
/// below them nearly balance those above), `latency_ms.p90` (rank 40.5)
/// in the middle of the fifth-largest sized AG and `latency_ms.p99`
/// (rank 44.55) within the largest one.
const MINIPASCAL_OPS: usize = 31;

/// The op order over `sources`: one pass does every op once, with the
/// sized AGs, blocks and desk spread evenly among the mini-Pascal ops.
pub fn schedule(sources: &[Source]) -> Vec<usize> {
    let of = |family: &str| -> Vec<usize> {
        (0..sources.len())
            .filter(|&i| sources[i].family == family)
            .collect()
    };
    let mut spread = of("sized");
    spread.insert(spread.len() / 3, of("blocks")[0]);
    spread.insert(2 * spread.len() / 3, of("desk")[0]);
    let len = spread.len() + MINIPASCAL_OPS;
    let mut pass = vec![of("minipascal")[0]; len];
    for (j, &i) in spread.iter().enumerate() {
        pass[(2 * j + 1) * len / (2 * spread.len())] = i;
    }
    pass
}

/// The small sample input of a family's grammar.
///
/// # Panics
///
/// Panics if the corpus grammar rejects its own sample (a corpus bug).
pub fn sample_input(family: &str, g: &Grammar) -> Tree {
    match family {
        "minipascal" => parse_minipascal(g, &sample_program(3)).expect("sample program parses"),
        "blocks" => blocks_tree_generic(g, "d:a d:b u:a [ d:c u:c u:b ] u:d"),
        "desk" => desk_tree(g),
        _ => fnc2::smoke_tree(g).expect("sized AGs derive a finite tree"),
    }
}

/// `let x = lit"abc" in x + lit"ab" * 0`.
fn desk_tree(g: &Grammar) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let p = |name: &str| g.production_by_name(name).expect("desk operator");
    let leaf = |tb: &mut TreeBuilder, name: &str, tok: &str| {
        tb.node_with_token(p(name), &[], Some(Value::str(tok)))
            .expect("desk leaf")
    };
    let abc = leaf(&mut tb, "lit", "abc");
    let x = leaf(&mut tb, "var", "x");
    let ab = leaf(&mut tb, "lit", "ab");
    let zero = tb.op("zero", &[]).expect("desk zero");
    let mul = tb.op("mul", &[ab, zero]).expect("desk mul");
    let add = tb.op("add", &[x, mul]).expect("desk add");
    let letx = tb
        .node_with_token(p("letx"), &[abc, add], Some(Value::str("x")))
        .expect("desk let");
    let prog = tb.op("prog", &[letx]).expect("desk prog");
    tb.finish_root(prog).expect("desk tree")
}
