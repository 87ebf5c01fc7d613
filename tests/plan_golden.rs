//! Plan-identity golden test for the §2.2 storage planner.
//!
//! For every corpus grammar and two sized OLGA AGs, the storage plan the
//! default pipeline computes is rendered as text — variable and stack
//! counts, the sorted set of eliminated copies, the full `SpaceStats` and
//! the storage of every object — and compared with a committed golden
//! file. Any change to what the planner decides shows up here, however the
//! planner computes it.

use fnc2::ag::{Grammar, ONode};
use fnc2::space::{ObjectIndex, SpacePlan, Storage};
use fnc2::{Compiled, Pipeline};
use fnc2_corpus as corpus;

fn render(grammar: &Grammar, objects: &ObjectIndex, plan: &SpacePlan) -> String {
    let mut out = String::new();
    out.push_str(&format!("n_variables {}\n", plan.n_variables));
    out.push_str(&format!("n_stacks {}\n", plan.n_stacks));
    out.push_str(&format!("stats {:?}\n", plan.stats));
    let mut eliminated: Vec<(fnc2::ag::ProductionId, ONode)> =
        plan.eliminated.iter().copied().collect();
    eliminated.sort();
    out.push_str(&format!("eliminated {}\n", eliminated.len()));
    for (p, target) in eliminated {
        let prod = grammar.production(p);
        let node = match target {
            ONode::Attr(occ) => format!("{}.{}", occ.pos, grammar.attr(occ.attr).name()),
            ONode::Local(l) => format!("local {}", prod.locals()[l.index()].name()),
        };
        out.push_str(&format!("  {} {}\n", prod.name(), node));
    }
    out.push_str(&format!("storage {}\n", plan.storage.len()));
    for (oi, s) in plan.storage.iter().enumerate() {
        let at = match s {
            Storage::Variable(id) => format!("V{id}"),
            Storage::Stack(id) => format!("S{id}"),
            Storage::Node => "N".to_string(),
        };
        out.push_str(&format!(
            "  {} {}\n",
            objects.object(oi).display(grammar),
            at
        ));
    }
    out
}

fn check(name: &str, compiled: &Compiled, golden: &str) {
    let plan = compiled.space_plan.as_ref().expect("space plan");
    let objects = compiled.objects.as_ref().expect("object index");
    let got = render(&compiled.grammar, objects, plan);
    assert!(
        got == golden,
        "{name}: the storage plan differs from tests/golden/plan/{name}.txt\n\
         --- got ---\n{got}"
    );
}

fn olga(name: &str, source: &str, golden: &str) {
    let compiled = Pipeline::new()
        .compile_olga(source)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    check(name, &compiled, golden);
}

#[test]
fn minipascal_plan_is_pinned() {
    olga(
        "minipascal",
        corpus::MINIPASCAL_OLGA,
        include_str!("golden/plan/minipascal.txt"),
    );
}

#[test]
fn blocks_plan_is_pinned() {
    olga(
        "blocks",
        corpus::BLOCKS_OLGA_LIST,
        include_str!("golden/plan/blocks.txt"),
    );
}

#[test]
fn desk_plan_is_pinned() {
    olga(
        "desk",
        corpus::DESK_OLGA,
        include_str!("golden/plan/desk.txt"),
    );
}

#[test]
fn binary_plan_is_pinned() {
    let compiled = Pipeline::new().compile(corpus::binary()).expect("binary");
    check("binary", &compiled, include_str!("golden/plan/binary.txt"));
}

#[test]
fn sized_200_plan_is_pinned() {
    olga(
        "sized-200",
        &corpus::sized_ag_source("sized", 200),
        include_str!("golden/plan/sized-200.txt"),
    );
}

#[test]
fn sized_2000_plan_is_pinned() {
    olga(
        "sized-2000",
        &corpus::sized_ag_source("sized", 2000),
        include_str!("golden/plan/sized-2000.txt"),
    );
}
