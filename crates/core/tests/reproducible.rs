//! Compiled-table artifacts are byte-reproducible: two compiles of one
//! source emit the same bytes. The storage plan embedded in an artifact
//! lists the stacks popped after each step; those lists must not depend
//! on hash-map iteration order, which differs between two compiles even
//! in one process.

use fnc2::artifact::emit_tables;
use fnc2::Pipeline;
use fnc2_corpus as corpus;

fn emit(source: &str) -> Vec<u8> {
    let pipeline = Pipeline::new();
    let compiled = pipeline.compile_olga(source).unwrap();
    emit_tables(&compiled, &pipeline, source)
}

fn assert_reproducible(name: &str, source: &str) {
    let first = emit(source);
    for _ in 0..3 {
        assert!(
            emit(source) == first,
            "{name}: two compiles emitted different artifact bytes"
        );
    }
}

#[test]
fn minipascal_artifact_is_byte_reproducible() {
    assert_reproducible("minipascal", corpus::MINIPASCAL_OLGA);
}

#[test]
fn sized_artifact_is_byte_reproducible() {
    assert_reproducible("sized-600", &corpus::sized_ag_source("sized", 600));
}
