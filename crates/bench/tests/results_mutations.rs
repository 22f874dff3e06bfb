//! Mutation property suite for the `dap-results/v1` reader: shard files
//! (`experiments merge`) and daemons' `shard-result` frames (`dispatch`)
//! are untrusted, so [`ResultSet::from_json`] must answer any corruption
//! of a document with a result — `Ok` or a typed `Err` — and never panic,
//! overflow its stack or size an allocation from the input.
//!
//! The corruptions come from the harness the wire-frame suite uses
//! (`crates/core/tests/mutation/mod.rs`); `PROPTEST_CASES` sets their
//! number, and CI's `fuzz-smoke` job runs 20 000.

#[path = "../../core/tests/mutation/mod.rs"]
mod mutation;

use dap_bench::common::ExpOptions;
use dap_bench::results::{CellRecord, ResultSet, ShardInfo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn record(index: usize, values: Vec<f64>) -> CellRecord {
    CellRecord {
        index,
        stream: 0xdead_beef_0042_1111 ^ index as u64,
        experiment: "fig7".into(),
        panel: "a".into(),
        coords: vec![("kind".into(), "pm-mse".into()), ("eps".into(), "1".into())],
        variants: (0..values.len()).map(|v| format!("v{v}")).collect(),
        values,
    }
}

/// A full run and a shard, with non-finite, negative and empty values.
fn documents() -> Vec<String> {
    let cells = vec![
        record(0, vec![1.25e-4, -3.5, f64::INFINITY]),
        record(1, vec![]),
        record(2, vec![f64::NAN, 0.1 + 0.2]),
    ];
    let options = ExpOptions::default();
    let full = ResultSet { experiment: "fig7".into(), options, shard: None, cells };
    let shard = ResultSet {
        shard: Some(ShardInfo { index: 1, count: 3, cells_total: 9 }),
        ..full.clone()
    };
    [full, shard].iter().map(ResultSet::to_json).collect()
}

#[test]
fn sample_documents_parse() {
    for doc in documents() {
        ResultSet::from_json(&doc).expect("own output parses");
    }
}

proptest! {
    #[test]
    fn mutated_documents_parse_or_fail_typed(
        pick in 0usize..1_000_000,
        donor in 0usize..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let docs = documents();
        let doc = &docs[pick % docs.len()];
        let donor = &docs[donor % docs.len()];
        let (mutant, how) = mutation::mutate(doc, donor, &mut StdRng::seed_from_u64(seed));
        // The reader takes text; a mutant that is no longer UTF-8 is
        // refused before it (`String::from_utf8` at the file and frame
        // boundaries), so feed its lossy decoding instead.
        let text = String::from_utf8_lossy(&mutant);
        let outcome = catch_unwind(AssertUnwindSafe(|| ResultSet::from_json(&text).map(drop)));
        prop_assert!(outcome.is_ok(), "{how}: from_json panicked on {text:?}");
    }
}
