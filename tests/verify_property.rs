//! Property test: the independent verifier accepts every program the
//! pipeline compiles. Randomly generated affine programs are compiled
//! end-to-end and handed to `an-verify`; any error-severity finding is
//! either a pipeline bug or a verifier false positive — both are test
//! failures. The interpreter cross-check (original vs transformed)
//! is asserted directly as well.

mod common;

use access_normalization::verify_mod::oracle::{
    conflicting_pairs, oracle_distances, ConcreteContext,
};
use access_normalization::verify_mod::VerifyOptions;
use access_normalization::{compile, compile_program, verify, CompileOptions};
use an_ir::{collect_accesses, Program};
use common::random_program;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The definition `oracle_distances` must compute, as an executable
/// spec: every pair of points under every conflicting access pair,
/// subscripts compared outright. (Subscripts are evaluated once per
/// access and point instead of once per comparison; the comparison
/// itself is still all-pairs.)
fn all_pairs_distances(
    program: &Program,
    points: &[Vec<i64>],
    params: &[i64],
) -> BTreeSet<Vec<i64>> {
    let accesses = collect_accesses(program);
    let touched: Vec<Vec<Vec<i64>>> = accesses
        .iter()
        .map(|a| {
            points
                .iter()
                .map(|x| a.reference.eval_subscripts(x, params))
                .collect()
        })
        .collect();
    let mut out = BTreeSet::new();
    for (i, j) in conflicting_pairs(&accesses) {
        for (x, at_x) in points.iter().zip(&touched[i]) {
            for (y, at_y) in points.iter().zip(&touched[j]) {
                if at_x != at_y {
                    continue;
                }
                let d: Vec<i64> = y.iter().zip(x).map(|(yv, xv)| yv - xv).collect();
                if d.iter().all(|&v| v == 0) {
                    continue;
                }
                let canon = if an_linalg::lex_negative(&d) {
                    d.iter().map(|v| -v).collect()
                } else {
                    d
                };
                out.insert(canon);
            }
        }
    }
    out
}

/// The element-indexed join returns exactly the all-pairs set on every
/// corpus kernel, at the parameters the verifier checks it at.
#[test]
fn indexed_distance_oracle_equals_all_pairs_on_the_corpus() {
    let dir = format!("{}/examples/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut kernels = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "an") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let c = compile(&src, &CompileOptions::default()).unwrap();
        let max_points = VerifyOptions::default().max_points;
        let ctx = ConcreteContext::build(&c.program, &c.transformed.program, max_points)
            .unwrap_or_else(|| panic!("{}: no concrete context", path.display()));
        let points = &ctx.original_points;
        assert_eq!(
            oracle_distances(&c.program, points, &ctx.params),
            all_pairs_distances(&c.program, points, &ctx.params),
            "{}",
            path.display()
        );
        kernels += 1;
    }
    assert_eq!(kernels, 15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_distance_oracle_equals_all_pairs(p in random_program()) {
        let params = p.default_param_values();
        let mut points = Vec::new();
        p.nest
            .for_each_iteration(&params, |pt| points.push(pt.to_vec()))
            .unwrap();
        prop_assert_eq!(
            oracle_distances(&p, &points, &params),
            all_pairs_distances(&p, &points, &params)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verifier_accepts_every_compiled_program(p in random_program()) {
        let c = match compile_program(&p, &CompileOptions::default()) {
            Ok(c) => c,
            // Non-uniform reference pairs are a legitimate refusal.
            Err(access_normalization::Error::Core(an_core::CoreError::Deps(
                an_deps::DepError::NonUniform { .. },
            ))) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
        };
        let report = verify(&c);
        prop_assert!(
            !report.has_errors(),
            "verifier flagged a compiled program:\n{}",
            report.render_human()
        );
        // The differential oracle the bounds check relies on, asserted
        // independently of the verifier's own wiring.
        let params = p.default_param_values();
        let before = an_ir::interp::run_seeded(&p, &params, 21).unwrap();
        let after = an_ir::interp::run_seeded(&c.transformed.program, &params, 21).unwrap();
        prop_assert!(before.max_abs_diff(&after) < 1e-9);
    }
}
