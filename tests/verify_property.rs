//! Property test: the independent verifier accepts every program the
//! pipeline compiles. Randomly generated affine programs are compiled
//! end-to-end and handed to `an-verify`; any error-severity finding is
//! either a pipeline bug or a verifier false positive — both are test
//! failures. The interpreter cross-check (original vs transformed)
//! is asserted directly as well.

mod common;

use access_normalization::codegen::{OuterAssignment, SpmdProgram, TransformedProgram};
use access_normalization::verify_mod::oracle::{
    conflicting_pairs, oracle_distances, ConcreteContext,
};
use access_normalization::verify_mod::races::check_races;
use access_normalization::verify_mod::{
    apply_mutation, Anchor, Code, Diagnostic, Mutation, VerifyOptions,
};
use access_normalization::{compile, compile_program, verify, CompileOptions, Compiled};
use an_ir::{collect_accesses, Distribution, Program};
use an_linalg::{div_floor, mod_floor};
use an_numa::distribution::{block_size, grid_shape, home_of, Home};
use common::random_program;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// The definition the dynamic race check must implement, as an
/// executable spec: a map from `(array, index)` to the processors that
/// touched and wrote each element of a shared array, with the executor
/// re-derived at every point and access. Returns the `AN0301` findings
/// and the notes the check must emit.
fn per_element_races(
    spmd: &SpmdProgram,
    ctx: &ConcreteContext,
    procs: &[usize],
) -> (Vec<Diagnostic>, Vec<String>) {
    let (mut diags, mut notes) = (Vec::new(), Vec::new());
    if spmd.outer_carried {
        notes.push(
            "outer loop marked dependence-carried: iterations serialize, race \
             freedom holds trivially"
                .to_string(),
        );
        return (diags, notes);
    }
    let accesses = collect_accesses(&spmd.program);
    for &p in procs.iter().filter(|&&p| p >= 2) {
        type Touch = (BTreeSet<usize>, BTreeSet<usize>);
        let mut touched: BTreeMap<(usize, Vec<i64>), Touch> = BTreeMap::new();
        for point in &ctx.transformed_points {
            let execs = executors_of(spmd, point, &ctx.params, p);
            for a in &accesses {
                if spmd.program.array(a.reference.array).distribution == Distribution::Replicated {
                    continue;
                }
                let idx = a.reference.eval_subscripts(point, &ctx.params);
                let (all, writers) = touched.entry((a.reference.array.0, idx)).or_default();
                all.extend(&execs);
                if a.is_write {
                    writers.extend(&execs);
                }
            }
        }
        let raced: Vec<_> = (touched.iter())
            .filter(|(_, (all, writers))| !writers.is_empty() && all.len() >= 2)
            .collect();
        for ((array, idx), (all, writers)) in raced.iter().take(3) {
            diags.push(Diagnostic::new(
                Code::RaceParallelOuter,
                Anchor::Array(*array),
                format!(
                    "element {idx:?} of array '{}' is touched by processors \
                     {:?} (written by {:?}) at P = {p} while the outer \
                     loop runs in parallel",
                    spmd.program.arrays[*array].name,
                    all.iter().collect::<Vec<_>>(),
                    writers.iter().collect::<Vec<_>>()
                ),
            ));
        }
        if raced.len() > 3 {
            notes.push(format!(
                "{} further raced elements suppressed",
                raced.len() - 3
            ));
        }
        if !raced.is_empty() {
            break;
        }
    }
    (diags, notes)
}

/// The processors that execute a lattice point under the outer
/// assignment (every processor for a replicated driving array).
fn executors_of(spmd: &SpmdProgram, point: &[i64], params: &[i64], procs: usize) -> Vec<usize> {
    let zeros = vec![0i64; spmd.program.nest.space.num_vars()];
    match &spmd.outer {
        OuterAssignment::RoundRobin => vec![mod_floor(point[0], procs as i64) as usize],
        OuterAssignment::ByHome {
            array,
            dim,
            coeff,
            offset,
        } => {
            let decl = spmd.program.array(*array);
            let mut idx = vec![0i64; decl.rank()];
            idx[*dim] = coeff * point[0] + offset.eval(&zeros, params);
            match home_of(decl, &decl.extents(params), &idx, procs) {
                Home::Proc(q) => vec![q],
                Home::Everywhere => (0..procs).collect(),
            }
        }
        OuterAssignment::ByHome2D {
            array,
            row_dim,
            col_dim,
            row_coeff,
            row_offset,
            col_coeff,
            col_offset,
        } => {
            let extents = spmd.program.array(*array).extents(params);
            let (pr, pc) = grid_shape(procs);
            let s_row = row_coeff * point[0] + row_offset.eval(&zeros, params);
            let s_col = col_coeff * point[1] + col_offset.eval(&zeros, params);
            let hr = div_floor(s_row, block_size(extents[*row_dim], pr)).clamp(0, pr as i64 - 1);
            let hc = div_floor(s_col, block_size(extents[*col_dim], pc)).clamp(0, pc as i64 - 1);
            vec![(hr * pc as i64 + hc) as usize]
        }
    }
}

/// `check_races` emits exactly the spec's `AN0301` findings and notes
/// at P ∈ {2, 3, 4, 8}, as compiled and with the outer loop forced
/// parallel (so that real races are found and reported). Returns how
/// many races the forced runs reported.
fn assert_races_match_the_spec(
    program: &Program,
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    label: &str,
) -> usize {
    let max_points = VerifyOptions::default().max_points;
    let Some(ctx) = ConcreteContext::build(program, &transformed.program, max_points) else {
        return 0;
    };
    let procs = [2, 3, 4, 8];
    let mut raced = 0;
    for force_parallel in [false, true] {
        let mut spmd = spmd.clone();
        if force_parallel {
            spmd.outer_carried = false;
        }
        let (mut diags, mut notes) = (Vec::new(), Vec::new());
        check_races(&spmd, Some(&ctx), &procs, &mut diags, &mut notes);
        diags.retain(|d| d.code == Code::RaceParallelOuter);
        let (want_diags, want_notes) = per_element_races(&spmd, &ctx, &procs);
        assert_eq!(
            diags, want_diags,
            "{label}, forced parallel: {force_parallel}"
        );
        assert_eq!(
            notes, want_notes,
            "{label}, forced parallel: {force_parallel}"
        );
        if force_parallel {
            raced += diags.len();
        }
    }
    raced
}

fn corpus() -> Vec<(String, Compiled)> {
    let dir = format!("{}/examples/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut kernels: Vec<(String, Compiled)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "an"))
        .map(|path| {
            let src = std::fs::read_to_string(&path).unwrap();
            let c = compile(&src, &CompileOptions::default()).unwrap();
            (path.display().to_string(), c)
        })
        .collect();
    kernels.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(kernels.len(), 15);
    kernels
}

#[test]
fn race_check_equals_the_per_element_spec_on_the_corpus() {
    let max_points = VerifyOptions::default().max_points;
    let mut raced = 0;
    for (label, c) in corpus() {
        raced += assert_races_match_the_spec(&c.program, &c.transformed, &c.spmd, &label);
        // A widened bound scans points whose subscripts can leave the
        // extents, where offsets no longer order elements as their
        // subscripts do.
        let ctx = ConcreteContext::build(&c.program, &c.transformed.program, max_points);
        let (tp, spmd) = apply_mutation(
            &c.program,
            &c.transformed,
            &c.spmd,
            Mutation::WidenBound,
            ctx.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        raced += assert_races_match_the_spec(&c.program, &tp, &spmd, &format!("{label} widened"));
    }
    // Forcing the outer loop parallel must expose real races somewhere,
    // or the comparison above never saw a finding.
    assert!(raced > 0);
}

/// The bounds check's binary search and "first dropped point" rely on
/// the original points being enumerated in strictly increasing
/// lexicographic order.
fn assert_strictly_lexicographic(ctx: &ConcreteContext, label: &str) {
    for w in ctx.original_points.windows(2) {
        assert!(w[0] < w[1], "{label}: {:?} then {:?}", w[0], w[1]);
    }
}

#[test]
fn original_points_are_strictly_lexicographic_on_the_corpus() {
    let max_points = VerifyOptions::default().max_points;
    for (label, c) in corpus() {
        let ctx = ConcreteContext::build(&c.program, &c.transformed.program, max_points)
            .unwrap_or_else(|| panic!("{label}: no concrete context"));
        assert_strictly_lexicographic(&ctx, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn race_check_equals_the_per_element_spec(p in random_program()) {
        let max_points = VerifyOptions::default().max_points;
        if let Some(ctx) = ConcreteContext::build(&p, &p, max_points) {
            assert_strictly_lexicographic(&ctx, "random program");
        }
        match compile_program(&p, &CompileOptions::default()) {
            Ok(c) => {
                assert_races_match_the_spec(&c.program, &c.transformed, &c.spmd, "random program");
            }
            // Non-uniform reference pairs are a legitimate refusal.
            Err(access_normalization::Error::Core(an_core::CoreError::Deps(
                an_deps::DepError::NonUniform { .. },
            ))) => {}
            Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
        }
    }
}
