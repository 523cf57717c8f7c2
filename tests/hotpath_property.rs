//! Differential properties for the hot-path fast rungs.
//!
//! Each fast path added for raw speed — the bitset distance lattices
//! and the flat interpreters — must be *observationally invisible*:
//! bit-for-bit the same results as the reference path it
//! short-circuits. These tests pin that down on fuzzed inputs by running
//! both paths and comparing exactly.
//!
//! The pricing walk's parameter-bound loop bounds
//! (`an_numa::plan::LevelBounds`) are the same kind of rung over
//! `LoopBounds::eval`, pinned here on every corpus kernel and on the
//! non-unimodular nests of `tests/scaling.rs`.
//!
//! (`an-linalg` has no fast rung beside its checked-`i64` → `BigInt`
//! promotion, which `an_linalg::hnf`'s own rung-agreement test and
//! `tests/overflow_property.rs` pin; a directed solution-validity
//! property guards `solve_integer`'s forward substitution here.)

use access_normalization::codegen::apply_transform;
use access_normalization::codegen::spmd::{generate_spmd, SpmdOptions, SpmdProgram};
use access_normalization::linalg::solve::solve_integer;
use access_normalization::linalg::{IMatrix, IVec};
use access_normalization::numa::plan::Plan;
use access_normalization::numa::MachineConfig;
use access_normalization::{compile, CompileOptions};
use an_deps::distance::{representatives, DistanceSet};
use an_ir::{interp, IrError};
use an_normal::eval::{run_messy, EvalError};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn scaled_matrix(rows: usize, cols: usize, seeds: &[i64], scale: i64) -> IMatrix {
    let data: Vec<i64> = seeds[..rows * cols]
        .iter()
        .map(|&s| s.saturating_mul(scale))
        .collect();
    IMatrix::from_vec(rows, cols, data)
}

/// The naive reference for the bitset lattice: the same canonicalized
/// sample stream deduplicated through an ordered set.
fn reference_representatives(set: &DistanceSet, reach: i64) -> Vec<IVec> {
    let n = set.particular.len();
    let mut out: BTreeSet<IVec> = BTreeSet::new();
    let mut push = |d: IVec| {
        if d.iter().all(|&v| v == 0) {
            return;
        }
        let canon: IVec = if an_linalg::lex_negative(&d) {
            d.iter().map(|&v| -v).collect()
        } else {
            d
        };
        out.insert(canon);
    };
    match set.kernel.len() {
        0 => push(set.particular.clone()),
        1 => {
            let k = &set.kernel[0];
            let in_span = set.particular.iter().all(|&v| v == 0) || {
                // Mirror `is_multiple`: particular = λ·k for integer λ.
                k.iter().zip(&set.particular).all(
                    |(&ki, &pi)| {
                        if ki == 0 {
                            pi == 0
                        } else {
                            pi % ki == 0
                        }
                    },
                ) && {
                    let lambda = k
                        .iter()
                        .zip(&set.particular)
                        .find(|(&ki, _)| ki != 0)
                        .map(|(&ki, &pi)| pi / ki)
                        .unwrap_or(0);
                    k.iter()
                        .zip(&set.particular)
                        .all(|(&ki, &pi)| lambda * ki == pi)
                }
            };
            if in_span {
                push(an_linalg::vector::primitive(k));
            } else {
                for lambda in -reach..=reach {
                    push((0..n).map(|i| set.particular[i] + lambda * k[i]).collect());
                }
            }
        }
        _ => {
            // Small multiplier boxes only (the tests stay below the
            // sampler's cap), matching the odometer enumeration.
            let rank = set.kernel.len();
            let width = 2 * reach + 1;
            let total = (width as u64).pow(rank as u32);
            for mut idx in 0..total {
                let mut d = set.particular.clone();
                for k in &set.kernel {
                    let lambda = (idx % width as u64) as i64 - reach;
                    idx /= width as u64;
                    for i in 0..n {
                        d[i] += lambda * k[i];
                    }
                }
                push(d);
            }
        }
    }
    out.into_iter().collect()
}

/// Source text for a two-statement depth-2 kernel over `extent`-sized
/// arrays (`N = 4`): subscripts `i + off`, `j + off` stray outside
/// small extents, and the opcode stream folds the right-hand side
/// (shared reads, negation, a coefficient, division by a literal that
/// is sometimes zero).
fn faulting_source(extent: i64, offs: &[i64], ops: &[u32]) -> String {
    let sub = |v: &str, off: i64| match off {
        0 => v.to_string(),
        o if o < 0 => format!("{v} - {}", -o),
        o => format!("{v} + {o}"),
    };
    let at = |a: &str, oi: i64, oj: i64| format!("{a}[{}, {}]", sub("i", oi), sub("j", oj));
    let mut rhs = at("A", offs[2], offs[3]);
    for op in ops {
        rhs = match op % 7 {
            0 => format!("({rhs} + 1.0)"),
            1 => format!("(-{rhs})"),
            2 => format!("({rhs} * alpha)"),
            3 => format!("({rhs} - {})", at("B", offs[4], offs[5])),
            4 => format!("({rhs} / 2.0)"),
            5 => format!("({rhs} + {})", at("A", offs[2], offs[3])),
            _ => format!("({rhs} / 0.0)"),
        };
    }
    format!(
        "param N = 4; coef alpha = 1.5;
         array A[{extent}, {extent}]; array B[{extent}, {extent}];
         for i = 0, N - 1 {{ for j = 0, N - 1 {{
           {} = {rhs};
           {} = {} * 0.5;
         }} }}",
        at("A", offs[0], offs[1]),
        at("B", offs[6], offs[7]),
        at("A", offs[0], offs[1]),
    )
}

/// What the messy evaluator reports for an interpreter fault.
fn as_eval_error(e: IrError) -> EvalError {
    match e {
        IrError::OutOfBounds { array, .. } => EvalError::OutOfBounds(array),
        IrError::DivisionByZero => EvalError::DivisionByZero,
        other => panic!("not an interpreter fault: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `interp::run` and `run_messy` against the boxed `execute_point`
    /// walk, faults included: the same `Err` value (array, dimension,
    /// index and extent of the first access out of bounds; division by
    /// zero; budget) and bitwise the same partially written store.
    #[test]
    fn interpreters_match_the_boxed_path_faults_included(
        extent in 4i64..=8,
        offs in proptest::collection::vec(-1i64..=3, 8),
        ops in proptest::collection::vec(0u32..=6, 0..6),
        budget_points in 0usize..=20,
    ) {
        let src = faulting_source(extent, &offs, &ops);
        let p = an_lang::parse(&src).expect("lowers");
        let ast = an_lang::parser::parse_tokens(&an_lang::lexer::lex(&src).expect("lexes"))
            .expect("parses");
        let params = p.default_param_values();
        let mut points = Vec::new();
        p.nest
            .for_each_iteration(&params, |pt| points.push(pt.to_vec()))
            .expect("iteration");
        // The reference: point by point, stopping at the first fault.
        let boxed = |limit: usize| {
            let mut store = interp::ArrayStore::seeded(&p, &params, 7);
            let status = points
                .iter()
                .take(limit)
                .try_for_each(|pt| interp::execute_point(&p, pt, &params, &mut store));
            (status, store)
        };

        let (expected, expected_store) = boxed(points.len());
        let mut store = interp::ArrayStore::seeded(&p, &params, 7);
        prop_assert_eq!(interp::run(&p, &params, &mut store), expected.clone());
        prop_assert_eq!(&store, &expected_store);

        let mut store = interp::ArrayStore::seeded(&p, &params, 7);
        let messy = run_messy(&ast, &params, &mut store, u64::MAX);
        prop_assert_eq!(messy, expected.map_err(as_eval_error));
        prop_assert_eq!(&store, &expected_store);

        // A budget of whole points: the fault if one comes first, else
        // `Budget` exactly when a statement is left to run.
        let (expected, expected_store) = boxed(budget_points);
        let expected = match expected {
            Ok(()) if budget_points < points.len() => Err(EvalError::Budget),
            other => other.map_err(as_eval_error),
        };
        let statements = (budget_points * p.nest.body.len()) as u64;
        let mut store = interp::ArrayStore::seeded(&p, &params, 7);
        prop_assert_eq!(run_messy(&ast, &params, &mut store, statements), expected);
        prop_assert_eq!(&store, &expected_store);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `solve_integer` rides the HNF dispatch; any solution it returns
    /// must satisfy `A·x = b` exactly and its kernel must annihilate.
    #[test]
    fn small_solve_solutions_are_valid(
        dim in 2usize..=4,
        seeds in proptest::collection::vec(-5i64..=5, 16),
        x in proptest::collection::vec(-3i64..=3, 4),
    ) {
        let m = scaled_matrix(dim, dim, &seeds, 1);
        // b = A·x so a solution exists whenever A is consistent.
        let b: Vec<i64> = (0..dim)
            .map(|r| m.row(r).iter().zip(&x).map(|(&a, &v)| a * v).sum())
            .collect();
        let sol = solve_integer(&m, &b).expect("constructed system is solvable");
        let check: Vec<i64> = (0..dim)
            .map(|r| {
                m.row(r)
                    .iter()
                    .zip(&sol.particular)
                    .map(|(&a, &v)| a * v)
                    .sum()
            })
            .collect();
        prop_assert_eq!(check, b);
        for k in &sol.kernel {
            for r in 0..dim {
                let z: i64 = m.row(r).iter().zip(k).map(|(&a, &v)| a * v).sum();
                prop_assert_eq!(z, 0);
            }
        }
    }

    /// The bitset lattice drains exactly the canonical sample set a
    /// naive ordered-set dedup produces, in the same (lexicographic)
    /// order — including vectors past the plane radius that take the
    /// overflow side list.
    #[test]
    fn bitset_representatives_match_reference(
        n in 2usize..=4,
        part in proptest::collection::vec(-3i64..=3, 4),
        kern in proptest::collection::vec(proptest::collection::vec(-2i64..=2, 4), 0..=2),
        big in any::<bool>(),
        reach in 1i64..=3,
    ) {
        let mut particular: IVec = part[..n].to_vec();
        if big {
            // Push some coordinates past any plane radius.
            particular[0] = particular[0].saturating_mul(100);
        }
        let kernel: Vec<IVec> = kern
            .iter()
            .map(|k| k[..n].to_vec())
            .filter(|k| k.iter().any(|&v| v != 0))
            .collect();
        let set = DistanceSet { particular, kernel };
        let (got, _) = representatives(&set, reach);
        prop_assert_eq!(got, reference_representatives(&set, reach));
    }
}

/// Walks every iteration prefix of `plan`'s nest, one value past its
/// bounds on each side of every level, and checks that the plan's
/// parameter-bound bounds of each level equal `LoopBounds::eval` there.
/// Returns the number of (level, prefix) pairs compared.
fn check_level_bounds(plan: &Plan<'_>, level: usize, point: &mut [i64]) -> usize {
    let nest = &plan.spmd.program.nest;
    let expected = nest.bounds[level].eval(point, plan.params);
    assert_eq!(
        plan.bounds[level].eval(point),
        expected,
        "level {level} at {point:?}, params {:?}",
        plan.params
    );
    let Some((lo, hi)) = expected.filter(|_| level + 1 < nest.depth()) else {
        return 1;
    };
    let mut checked = 1;
    for v in lo - 1..=hi + 1 {
        point[level] = v;
        checked += check_level_bounds(plan, level + 1, point);
    }
    point[level] = 0;
    checked
}

fn check_plan_bounds(spmd: &SpmdProgram, params: &[i64]) -> usize {
    let machine = MachineConfig::butterfly_gp1000();
    let plan = Plan::build(spmd, &machine, 4, params);
    check_level_bounds(&plan, 0, &mut vec![0; spmd.program.nest.depth()])
}

#[test]
fn plan_bounds_match_loop_bounds_on_the_corpus() {
    let dir = format!("{}/examples/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut kernels: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "an"))
        .collect();
    kernels.sort();
    assert_eq!(kernels.len(), 15, "{kernels:?}");
    for path in kernels {
        let src = std::fs::read_to_string(&path).expect("kernel source");
        let compiled = compile(&src, &CompileOptions::default()).expect("corpus kernel compiles");
        // A small instance: every parameter a quarter of its default.
        let params: Vec<i64> = compiled
            .spmd
            .program
            .default_param_values()
            .iter()
            .map(|&v| (v / 4).max(3))
            .collect();
        let checked = check_plan_bounds(&compiled.spmd, &params);
        let depth = compiled.spmd.program.nest.depth();
        assert!(
            checked >= depth,
            "{path:?}: {checked} prefixes at depth {depth}"
        );
    }
}

#[test]
fn plan_bounds_match_loop_bounds_on_scaled_nests() {
    // The §3 scaling example and its 1-D warm-up (tests/scaling.rs),
    // plus a parametric variant: non-unimodular transforms give bound
    // divisors > 1, and a parameter-dependent domain gives guards.
    let cases: [(&str, IMatrix, &[&[i64]]); 3] = [
        (
            "array A[19, 19];
             for i = 1, 3 { for j = 1, 3 { A[2 * i + 4 * j, i + 5 * j] = 1.0; } }",
            IMatrix::from_rows(&[&[2, 4], &[1, 5]]),
            &[&[]],
        ),
        (
            "array A[7]; for i = 1, 3 { A[2 * i] = 1.0; }",
            IMatrix::from_rows(&[&[2]]),
            &[&[]],
        ),
        (
            "param N = 5; param M = 4;
             array A[4 * N + 8 * M, 2 * N + 5 * M];
             for i = 1, N { for j = M - 2, M { A[2 * i + 4 * j, i + 5 * j] = 1.0; } }",
            IMatrix::from_rows(&[&[2, 4], &[1, 5]]),
            &[&[5, 4], &[1, 1], &[0, 3], &[3, 0], &[-1, 2]],
        ),
    ];
    let (mut divided, mut guarded) = (false, false);
    for (src, t, param_sets) in cases {
        let p = an_lang::parse(src).expect("parses");
        let tp = apply_transform(&p, &t).expect("invertible transform");
        let nest = &tp.program.nest;
        divided |= nest
            .bounds
            .iter()
            .flat_map(|b| b.lowers.iter().chain(&b.uppers))
            .any(|b| b.divisor > 1);
        guarded |= nest.bounds.iter().any(|b| !b.guards.is_empty());
        let spmd = generate_spmd(&tp, None, &SpmdOptions::default());
        for params in param_sets {
            check_plan_bounds(&spmd, params);
        }
    }
    assert!(divided, "no bound divisor > 1 was exercised");
    assert!(guarded, "no guard was exercised");
}
