//! Experiment E2: the Section 3 loop-scaling example — restructuring by
//! a non-unimodular invertible matrix.

use access_normalization::codegen::apply_transform;
use access_normalization::linalg::IMatrix;
use std::collections::BTreeSet;

const SRC: &str = "
    array A[19, 19];
    for i = 1, 3 { for j = 1, 3 {
        A[2 * i + 4 * j, i + 5 * j] = 1.0;
    } }
";

#[test]
fn paper_iteration_set_and_steps() {
    let p = an_lang::parse(SRC).unwrap();
    let t = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
    assert_eq!(t.determinant(), 6);
    let tp = apply_transform(&p, &t).unwrap();
    // Steps: u by 2, v by 3 (paper's "step 2", "step 3").
    assert_eq!(tp.step(0), 2);
    assert_eq!(tp.step(1), 3);
    assert!(!tp.is_unimodular_case());

    // The transformed nest enumerates exactly the image points.
    let mut image = BTreeSet::new();
    for i in 1..=3i64 {
        for j in 1..=3i64 {
            image.insert(vec![2 * i + 4 * j, i + 5 * j]);
        }
    }
    let mut scanned = BTreeSet::new();
    tp.program
        .nest
        .for_each_iteration(&[], |pt| {
            scanned.insert(tp.u_of_t(pt));
        })
        .unwrap();
    assert_eq!(scanned, image);

    // u covers 6..=18 step 2, exactly as the paper's header says —
    // though not every (u, v) pair in that box is populated.
    let us: BTreeSet<i64> = scanned.iter().map(|p| p[0]).collect();
    assert_eq!(us, (3..=9).map(|x| 2 * x).collect());
}

#[test]
fn subscripts_become_lattice_rows() {
    // The original subscripts are the rows of T, so in lattice
    // coordinates they become the rows of H = T·U: the first subscript
    // reads 2u (the displayed loop value — normal w.r.t. the new outer
    // loop), the second u + 3v. This is the point of the invertible
    // (not just unimodular) framework: the subscript *is* the new loop
    // value.
    let p = an_lang::parse(SRC).unwrap();
    let t = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
    let tp = apply_transform(&p, &t).unwrap();
    let an_ir::Stmt::Assign { lhs, .. } = &tp.program.nest.body[0] else {
        panic!("expected assignment");
    };
    for (d, sub) in lhs.subscripts.iter().enumerate() {
        assert_eq!(sub.var_coeffs(), tp.hnf.row(d), "dimension {d}");
    }
    assert_eq!(tp.hnf.get(0, 0) * tp.hnf.get(1, 1), 6);
}

#[test]
fn semantics_preserved_under_scaling() {
    let p = an_lang::parse(SRC).unwrap();
    let t = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
    let tp = apply_transform(&p, &t).unwrap();
    let before = an_ir::interp::run_seeded(&p, &[], 3).unwrap();
    let after = an_ir::interp::run_seeded(&tp.program, &[], 3).unwrap();
    assert_eq!(before.max_abs_diff(&after), 0.0);
}

#[test]
fn pure_scaling_one_dimensional() {
    // The §3 warm-up: for i = 1,3: A[2i] — T = [2].
    let p = an_lang::parse("array A[7]; for i = 1, 3 { A[2 * i] = 1.0; }").unwrap();
    let t = IMatrix::from_rows(&[&[2]]);
    let tp = apply_transform(&p, &t).unwrap();
    assert_eq!(tp.step(0), 2);
    let mut us = Vec::new();
    tp.program
        .nest
        .for_each_iteration(&[], |pt| us.push(tp.u_of_t(pt)[0]))
        .unwrap();
    assert_eq!(us, vec![2, 4, 6]);
}

#[test]
fn edge_shape_extents_through_both_sweep_pricings_and_verify() {
    // Degenerate and awkward extents — 1, primes, 2^k ± 1 — in
    // non-square combinations, pushed through the full pipeline, the
    // independent verifier, and both sweep pricings. The analytic model
    // must agree with the simulator on every integer counter at every
    // shape; the verifier must find nothing.
    use access_normalization::model::model_stats;
    use access_normalization::numa::{simulate, sweep, MachineConfig, SweepConfig};
    use access_normalization::{compile, verify, CompileOptions};

    let src = "param N = 8;
               param M = 8;
               array A[N, M] distribute wrapped(1);
               array B[M, N] distribute blocked(0);
               for i = 0, N - 1 { for j = 0, M - 1 {
                   A[i, j] = A[i, j] + B[j, i] + 1.0;
               } }";
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    let findings = verify(&compiled);
    assert!(!findings.has_errors(), "{findings}");

    // (N, M): extent-1 rows/columns, primes, and powers of two ± 1.
    let shapes: &[(i64, i64)] = &[
        (1, 1),
        (1, 17),
        (31, 1),
        (2, 3),
        (13, 7),
        (15, 16),
        (16, 17),
        (31, 33),
        (33, 31),
    ];
    let cfg = SweepConfig {
        procs: vec![1, 2, 4, 8, 16],
        param_sets: shapes.iter().map(|&(n, m)| vec![n, m]).collect(),
        jobs: 0,
        tracer: None,
    };
    let machines = [MachineConfig::butterfly_gp1000()];
    let spmd = &compiled.spmd;
    let by_sim = sweep(&machines, &cfg, |m, p, ps| simulate(spmd, m, p, ps)).unwrap();
    let by_model = sweep(&machines, &cfg, |m, p, ps| model_stats(spmd, m, p, ps)).unwrap();
    assert_eq!(by_sim.points.len(), 5 * shapes.len());
    assert_eq!(by_model.points.len(), by_sim.points.len());
    for (a, b) in by_model.points.iter().zip(&by_sim.points) {
        let at = format!("P={} params={:?}", b.procs, b.params);
        assert_eq!(a.stats.total_local(), b.stats.total_local(), "{at}");
        assert_eq!(a.stats.total_remote(), b.stats.total_remote(), "{at}");
        assert_eq!(a.stats.total_messages(), b.stats.total_messages(), "{at}");
        assert_eq!(
            a.stats.total_transfer_bytes(),
            b.stats.total_transfer_bytes(),
            "{at}"
        );
        for (pa, pb) in a.stats.per_proc.iter().zip(&b.stats.per_proc) {
            assert_eq!(pa.outer_iterations, pb.outer_iterations, "{at}");
        }
    }
}
