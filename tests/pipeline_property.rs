//! Property tests over the whole pipeline: for randomly generated affine
//! programs, normalization always yields a legal invertible transform
//! and restructuring preserves semantics exactly.

mod common;

use access_normalization::codegen::apply_transform;
use access_normalization::deps::is_legal;
use access_normalization::linalg::IMatrix;
use access_normalization::{compile_program, CompileOptions};
use common::random_program;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normalization_is_legal_and_semantics_preserving(p in random_program()) {
        let c = match compile_program(&p, &CompileOptions::default()) {
            Ok(c) => c,
            // Non-uniform reference pairs are a legitimate refusal.
            Err(access_normalization::Error::Core(an_core::CoreError::Deps(
                an_deps::DepError::NonUniform { .. },
            ))) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
        };
        prop_assert!(c.normalized.transform.is_invertible());
        prop_assert!(is_legal(&c.normalized.transform, &c.normalized.dependences));
        let params = p.default_param_values();
        let before = an_ir::interp::run_seeded(&p, &params, 21).unwrap();
        let after = an_ir::interp::run_seeded(&c.transformed.program, &params, 21).unwrap();
        prop_assert!(before.max_abs_diff(&after) < 1e-9);
    }

    #[test]
    fn random_unimodular_transforms_preserve_semantics(
        p in random_program(),
        picks in proptest::collection::vec(0usize..6, 4)
    ) {
        // Build a random unimodular matrix as a product of elementary
        // matrices, then check the restructured program computes the
        // same function (dependences may be violated by an arbitrary
        // unimodular matrix, so restrict to programs without carried
        // dependences).
        let info = match an_deps::analyze(&p, &an_deps::DepOptions::default()) {
            Ok(i) => i,
            Err(_) => return Ok(()),
        };
        if !info.is_fully_parallel() {
            return Ok(()); // only fully parallel nests here
        }
        let n = p.nest.depth();
        let mut t = IMatrix::identity(n);
        for &pick in &picks {
            let e = elementary(n, pick);
            t = e.mul(&t).unwrap();
        }
        prop_assert!(t.is_unimodular());
        let tp = apply_transform(&p, &t).unwrap();
        let params = p.default_param_values();
        let before = an_ir::interp::run_seeded(&p, &params, 77).unwrap();
        let after = an_ir::interp::run_seeded(&tp.program, &params, 77).unwrap();
        prop_assert!(before.max_abs_diff(&after) < 1e-9);
    }
}

/// A small library of elementary unimodular matrices.
fn elementary(n: usize, pick: usize) -> IMatrix {
    let mut m = IMatrix::identity(n);
    match pick % 6 {
        0 => m.swap_rows(0, n - 1),
        1 => m[(0, n - 1)] = 1,  // skew
        2 => m[(n - 1, 0)] = -2, // skew down negative
        3 => m[(0, 0)] = -1,     // reversal (paired with nothing else)
        4 => {
            if n > 1 {
                m.swap_rows(0, 1);
            }
        }
        _ => m[(n - 1, n - 1)] = -1,
    }
    m
}
