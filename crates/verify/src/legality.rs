//! Invariant family 1 — transform legality.
//!
//! Recomputes the dependence evidence from scratch (brute-force
//! enumeration for realized distances, hierarchical direction vectors
//! for non-uniform pairs) and checks that the transform maps every
//! dependence to a lexicographically positive vector. None of the
//! pipeline's own dependence summary (`DependenceInfo`) is consulted;
//! only `an-deps`' stateless primitives (direction enumeration and the
//! GCD/Banerjee independence disproofs) are reused, applied to the raw
//! references. Pairs those disproofs rule out carry no dependence and
//! constrain nothing.

use crate::diag::{Anchor, Code, Diagnostic};
use crate::oracle::{conflicting_pairs, is_uniform_pair, oracle_distances, ConcreteContext};
use an_codegen::TransformedProgram;
use an_deps::direction::{enumerate_directions, legal_for_direction};
use an_deps::tests::{banerjee_test, gcd_test_refs};
use an_ir::{collect_accesses, Program};
use an_linalg::lex_positive;

/// Runs the legality checks, appending findings to `diags`.
pub fn check_legality(
    program: &Program,
    transformed: &TransformedProgram,
    ctx: Option<&ConcreteContext>,
    diags: &mut Vec<Diagnostic>,
    notes: &mut Vec<String>,
) {
    let t = &transformed.transform;

    // Realized distances: every (source, sink) pair observed by
    // enumeration must stay lexicographically positive under T.
    if let Some(ctx) = ctx {
        let mut flagged = 0usize;
        for d in oracle_distances(program, &ctx.original_points, &ctx.params) {
            let td = t.mul_vec(&d).expect("transform arity matches nest depth");
            if !lex_positive(&td) {
                flagged += 1;
                if flagged <= 3 {
                    diags.push(Diagnostic::new(
                        Code::LegalityDistance,
                        Anchor::Loop(0),
                        format!(
                            "dependence distance {d:?} maps to {td:?} under T, \
                             which is not lexicographically positive"
                        ),
                    ));
                }
            }
        }
        if flagged > 3 {
            notes.push(format!(
                "{} further reversed distances suppressed",
                flagged - 3
            ));
        }
    } else {
        notes.push(
            "iteration space too large to enumerate: distance legality checked \
             via direction vectors only"
                .to_string(),
        );
    }

    // Direction vectors for non-uniform pairs: the conservative box test
    // must certify T. Uniform pairs are excluded — their dependences are
    // the constant distances already covered above, and the box test
    // would reject transforms that are legal for the exact distances.
    // Ranges come from the program's declared parameter defaults (the
    // box legality is claimed over), falling back to the concrete
    // context's shrunk box when the default space is too large to walk.
    // They are computed at the first pair that needs them: most nests
    // have no non-uniform pair the GCD test leaves standing.
    let mut walked = None;
    let accesses = collect_accesses(program);
    for (i, j) in conflicting_pairs(&accesses) {
        let (a, b) = (&accesses[i], &accesses[j]);
        if is_uniform_pair(a, b) {
            continue;
        }
        // Independence disproofs: a pair the GCD or Banerjee test rules
        // out has no dependence, so it constrains no direction.
        if !gcd_test_refs(&a.reference, &b.reference) {
            continue;
        }
        let default_ranges: &Option<_> = walked.get_or_insert_with(|| walk_ranges(program));
        let ranges: Vec<(i64, i64)> = default_ranges
            .clone()
            .or_else(|| ctx.map(|c| c.ranges.clone()))
            .unwrap_or_default(); // empty: the tests fall back to wide ranges
        let params = program.default_param_values();
        if default_ranges.is_some() {
            let excluded = a
                .reference
                .subscripts
                .iter()
                .zip(&b.reference.subscripts)
                .any(|(s1, s2)| {
                    !banerjee_test(&s1.bind_params(&params), &s2.bind_params(&params), &ranges)
                });
            if excluded {
                continue;
            }
        }
        for dv in enumerate_directions(&a.reference, &b.reference, &ranges) {
            if !legal_for_direction(t, &dv, &ranges) {
                diags.push(Diagnostic::new(
                    Code::LegalityDirection,
                    Anchor::Stmt(a.stmt_index),
                    format!(
                        "direction vector {dv} between non-uniform references of array \
                         '{}' is not provably preserved by T",
                        program.array(a.reference.array).name
                    ),
                ));
            }
        }
    }
}

/// Per-variable iteration ranges at the program's default parameters,
/// walked exactly when the space is small enough; `None` otherwise.
fn walk_ranges(program: &Program) -> Option<Vec<(i64, i64)>> {
    const WALK_LIMIT: u64 = 200_000;
    let params = program.default_param_values();
    let n = program.nest.depth();
    if !matches!(
        program.nest.iteration_count_capped(&params, WALK_LIMIT),
        Ok(Some(_))
    ) {
        return None;
    }
    let mut ranges = vec![(i64::MAX, i64::MIN); n];
    program
        .nest
        .for_each_iteration(&params, |pt| {
            for (k, &v) in pt.iter().enumerate() {
                ranges[k].0 = ranges[k].0.min(v);
                ranges[k].1 = ranges[k].1.max(v);
            }
        })
        .ok()?;
    for r in &mut ranges {
        if r.0 > r.1 {
            *r = (0, 0);
        }
    }
    Some(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::apply_transform;
    use an_linalg::IMatrix;

    fn ctx_for(p: &Program, t: &TransformedProgram) -> ConcreteContext {
        ConcreteContext::build(p, &t.program, 4096).unwrap()
    }

    #[test]
    fn legal_transform_is_clean() {
        let p = an_lang::parse(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        )
        .unwrap();
        let t = IMatrix::from_rows(&[&[-1, 1, 0], &[0, 1, 1], &[1, 0, 0]]);
        let tp = apply_transform(&p, &t).unwrap();
        let ctx = ctx_for(&p, &tp);
        let mut diags = Vec::new();
        check_legality(&p, &tp, Some(&ctx), &mut diags, &mut Vec::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reversal_of_carrying_loop_is_flagged() {
        // A[i+1] = A[i]: distance (1). Reversal maps it to (-1).
        let p = an_lang::parse(
            "param N = 8;
             array A[N + 1];
             for i = 0, N - 1 { A[i + 1] = A[i] + 1.0; }",
        )
        .unwrap();
        let t = IMatrix::from_rows(&[&[-1]]);
        let tp = apply_transform(&p, &t).unwrap();
        let ctx = ctx_for(&p, &tp);
        let mut diags = Vec::new();
        check_legality(&p, &tp, Some(&ctx), &mut diags, &mut Vec::new());
        assert!(
            diags.iter().any(|d| d.code == Code::LegalityDistance),
            "{diags:?}"
        );
    }

    #[test]
    fn interchange_over_transpose_pair_uses_directions() {
        // A[i, j] = A[j, i] — non-uniform; interchange cannot be
        // certified for the (>, <) direction.
        let p = an_lang::parse(
            "param N = 6;
             array A[N, N];
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[i, j] = A[j, i] + 1.0;
             } }",
        )
        .unwrap();
        let t = IMatrix::from_rows(&[&[0, 1], &[1, 0]]);
        let tp = apply_transform(&p, &t).unwrap();
        let ctx = ctx_for(&p, &tp);
        let mut diags = Vec::new();
        check_legality(&p, &tp, Some(&ctx), &mut diags, &mut Vec::new());
        assert!(
            diags.iter().any(|d| d.code == Code::LegalityDirection),
            "{diags:?}"
        );
    }
}
