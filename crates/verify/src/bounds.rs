//! Invariant family 2 — bounds soundness.
//!
//! The transformed nest must scan *exactly* the image of the original
//! iteration space: `{U·t : t scanned} = {original iterations}`, with
//! `H = T·U`. Three independent angles:
//!
//! - bookkeeping: the factorization `H = T·U` itself (exact integer
//!   matrix arithmetic);
//! - symbolic: mutual inclusion of the two constraint systems via
//!   Fourier–Motzkin implication in `an-poly`;
//! - concrete: per-point set comparison on a small parameter
//!   instantiation, cross-checked by a differential interpreter run
//!   against the original's state kept in the [`ConcreteContext`].

use crate::diag::{Anchor, Code, Diagnostic};
use crate::oracle::ConcreteContext;
use an_codegen::TransformedProgram;
use an_ir::Program;

/// Runs the bounds checks, appending findings to `diags`. Returns
/// `false` when the lattice bookkeeping is broken (dependent checks
/// should then be skipped).
pub fn check_bounds(
    program: &Program,
    transformed: &TransformedProgram,
    ctx: Option<&ConcreteContext>,
    diags: &mut Vec<Diagnostic>,
    notes: &mut Vec<String>,
) -> bool {
    // Bookkeeping: H = T·U with U unimodular and T invertible. Everything
    // else interprets points through these matrices, so a mismatch here
    // invalidates the rest.
    let t = &transformed.transform;
    let u = &transformed.unimodular;
    let h = &transformed.hnf;
    let consistent =
        t.is_invertible() && u.is_unimodular() && t.mul(u).map(|tu| &tu == h).unwrap_or(false);
    if !consistent {
        diags.push(Diagnostic::new(
            Code::BoundsBookkeeping,
            Anchor::Program,
            "lattice bookkeeping inconsistent: H != T*U, or T singular, or U \
             not unimodular"
                .to_string(),
        ));
        return false;
    }

    // Symbolic inclusion: S_img (original constraints pulled back through
    // old = U·t) versus S_t (the emitted bounds), both under the
    // program's assumptions.
    // The pull-back can overflow i64 for adversarial coefficients; the
    // symbolic angle then degrades to "inconclusive" and the concrete
    // cross-check carries the verdict.
    let t_space = &transformed.program.nest.space;
    let (img_implies_t, t_implies_img) =
        match program.nest.constraint_system().substitute_vars(u, t_space) {
            Ok(mut sys_img) => {
                let mut sys_t = transformed.program.nest.constraint_system();
                for a in &transformed.program.assumptions {
                    sys_img.add(a);
                    sys_t.add(a);
                }
                (
                    sys_t.inequalities().is_empty()
                        || sys_t.inequalities().iter().all(|e| sys_img.implies(e)),
                    sys_img.inequalities().is_empty()
                        || sys_img.inequalities().iter().all(|e| sys_t.implies(e)),
                )
            }
            Err(_) => (false, false),
        };
    if img_implies_t && t_implies_img {
        notes.push("transformed bounds proven equivalent symbolically".to_string());
    } else if ctx.is_none() {
        diags.push(Diagnostic::new(
            Code::BoundsUnproven,
            Anchor::Program,
            format!(
                "symbolic bound inclusion inconclusive ({}) and the iteration \
                 space is too large for a concrete cross-check",
                if img_implies_t {
                    "emitted bounds may be too tight"
                } else {
                    "emitted bounds may be too loose"
                }
            ),
        ));
    } else {
        notes.push(
            "symbolic bound inclusion inconclusive; relying on the concrete \
             cross-check"
                .to_string(),
        );
    }

    // Concrete set comparison and differential oracle. The original
    // points are enumerated in lexicographic order, so membership of
    // `U·t` is a binary search, and the first uncovered point is the
    // smallest dropped one.
    let Some(ctx) = ctx else { return true };
    let original = &ctx.original_points;
    let mut covered = vec![false; original.len()];
    let (mut extra, mut first_extra) = (0usize, None);
    let mut old = Vec::with_capacity(u.rows());
    for tp in &ctx.transformed_points {
        u.mul_vec_into(tp, &mut old)
            .expect("lattice coordinate arity");
        match original.binary_search_by(|p| p.as_slice().cmp(&old)) {
            Ok(i) => covered[i] = true,
            Err(_) => {
                extra += 1;
                first_extra.get_or_insert_with(|| old.clone());
            }
        }
    }
    let dropped = covered.iter().filter(|&&c| !c).count();
    if let Some(first) = first_extra {
        diags.push(Diagnostic::new(
            Code::BoundsExtra,
            Anchor::Program,
            format!(
                "transformed nest scans {extra} point(s) outside the original space \
                 at params {:?}, e.g. original-coordinate {first:?}",
                ctx.params,
            ),
        ));
    }
    if let Some(first) = covered.iter().position(|&c| !c) {
        diags.push(Diagnostic::new(
            Code::BoundsDropped,
            Anchor::Program,
            format!(
                "transformed nest drops {dropped} original iteration(s) at params {:?}, \
                 e.g. {:?}",
                ctx.params, original[first]
            ),
        ));
    }

    // Differential oracle: only meaningful when the iteration sets agree
    // (extra points would fault or double-write, masking the comparison).
    // Both runs are the context's.
    if extra == 0 && dropped == 0 {
        match ctx.transformed_store() {
            Ok(after) => {
                let diff = ctx.original_store.max_abs_diff(after);
                if diff > 1e-12 {
                    diags.push(Diagnostic::new(
                        Code::DifferentialMismatch,
                        Anchor::Program,
                        format!(
                            "interpreter results differ between original and \
                             transformed programs (max |delta| = {diff:e}) at \
                             params {:?}",
                            ctx.params
                        ),
                    ));
                }
            }
            Err(e) => diags.push(Diagnostic::new(
                Code::DifferentialMismatch,
                Anchor::Program,
                format!("transformed program fails to interpret: {e}"),
            )),
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::apply_transform;
    use an_linalg::IMatrix;

    fn fig1() -> (Program, TransformedProgram) {
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
        (p, tp)
    }

    #[test]
    fn correct_transform_passes_all_angles() {
        let (p, tp) = fig1();
        let ctx = ConcreteContext::build(&p, &tp.program, 4096).unwrap();
        let mut diags = Vec::new();
        let mut notes = Vec::new();
        let ok = check_bounds(&p, &tp, Some(&ctx), &mut diags, &mut notes);
        assert!(ok);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn narrowed_bound_drops_iterations() {
        let (p, mut tp) = fig1();
        let last = tp.program.nest.bounds.len() - 1;
        let one = an_poly::Affine::constant(&tp.program.nest.space, 1);
        tp.program.nest.bounds[last].uppers[0].expr =
            tp.program.nest.bounds[last].uppers[0].expr.sub(&one);
        let ctx = ConcreteContext::build(&p, &tp.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_bounds(&p, &tp, Some(&ctx), &mut diags, &mut Vec::new());
        assert!(
            diags.iter().any(|d| d.code == Code::BoundsDropped),
            "{diags:?}"
        );
    }

    /// `code: message` of every finding of the bounds check on `tp`.
    fn messages(p: &Program, tp: &TransformedProgram) -> Vec<String> {
        let ctx = ConcreteContext::build(p, &tp.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_bounds(p, tp, Some(&ctx), &mut diags, &mut Vec::new());
        diags
            .into_iter()
            .map(|d| format!("{}: {}", d.code.as_str(), d.message))
            .collect()
    }

    /// Adds `delta` to the first upper bound term of the innermost level.
    fn nudge_innermost(tp: &mut TransformedProgram, delta: i64) {
        let last = tp.program.nest.bounds.len() - 1;
        let shift = an_poly::Affine::constant(&tp.program.nest.space, delta);
        let upper = &mut tp.program.nest.bounds[last].uppers[0].expr;
        *upper = upper.add(&shift);
    }

    #[test]
    fn dropped_iterations_are_counted_and_the_smallest_is_the_witness() {
        let (p, mut tp) = fig1();
        // The innermost level is `w = i`; its upper `N1 - 1` loses one,
        // so all 3 · 4 iterations at i = 4 go, (4, 4, 0) the smallest.
        nudge_innermost(&mut tp, -1);
        assert_eq!(
            messages(&p, &tp),
            [
                "AN0201: transformed nest drops 12 original iteration(s) at params \
                 [5, 3, 4], e.g. [4, 4, 0]"
            ]
        );
    }

    #[test]
    fn extra_points_are_counted_and_the_first_scanned_is_the_witness() {
        let (p, mut tp) = fig1();
        // i = 5 is scanned; the first such lattice point in scan order
        // is (u, v, w) = (0, 5, 5), i.e. (i, j, k) = (5, 5, 0).
        nudge_innermost(&mut tp, 1);
        assert_eq!(
            messages(&p, &tp),
            [
                "AN0202: transformed nest scans 9 point(s) outside the original \
                 space at params [5, 3, 4], e.g. original-coordinate [5, 5, 0]"
            ]
        );
    }

    #[test]
    fn broken_bookkeeping_is_flagged_first() {
        let (p, mut tp) = fig1();
        tp.hnf = IMatrix::identity(3).scale(2);
        let mut diags = Vec::new();
        let ok = check_bounds(&p, &tp, None, &mut diags, &mut Vec::new());
        assert!(!ok);
        assert_eq!(diags[0].code, Code::BoundsBookkeeping);
    }
}
