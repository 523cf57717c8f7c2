//! Stride normalization.
//!
//! `for i = lo, hi step s { … }` visits `i = lo, lo+s, …`. When `s`
//! divides every coefficient of `hi − lo` (so the division is exact for
//! *every* parameter valuation), the loop is rewritten to the unit
//! stride `for i = 0, (hi−lo)/s` with `i ↦ lo + s·i` substituted
//! throughout the subtree. Only exact divisions are taken: anything
//! requiring floor division would push divisors into the dependence and
//! bound machinery downstream, so inexact strides are `AN0603` errors
//! instead. Descending steps are out of scope (`AN0608`).

use crate::lin::Lin;
use crate::{Code, Ctx, Diagnostic, Mutation};
use an_diag::{Anchor, Severity};
use an_lang::ast::{AstAffine, AstBody, AstExpr, AstItem, AstLoop, AstProgram};

pub fn run(ast: &mut AstProgram, ctx: &mut Ctx) {
    visit(&mut ast.nest, ctx);
}

fn visit(l: &mut AstLoop, ctx: &mut Ctx) {
    normalize_header(l, ctx);
    match &mut l.body {
        AstBody::Nested(inner) => visit(inner, ctx),
        AstBody::Stmts(_) => {}
        AstBody::Mixed(items) => {
            for item in items {
                if let AstItem::Loop(inner) = item {
                    visit(inner, ctx);
                }
            }
        }
    }
}

fn normalize_header(l: &mut AstLoop, ctx: &mut Ctx) {
    let Some(step) = l.step else { return };
    if step.value == 1 {
        l.step = None;
        ctx.changed = true;
        ctx.push(
            Diagnostic::new(
                Code::NonUnitStride,
                Anchor::Program,
                format!("redundant `step 1` on loop `{}` removed", l.var),
            )
            .at(step.pos),
        );
        return;
    }
    if step.value < 0 {
        ctx.push(
            Diagnostic::new(
                Code::BadStep,
                Anchor::Program,
                format!(
                    "loop `{}` descends with step {}; descending loops are not supported",
                    l.var, step.value
                ),
            )
            .with_help("rewrite the loop to ascend over the same set of values")
            .at(step.pos),
        );
        return;
    }
    if l.lowers.len() != 1 || l.uppers.len() != 1 {
        ctx.push(
            Diagnostic::new(
                Code::NonUnitStride,
                Anchor::Program,
                format!(
                    "cannot normalize step {} on loop `{}` with max/min bounds",
                    step.value, l.var
                ),
            )
            .with_severity(Severity::Error)
            .with_help("split the loop or simplify its bounds to single affine expressions")
            .at(step.pos),
        );
        return;
    }
    let (Some(lo), Some(hi)) = (Lin::from_ast(&l.lowers[0]), Lin::from_ast(&l.uppers[0])) else {
        return; // induction errors upstream; nothing more to say here
    };
    let range = hi.sub(&lo);
    if !range.divisible_by(step.value) {
        ctx.push(
            Diagnostic::new(
                Code::NonUnitStride,
                Anchor::Program,
                format!(
                    "step {} does not divide the iteration range of loop `{}` exactly",
                    step.value, l.var
                ),
            )
            .with_severity(Severity::Error)
            .with_help(format!(
                "make (upper − lower) a multiple of {} so the rewrite is exact \
                 for every parameter valuation",
                step.value
            ))
            .at(step.pos),
        );
        return;
    }

    // i ∈ {lo, lo+s, …, hi}  ⇒  i = lo + s·i′, i′ ∈ 0 ‥ (hi−lo)/s.
    let pos = step.pos;
    let mut new_hi = range.div_exact(step.value);
    if ctx.mutation == Some(Mutation::StrideTruncate) {
        new_hi = new_hi.sub(&Lin::num(1));
    }
    let lo_ast = l.lowers[0].clone();
    let replacement = AstAffine::Add(
        Box::new(lo_ast),
        Box::new(AstAffine::Mul(
            Box::new(AstAffine::Num(step.value, pos)),
            Box::new(AstAffine::Ident(l.var.clone(), pos)),
            pos,
        )),
        pos,
    );
    l.lowers = vec![AstAffine::Num(0, pos)];
    l.uppers = vec![new_hi.to_ast(pos)];
    l.step = None;
    subst_var_body(&mut l.body, &l.var, &replacement);
    ctx.changed = true;
    ctx.push(
        Diagnostic::new(
            Code::NonUnitStride,
            Anchor::Program,
            format!(
                "loop `{}` normalized from step {} to unit stride",
                l.var, step.value
            ),
        )
        .with_help(format!(
            "uses of `{}` in the subtree were rewritten to `lower + {}·{}`",
            l.var, step.value, l.var
        ))
        .at(pos),
    );
}

fn subst_var_affine(e: &mut AstAffine, var: &str, replacement: &AstAffine) {
    match e {
        AstAffine::Num(..) => {}
        AstAffine::Ident(name, _) => {
            if name == var {
                *e = replacement.clone();
            }
        }
        AstAffine::Neg(a, _) => subst_var_affine(a, var, replacement),
        AstAffine::Add(a, b, _) | AstAffine::Sub(a, b, _) | AstAffine::Mul(a, b, _) => {
            subst_var_affine(a, var, replacement);
            subst_var_affine(b, var, replacement);
        }
    }
}

fn subst_var_expr(e: &mut AstExpr, var: &str, replacement: &AstAffine) {
    match e {
        AstExpr::Num(..) => {}
        AstExpr::Ref(_, subs, _) => {
            for s in subs {
                subst_var_affine(s, var, replacement);
            }
        }
        AstExpr::Neg(a, _) => subst_var_expr(a, var, replacement),
        AstExpr::Bin(_, a, b, _) => {
            subst_var_expr(a, var, replacement);
            subst_var_expr(b, var, replacement);
        }
    }
}

fn subst_var_loop(l: &mut AstLoop, var: &str, replacement: &AstAffine) {
    // An inner loop reusing the name shadows it; stop substituting.
    if l.var == var {
        return;
    }
    for b in l.lowers.iter_mut().chain(l.uppers.iter_mut()) {
        subst_var_affine(b, var, replacement);
    }
    subst_var_body(&mut l.body, var, replacement);
}

fn subst_var_body(body: &mut AstBody, var: &str, replacement: &AstAffine) {
    match body {
        AstBody::Nested(inner) => subst_var_loop(inner, var, replacement),
        AstBody::Stmts(stmts) => {
            for s in stmts {
                for sub in &mut s.subscripts {
                    subst_var_affine(sub, var, replacement);
                }
                subst_var_expr(&mut s.rhs, var, replacement);
            }
        }
        AstBody::Mixed(items) => {
            for item in items {
                match item {
                    AstItem::Loop(inner) => subst_var_loop(inner, var, replacement),
                    AstItem::Assign(s) => {
                        for sub in &mut s.subscripts {
                            subst_var_affine(sub, var, replacement);
                        }
                        subst_var_expr(&mut s.rhs, var, replacement);
                    }
                    AstItem::Scalar(s) => subst_var_affine(&mut s.rhs, var, replacement),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintReport;

    fn run_pass(src: &str) -> (AstProgram, LintReport, bool) {
        let mut ast = an_lang::parser::parse_tokens(&an_lang::lexer::lex(src).unwrap()).unwrap();
        let mut report = LintReport::with_label("lint");
        let mut ctx = Ctx {
            report: &mut report,
            mutation: None,
            changed: false,
        };
        run(&mut ast, &mut ctx);
        let changed = ctx.changed;
        (ast, report, changed)
    }

    #[test]
    fn exact_stride_is_normalized() {
        let (ast, report, changed) = run_pass(
            "param N = 8; array A[2 * N - 1];
             for i = 0, 2 * N - 2 step 2 { A[i] = 1.0; }",
        );
        assert!(changed);
        assert!(!report.has_errors(), "{}", report.render_human());
        let p = an_lang::lower::lower(&ast).expect("unit stride lowers");
        // New domain 0‥N−1; subscript 0 + 2·i.
        assert_eq!(p.nest.iteration_count(&[8]).unwrap(), 8);
        let an_ir::Stmt::Assign { lhs, .. } = &p.nest.body[0] else {
            panic!("expected assignment");
        };
        assert_eq!(lhs.subscripts[0].var_coeffs(), &[2]);
    }

    #[test]
    fn inexact_stride_is_an0603_error() {
        let (_, report, _) = run_pass(
            "param N = 8; array A[N];
             for i = 0, N - 1 step 2 { A[i] = 1.0; }",
        );
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::NonUnitStride]);
    }

    #[test]
    fn descending_step_is_an0608() {
        let (_, report, _) = run_pass("array A[10]; for i = 9, 0 step -1 { A[i] = 1.0; }");
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::BadStep]);
    }

    #[test]
    fn redundant_step_one_is_dropped() {
        let (ast, report, changed) = run_pass("array A[10]; for i = 0, 9 step 1 { A[i] = 1.0; }");
        assert!(changed);
        assert!(!report.has_errors());
        assert!(ast.nest.step.is_none());
    }

    #[test]
    fn substitution_reaches_inner_bounds_and_rhs() {
        let (ast, report, _) = run_pass(
            "param N = 4; array B[4 * N, 4 * N];
             for i = 0, 4 * N - 4 step 4 {
               for j = i, 4 * N - 1 { B[i, j] = B[i, j] * 2.0; }
             }",
        );
        assert!(!report.has_errors(), "{}", report.render_human());
        let p = an_lang::lower::lower(&ast).unwrap();
        // Inner lower bound references 4·i now.
        assert_eq!(p.nest.iteration_count(&[1]).unwrap(), 4);
    }
}
