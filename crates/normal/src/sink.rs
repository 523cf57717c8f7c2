//! Statement sinking: perfecting imperfect nests.
//!
//! A body of the form `S₁; …; S_k; for …` (statements *before* a
//! nested loop) is imperfectly nested. Sinking moves the statements to
//! the front of the innermost body, making the nest perfect, at the
//! cost of re-executing them once per inner iteration. That is
//! semantics-preserving iff:
//!
//! * **Idempotence** — re-executions compute and store the very same
//!   values: each statement's reads and writes must be element-wise
//!   disjoint from the subtree's writes (writes *read* by the subtree
//!   are fine: the first sunk execution happens before any subtree
//!   statement of the same iteration, and later re-executions rewrite
//!   the same value). Within a group, a statement's writes must be
//!   disjoint from its siblings' reads and writes.
//! * **Execution** — every inner loop on the path must execute at
//!   least once per outer iteration (`upper ≥ lower`), otherwise the
//!   sunk statement would be skipped where the original ran.
//!
//! Disjointness for references to the *same* array is proven per
//! dimension: subscripts whose difference `δ` satisfies `δ ≥ 1` or
//! `δ ≤ −1` over the whole iteration box (see [`crate::proof`]) can
//! never collide. Statements after the loop would need hoisting, not
//! sinking, and are rejected (`AN0607`).

use crate::lin::Lin;
use crate::proof::{Level, ProofCtx};
use crate::{Code, Ctx, Diagnostic, Mutation};
use an_diag::Anchor;
use an_lang::ast::{AstBody, AstExpr, AstItem, AstLoop, AstProgram, AstStmt};
use an_lang::token::Pos;

pub fn run(ast: &mut AstProgram, ctx: &mut Ctx) {
    let assumes = ast
        .assumes
        .iter()
        .filter_map(|a| Some(Lin::from_ast(&a.lhs)?.sub(&Lin::from_ast(&a.rhs)?)))
        .collect();
    let mut proof = ProofCtx::new(assumes);
    visit(&mut ast.nest, &mut proof, ctx);
}

fn level_of(l: &AstLoop) -> Level {
    Level {
        var: l.var.clone(),
        lowers: l.lowers.iter().filter_map(Lin::from_ast).collect(),
        uppers: l.uppers.iter().filter_map(Lin::from_ast).collect(),
    }
}

fn visit(l: &mut AstLoop, proof: &mut ProofCtx, ctx: &mut Ctx) {
    proof.push_level(level_of(l));
    // Bottom-up: perfect the inner loops first, so statements sunk at
    // this level land in front of statements sunk deeper (preserving
    // original execution order within each innermost iteration).
    match &mut l.body {
        AstBody::Nested(inner) => visit(inner, proof, ctx),
        AstBody::Stmts(_) => {}
        AstBody::Mixed(items) => {
            for item in items.iter_mut() {
                if let AstItem::Loop(inner) = item {
                    visit(inner, proof, ctx);
                }
            }
        }
    }
    if matches!(l.body, AstBody::Mixed(_)) {
        sink_mixed(l, proof, ctx);
    }
    proof.pop_level();
}

/// One array reference: name plus linearized subscripts (`None` where a
/// subscript could not be linearized — that dimension proves nothing).
struct Ref {
    array: String,
    subs: Vec<Option<Lin>>,
}

fn stmt_write(s: &AstStmt) -> Ref {
    Ref {
        array: s.array.clone(),
        subs: s.subscripts.iter().map(Lin::from_ast).collect(),
    }
}

fn expr_reads(e: &AstExpr, out: &mut Vec<Ref>) {
    match e {
        AstExpr::Num(..) => {}
        AstExpr::Ref(name, subs, _) => {
            // Bare identifiers are scalar coefficients, not memory.
            if !subs.is_empty() {
                out.push(Ref {
                    array: name.clone(),
                    subs: subs.iter().map(Lin::from_ast).collect(),
                });
            }
        }
        AstExpr::Neg(a, _) => expr_reads(a, out),
        AstExpr::Bin(_, a, b, _) => {
            expr_reads(a, out);
            expr_reads(b, out);
        }
    }
}

fn subtree_refs(l: &AstLoop, writes: &mut Vec<Ref>, reads: &mut Vec<Ref>) {
    match &l.body {
        AstBody::Nested(inner) => subtree_refs(inner, writes, reads),
        AstBody::Stmts(stmts) => {
            for s in stmts {
                writes.push(stmt_write(s));
                expr_reads(&s.rhs, reads);
            }
        }
        AstBody::Mixed(items) => {
            for item in items {
                match item {
                    AstItem::Loop(inner) => subtree_refs(inner, writes, reads),
                    AstItem::Assign(s) => {
                        writes.push(stmt_write(s));
                        expr_reads(&s.rhs, reads);
                    }
                    AstItem::Scalar(_) => {}
                }
            }
        }
    }
}

/// Proves `a` and `b` can never address the same element.
fn disjoint(a: &Ref, b: &Ref, proof: &ProofCtx) -> bool {
    if a.array != b.array {
        return true;
    }
    a.subs.iter().zip(&b.subs).any(|(sa, sb)| {
        let (Some(sa), Some(sb)) = (sa, sb) else {
            return false;
        };
        let delta = sb.sub(sa);
        proof.prove_nonneg(&delta.sub(&Lin::num(1)))
            || proof.prove_nonneg(&delta.scale(-1).sub(&Lin::num(1)))
    })
}

/// Pushes every level of `t` onto the proof stack, proving each
/// executes at least once. Returns the failing loop's name on failure
/// (stack is restored by the caller via `truncate`).
fn push_subtree_proven(t: &AstLoop, proof: &mut ProofCtx) -> Result<(), String> {
    let lows: Vec<Lin> = t.lowers.iter().filter_map(Lin::from_ast).collect();
    let ups: Vec<Lin> = t.uppers.iter().filter_map(Lin::from_ast).collect();
    if lows.len() != t.lowers.len() || ups.len() != t.uppers.len() {
        return Err(t.var.clone());
    }
    let nonempty = lows
        .iter()
        .all(|lo| ups.iter().all(|up| proof.prove_nonneg(&up.sub(lo))));
    if !nonempty {
        return Err(t.var.clone());
    }
    proof.push_level(level_of(t));
    match &t.body {
        AstBody::Nested(inner) => push_subtree_proven(inner, proof),
        AstBody::Stmts(_) => Ok(()),
        AstBody::Mixed(_) => Err(t.var.clone()), // deeper sinking already failed
    }
}

fn sink_mixed(l: &mut AstLoop, proof: &mut ProofCtx, ctx: &mut Ctx) {
    let AstBody::Mixed(items) = &mut l.body else {
        return;
    };
    // Partition: leading assignments, then exactly one loop, nothing
    // after. Leftover scalars mean the induction pass already errored.
    if items.iter().any(|i| matches!(i, AstItem::Scalar(_))) {
        return;
    }
    let Some(loop_idx) = items.iter().position(|i| matches!(i, AstItem::Loop(_))) else {
        return; // classify() would have made this Stmts
    };
    let mut ok = true;
    for (idx, item) in items.iter().enumerate().skip(loop_idx + 1) {
        let pos = match item {
            AstItem::Loop(inner) => {
                ctx.push(
                    Diagnostic::new(
                        Code::UnsinkableStatement,
                        Anchor::Program,
                        format!(
                            "loop `{}` shares its parent body with another loop; \
                             sinking applies to a single inner loop",
                            inner.var
                        ),
                    )
                    .with_help("split the outer loop so each body nests one loop")
                    .at(inner.pos),
                );
                ok = false;
                continue;
            }
            AstItem::Assign(s) => s.pos,
            AstItem::Scalar(s) => s.pos,
        };
        let _ = idx;
        ctx.push(
            Diagnostic::new(
                Code::UnsinkableStatement,
                Anchor::Program,
                "statement after the inner loop would need hoisting, not sinking".to_string(),
            )
            .with_help("move the statement before the loop, or into a separate nest")
            .at(pos),
        );
        ok = false;
    }
    if !ok {
        return;
    }

    // Safety of the group against the subtree.
    let AstItem::Loop(subtree) = &items[loop_idx] else {
        unreachable!()
    };
    let mut t_writes = Vec::new();
    let mut t_reads = Vec::new();
    subtree_refs(subtree, &mut t_writes, &mut t_reads);

    let pre: Vec<&AstStmt> = items[..loop_idx]
        .iter()
        .map(|i| match i {
            AstItem::Assign(s) => s,
            _ => unreachable!("leading items are assignments"),
        })
        .collect();

    let depth_before = proof.depth();
    let trip = push_subtree_proven(subtree, proof);
    let mut failed = Vec::new(); // positions of statements that cannot sink
    match trip {
        Err(var) => {
            for s in &pre {
                ctx.push(
                    Diagnostic::new(
                        Code::UnsinkableStatement,
                        Anchor::Program,
                        format!(
                            "cannot prove inner loop `{var}` always executes; sinking \
                             this statement could skip it"
                        ),
                    )
                    .with_help(
                        "add an `assume` making the loop provably non-empty \
                         (upper ≥ lower), or perfect the nest by hand",
                    )
                    .at(s.pos),
                );
                failed.push(s.pos);
            }
        }
        Ok(()) => {
            for (i, s) in pre.iter().enumerate() {
                let w = stmt_write(s);
                let mut reads = Vec::new();
                expr_reads(&s.rhs, &mut reads);
                let mut clash = t_writes
                    .iter()
                    .find(|tw| !disjoint(&w, tw, proof))
                    .map(|tw| {
                        format!(
                            "its write to `{}` may collide with the loop's writes to `{}`",
                            w.array, tw.array
                        )
                    });
                if clash.is_none() {
                    clash = reads
                        .iter()
                        .find(|r| t_writes.iter().any(|tw| !disjoint(r, tw, proof)))
                        .map(|r| {
                            format!("its read of `{}` may see values the loop writes", r.array)
                        });
                }
                if clash.is_none() {
                    // Group interference: siblings must not touch what
                    // this statement writes, nor write what it reads.
                    clash = pre
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .find_map(|(_, o)| {
                            let ow = stmt_write(o);
                            let mut oreads = Vec::new();
                            expr_reads(&o.rhs, &mut oreads);
                            if !disjoint(&w, &ow, proof)
                                || oreads.iter().any(|r| !disjoint(&w, r, proof))
                                || reads.iter().any(|r| !disjoint(&ow, r, proof))
                            {
                                Some(format!(
                                    "it interferes with the sibling statement writing `{}`",
                                    ow.array
                                ))
                            } else {
                                None
                            }
                        });
                }
                if let Some(why) = clash {
                    ctx.push(
                        Diagnostic::new(
                            Code::UnsinkableStatement,
                            Anchor::Program,
                            format!("statement cannot be sunk into the inner loop: {why}"),
                        )
                        .with_help(
                            "re-executing the statement once per inner iteration would \
                             change the values stored; restructure the nest by hand",
                        )
                        .at(s.pos),
                    );
                    failed.push(s.pos);
                }
            }
        }
    }
    proof.truncate(depth_before);
    if !failed.is_empty() {
        return;
    }

    // All checks passed: move the statements.
    let positions: Vec<Pos> = pre.iter().map(|s| s.pos).collect();
    let mut moved: Vec<AstStmt> = Vec::with_capacity(pre.len());
    let mut inner: Option<AstLoop> = None;
    for item in items.drain(..) {
        match item {
            AstItem::Assign(s) => moved.push(s),
            AstItem::Loop(t) => inner = Some(t),
            AstItem::Scalar(_) => unreachable!("checked above"),
        }
    }
    let mut inner = inner.expect("loop located above");
    if ctx.mutation == Some(Mutation::SinkDelete) {
        // Fault injection: drop the statements instead of sinking them.
    } else {
        let dest = innermost_stmts(&mut inner).expect("subtree proven perfect");
        moved.append(dest);
        *dest = moved;
    }
    l.body = AstBody::Nested(Box::new(inner));
    ctx.changed = true;
    for pos in positions {
        ctx.push(
            Diagnostic::new(
                Code::ImperfectNest,
                Anchor::Program,
                "statement sunk into the innermost loop body to perfect the nest".to_string(),
            )
            .with_help("re-execution is provably idempotent and the inner loops never run empty")
            .at(pos),
        );
    }
}

fn innermost_stmts(l: &mut AstLoop) -> Option<&mut Vec<AstStmt>> {
    match &mut l.body {
        AstBody::Nested(inner) => innermost_stmts(inner),
        AstBody::Stmts(stmts) => Some(stmts),
        AstBody::Mixed(_) => None,
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
    fn sinks_boundary_statement_with_disjointness_proof() {
        // B[i, 0] never collides with B[i, j] for j ≥ 1, and the inner
        // loop runs because N ≥ 3.
        let (ast, report, changed) = run_pass(
            "param N = 8; assume N >= 3;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               B[i, 0] = A[i, 0];
               for j = 1, N - 2 {
                 B[i, j] = A[i, j] * 0.5;
               }
             }",
        );
        assert!(changed, "{}", report.render_human());
        assert!(!report.has_errors(), "{}", report.render_human());
        assert_eq!(report.codes(), vec![Code::ImperfectNest]);
        let p = an_lang::lower::lower(&ast).expect("perfect after sinking");
        assert_eq!(p.nest.body.len(), 2);
        // The sunk statement executes first.
        let an_ir::Stmt::Assign { lhs, .. } = &p.nest.body[0] else {
            panic!("expected assignment");
        };
        assert_eq!(lhs.subscripts[1].var_coeffs(), &[0, 0]);
    }

    #[test]
    fn write_overlap_is_an0607() {
        // The pre-statement writes B[i, 1], inside the inner loop's
        // write range: re-execution would clobber iteration j = 1.
        let (_, report, _) = run_pass(
            "param N = 8; assume N >= 3;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               B[i, 1] = A[i, 0];
               for j = 1, N - 2 {
                 B[i, j] = A[i, j] * 0.5;
               }
             }",
        );
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::UnsinkableStatement]);
    }

    #[test]
    fn unproven_trip_count_is_an0607() {
        // Without `assume N >= 3` the inner loop may be empty.
        let (_, report, _) = run_pass(
            "param N = 8;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               B[i, 0] = A[i, 0];
               for j = 1, N - 2 {
                 B[i, j] = A[i, j] * 0.5;
               }
             }",
        );
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::UnsinkableStatement]);
    }

    #[test]
    fn post_statement_is_an0607() {
        let (_, report, _) = run_pass(
            "param N = 8; assume N >= 3;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               for j = 1, N - 2 { B[i, j] = A[i, j]; }
               B[i, 0] = A[i, 0];
             }",
        );
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::UnsinkableStatement]);
    }

    #[test]
    fn read_of_subtree_write_is_an0607() {
        // The pre-statement reads B[i, 1] which the loop writes.
        let (_, report, _) = run_pass(
            "param N = 8; assume N >= 3;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               A[i, 0] = B[i, 1];
               for j = 1, N - 2 {
                 B[i, j] = A[i, j] * 0.5;
               }
             }",
        );
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![Code::UnsinkableStatement]);
    }

    #[test]
    fn write_read_by_subtree_is_allowed() {
        // The pre-statement writes B[i, 0]; the loop only READS B and
        // writes A — order is preserved and re-execution idempotent.
        let (ast, report, _) = run_pass(
            "param N = 8; assume N >= 3;
             array A[N, N]; array B[N, N];
             for i = 0, N - 1 {
               B[i, 0] = 2.0;
               for j = 1, N - 2 {
                 A[i, j] = B[i, 0] + B[i, j];
               }
             }",
        );
        assert!(!report.has_errors(), "{}", report.render_human());
        an_lang::lower::lower(&ast).expect("perfect after sinking");
    }
}
