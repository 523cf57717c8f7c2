//! Differential validation of applied rewrites.
//!
//! Whenever normalization changed the program, the original messy AST
//! is executed by [`crate::eval`] and the normalized program by the IR
//! interpreter, over identical seeded stores, and the final array
//! states are compared **bitwise**. Any divergence is an `AN0609`
//! error: the rewrite must not be trusted. The seeded mutation harness
//! in the workspace tests relies on this check to catch deliberately
//! broken rewrite rules.

use crate::eval::{self, EvalError};
use crate::{Code, Diagnostic, LintReport};
use an_diag::Anchor;
use an_lang::ast::AstProgram;

/// Caps on the concrete check: parameters are shrunk toward these until
/// the nest fits the iteration budget.
const PARAM_CAPS: [i64; 6] = [16, 8, 6, 4, 3, 2];
const ITERATION_BUDGET: u64 = 200_000;

pub fn run(original: &AstProgram, normalized: &AstProgram, seed: u64, report: &mut LintReport) {
    let Ok(lowered) = an_lang::lower::lower(normalized) else {
        // The normalized program does not lower (error lints exist or a
        // construct outside this pass's scope); the facade surfaces the
        // lowering error itself.
        return;
    };
    let Some(values) = choose_params(&lowered) else {
        report
            .notes
            .push("differential check skipped: no parameter valuation fits the budget".to_string());
        return;
    };

    let canonical = an_ir::interp::run_seeded(&lowered, &values, seed);
    let mut messy_store = an_ir::interp::ArrayStore::seeded(&lowered, &values, seed);
    let messy = eval::run_messy(original, &values, &mut messy_store, ITERATION_BUDGET);

    let named: Vec<String> = lowered
        .params
        .iter()
        .zip(&values)
        .map(|(p, v)| format!("{}={v}", p.name))
        .collect();
    report.checked_params = Some(values.clone());

    match (canonical, messy) {
        (Ok(canon_store), Ok(())) => {
            if canon_store == messy_store {
                report
                    .notes
                    .push(format!("differential check passed at {}", named.join(", ")));
            } else {
                let diff = canon_store.max_abs_diff(&messy_store);
                report.diagnostics.push(
                    Diagnostic::new(
                        Code::DifferentialMismatch,
                        Anchor::Program,
                        format!(
                            "normalized program diverges from the original \
                             (max |Δ| = {diff:.3e} at {}, seed {seed})",
                            named.join(", ")
                        ),
                    )
                    .with_help(
                        "the rewrite is unsound for this program; \
                         report this and compile the hand-normalized form",
                    ),
                );
            }
        }
        (Err(e), Ok(())) => {
            report.diagnostics.push(
                Diagnostic::new(
                    Code::DifferentialMismatch,
                    Anchor::Program,
                    format!(
                        "normalized program faults where the original runs \
                         ({e} at {}, seed {seed})",
                        named.join(", ")
                    ),
                )
                .with_help("the rewrite is unsound for this program"),
            );
        }
        (_, Err(EvalError::Budget)) => {
            report
                .notes
                .push("differential check inconclusive: iteration budget exhausted".to_string());
        }
        (_, Err(e)) => {
            // The original program itself faults (out-of-bounds, bad
            // step, …): not a normalization defect; the verifier and
            // interpreter will report it downstream with better spans.
            report.notes.push(format!(
                "differential check skipped: original program faults ({e})"
            ));
        }
    }
}

/// Picks parameter values: defaults shrunk toward successive caps until
/// the iteration count fits the budget while every `assume` holds.
fn choose_params(p: &an_ir::Program) -> Option<Vec<i64>> {
    let defaults: Vec<i64> = p.params.iter().map(|d| d.default).collect();
    let depth = p.nest.depth();
    let mut candidates = vec![defaults.clone()];
    for cap in PARAM_CAPS {
        candidates.push(defaults.iter().map(|&d| d.min(cap)).collect());
    }
    candidates.into_iter().find(|vals| {
        let zeros = vec![0; depth];
        let assumed = p.assumptions.iter().all(|a| a.eval(&zeros, vals) >= 0);
        // Capped: the defaults of a deep nest can be hundreds of
        // millions of points, not worth walking to learn they are over.
        // Bounds or extents that can leave `i64` at `vals` are never
        // walked or allocated at all.
        assumed
            && p.nest.reach(vals).is_ok()
            && p.check_extents(vals).is_ok()
            && matches!(
                p.nest.iteration_count_capped(vals, ITERATION_BUDGET),
                Ok(Some(_))
            )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize, Mutation, Options};

    fn parse(src: &str) -> AstProgram {
        an_lang::parser::parse_tokens(&an_lang::lexer::lex(src).unwrap()).unwrap()
    }

    const CURSOR: &str = "param N = 6;
        array A[N, N]; array B[N, N];
        for i = 0, N - 1 {
          r = 0;
          for j = 0, N - 1 {
            B[i, r] = A[i, j] + B[i, r] * 0.5;
            r = r + 1;
          }
        }";

    #[test]
    fn sound_rewrite_passes_bitwise() {
        let n = normalize(&parse(CURSOR), &Options::default());
        assert!(n.changed);
        assert!(!n.report.has_errors(), "{}", n.report.render_human());
        assert!(
            n.report
                .notes
                .iter()
                .any(|s| s.contains("differential check passed")),
            "{:?}",
            n.report.notes
        );
    }

    #[test]
    fn mutated_rewrites_are_caught() {
        for m in [Mutation::InductionShift, Mutation::InductionScale] {
            let n = normalize(
                &parse(CURSOR),
                &Options {
                    mutation: Some(m),
                    ..Options::default()
                },
            );
            assert!(
                n.report.codes().contains(&Code::DifferentialMismatch),
                "mutation {m:?} not caught:\n{}",
                n.report.render_human()
            );
        }
    }

    #[test]
    fn oversized_defaults_are_rejected_without_walking_them() {
        // 600^3 = 216 M points at the defaults: counting them outright
        // takes seconds, the capped probe gives up after 200 k.
        let src = "param N = 600;
            array A[N, N]; array B[N, N];
            for i = 0, N - 1 {
              for j = 0, N - 1 {
                r = 0;
                for k = 0, N - 1 {
                  B[i, r] = B[i, r] + A[j, k];
                  r = r + 1;
                }
              }
            }";
        let started = std::time::Instant::now();
        let n = normalize(&parse(src), &Options::default());
        assert!(n.changed);
        assert!(!n.report.has_errors(), "{}", n.report.render_human());
        assert_eq!(n.report.checked_params, Some(vec![16]));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(500),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn param_shrinking_respects_assumes() {
        // Defaults are too big for the budget; N=16 cap still holds
        // the assume N >= 3.
        let src = "param N = 600; assume N >= 3;
            array A[N, N]; array B[N, N];
            for i = 0, N - 1 {
              B[i, 0] = A[i, 0];
              for j = 1, N - 2 { B[i, j] = A[i, j] * 0.5; }
            }";
        let n = normalize(&parse(src), &Options::default());
        assert!(!n.report.has_errors(), "{}", n.report.render_human());
        assert_eq!(n.report.checked_params, Some(vec![16]));
    }
}
