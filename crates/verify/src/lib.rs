//! Independent soundness verifier for the access-normalization pipeline.
//!
//! The compiler's output is only trustworthy if someone *other than the
//! compiler* can confirm it. This crate re-derives, from scratch, the
//! evidence behind four invariant families and checks the compiled
//! artifacts (`TransformedProgram`, `SpmdProgram`) against them:
//!
//! 1. **Legality** — dependence distances recomputed by brute-force
//!    enumeration (plus direction vectors for non-uniform pairs) must
//!    stay lexicographically positive under `T` ([`legality`]).
//! 2. **Bounds soundness** — the transformed nest must scan exactly the
//!    image lattice: symbolic constraint inclusion cross-checked against
//!    per-point enumeration and a differential interpreter run
//!    ([`bounds`]).
//! 3. **SPMD race freedom** — no two processors may touch one element
//!    (with a write) while the outer loop runs in parallel, and the
//!    ownership split must anchor to a subscript the body really uses
//!    ([`races`]).
//! 4. **Transfer coverage** — every remote inner-invariant read needs a
//!    covering block transfer, and every emitted transfer must be
//!    justified and correctly hoisted ([`transfers`]).
//! 5. **Fault recovery** (opt-in via [`VerifyOptions::chaos`]) — every
//!    deterministic fault scenario must leave the degraded runtime with
//!    array state bitwise identical to the fault-free interpreter's
//!    ([`recovery`]).
//!
//! Findings carry stable `AN0xxx` codes (see [`diag::Code`]) and can be
//! rendered for humans or as JSON. The [`mutate`] module provides
//! seeded corruptions for regression-testing the verifier itself.
//!
//! ```
//! use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
//! use an_core::{normalize, NormalizeOptions};
//! use an_verify::{verify_artifacts, VerifyOptions};
//!
//! let p = an_lang::parse(
//!     "param N = 8;
//!      array C[N, N] distribute wrapped(1);
//!      array A[N, N] distribute wrapped(1);
//!      for i = 0, N - 1 { for j = 0, N - 1 {
//!          C[i, j] = C[i, j] + A[j, i];
//!      } }",
//! )?;
//! let r = normalize(&p, &NormalizeOptions::default())?;
//! let tp = apply_transform(&p, &r.transform)?;
//! let spmd = generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default());
//! let report = verify_artifacts(&p, &tp, &spmd, &VerifyOptions::default());
//! assert!(report.is_clean(), "{}", report.render_human());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod diag;
pub mod legality;
pub mod mutate;
pub mod oracle;
pub mod races;
pub mod recovery;
pub mod transfers;

pub use diag::{Anchor, Code, Diagnostic, Severity, VerifyReport};
pub use mutate::{apply_mutation, Mutation};
pub use oracle::ConcreteContext;
pub use recovery::ChaosOptions;

use an_codegen::{SpmdProgram, TransformedProgram};
use an_ir::Program;

/// Options for [`verify_artifacts`].
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Budget for concrete enumeration: parameter instantiations whose
    /// iteration count exceeds this are skipped (the verifier shrinks
    /// the program's default parameters looking for a fit).
    pub max_points: u64,
    /// Processor counts the race check simulates ownership at.
    pub procs: Vec<usize>,
    /// Whether missing block transfers are findings — mirror
    /// `SpmdOptions::block_transfers` (when the pipeline was told not to
    /// emit transfers, their absence is not a bug).
    pub expect_transfers: bool,
    /// When set, the recovery-soundness check (`AN05xx`) runs every
    /// configured fault scenario through the degraded runtime and
    /// compares final array state against the fault-free interpreter.
    pub chaos: Option<ChaosOptions>,
    /// When set, the verifier records a `verify` span and one
    /// [`an_obs::EventKind::Diag`] event per finding on this tracer.
    /// Attaching a tracer never changes what the verifier reports.
    pub tracer: Option<std::sync::Arc<an_obs::Tracer>>,
}

impl PartialEq for VerifyOptions {
    // Tracer attachment is observability plumbing, not configuration:
    // two option sets that check the same things compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.max_points == other.max_points
            && self.procs == other.procs
            && self.expect_transfers == other.expect_transfers
            && self.chaos == other.chaos
    }
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            max_points: 4096,
            procs: vec![2, 3],
            expect_transfers: true,
            chaos: None,
            tracer: None,
        }
    }
}

/// Verifies compiled artifacts against the source program, returning a
/// structured report. Never panics on malformed artifacts — findings
/// are diagnostics, not crashes.
pub fn verify_artifacts(
    program: &Program,
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    opts: &VerifyOptions,
) -> VerifyReport {
    verify_artifacts_in(program, transformed, spmd, opts, None)
}

/// [`verify_artifacts`] given the concrete context `known` of other
/// artifacts of the same program under the same point budget — the
/// uncorrupted ones a [`Mutation`] was applied to: the verifier's own
/// context is rebuilt from it ([`ConcreteContext::rebuild`]), so the
/// original program is interpreted once for both. The report is the one
/// [`verify_artifacts`] returns.
pub fn verify_artifacts_in(
    program: &Program,
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    opts: &VerifyOptions,
    known: Option<&ConcreteContext>,
) -> VerifyReport {
    let tracer = opts.tracer.as_deref();
    let _span = tracer.map(|t| t.span("verify"));
    let report = verify_artifacts_inner(program, transformed, spmd, opts, known);
    if let Some(t) = tracer {
        let mut errors = 0u64;
        let mut warnings = 0u64;
        for d in &report.diagnostics {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => {}
            }
            t.emit(an_obs::EventKind::Diag {
                code: d.code.as_str().to_string(),
                severity: d.severity.as_str().to_string(),
            });
        }
        t.emit(an_obs::EventKind::Counter {
            name: "verify.errors".to_string(),
            value: errors,
        });
        t.emit(an_obs::EventKind::Counter {
            name: "verify.warnings".to_string(),
            value: warnings,
        });
        t.metrics().add("verify.errors", errors);
        t.metrics().add("verify.warnings", warnings);
    }
    report
}

fn verify_artifacts_inner(
    program: &Program,
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    opts: &VerifyOptions,
    known: Option<&ConcreteContext>,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    if transformed.transform.rows() != program.nest.depth() || !transformed.transform.is_square() {
        report.diagnostics.push(Diagnostic::new(
            Code::BoundsBookkeeping,
            Anchor::Program,
            format!(
                "transform is {}x{} but the nest has depth {}",
                transformed.transform.rows(),
                transformed.transform.cols(),
                program.nest.depth()
            ),
        ));
        return report;
    }
    let ctx = match known.filter(|k| k.max_points == opts.max_points) {
        Some(k) => k.rebuild(program, &transformed.program),
        None => ConcreteContext::build(program, &transformed.program, opts.max_points),
    };
    match &ctx {
        Some(c) => {
            report.checked_params = Some(c.params.clone());
            report.notes.push(format!(
                "concrete checks ran at params {:?} ({} iterations)",
                c.params,
                c.original_points.len()
            ));
        }
        None => report
            .notes
            .push("no small parameter instantiation found: concrete checks skipped".to_string()),
    }
    legality::check_legality(
        program,
        transformed,
        ctx.as_ref(),
        &mut report.diagnostics,
        &mut report.notes,
    );
    bounds::check_bounds(
        program,
        transformed,
        ctx.as_ref(),
        &mut report.diagnostics,
        &mut report.notes,
    );
    races::check_races(
        spmd,
        ctx.as_ref(),
        &opts.procs,
        &mut report.diagnostics,
        &mut report.notes,
    );
    transfers::check_transfers(spmd, opts.expect_transfers, &mut report.diagnostics);
    if let Some(chaos) = &opts.chaos {
        recovery::check_recovery(
            spmd,
            ctx.as_ref(),
            chaos,
            &mut report.diagnostics,
            &mut report.notes,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
    use an_core::{normalize, NormalizeOptions};

    fn compile(src: &str) -> (Program, TransformedProgram, SpmdProgram) {
        let p = an_lang::parse(src).unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let tp = apply_transform(&p, &r.transform).unwrap();
        let spmd = generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default());
        (p, tp, spmd)
    }

    #[test]
    fn figure1_verifies_clean() {
        let (p, tp, spmd) = compile(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        );
        let report = verify_artifacts(&p, &tp, &spmd, &VerifyOptions::default());
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.checked_params, Some(vec![5, 3, 4]));
    }

    #[test]
    fn figure1_recovers_from_every_fault_scenario() {
        let (p, tp, spmd) = compile(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        );
        let opts = VerifyOptions {
            chaos: Some(ChaosOptions::default()),
            ..VerifyOptions::default()
        };
        let report = verify_artifacts(&p, &tp, &spmd, &opts);
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("fault recovery checked")));
    }

    #[test]
    fn every_mutation_is_detected_on_figure1() {
        let (p, tp, spmd) = compile(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        );
        let opts = VerifyOptions::default();
        for m in Mutation::all() {
            let ctx = ConcreteContext::build(&p, &tp.program, opts.max_points);
            let (mtp, mspmd) = apply_mutation(&p, &tp, &spmd, m, ctx.as_ref())
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            let report = verify_artifacts_in(&p, &mtp, &mspmd, &opts, ctx.as_ref());
            // Rebuilding from the uncorrupted context changes no finding.
            let fresh = verify_artifacts(&p, &mtp, &mspmd, &opts);
            assert_eq!(report.to_json(), fresh.to_json(), "{}", m.name());
            assert!(
                report.codes().contains(&m.expected_code()),
                "mutation {} expected {} but got {:?}\n{}",
                m.name(),
                m.expected_code(),
                report.codes(),
                report.render_human()
            );
        }
    }

    #[test]
    fn mismatched_transform_arity_is_reported_not_panicked() {
        let (_p, tp, spmd) = compile(
            "param N = 6;
             array A[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = 1.0; } }",
        );
        let shallow =
            an_lang::parse("param N = 6; array B[N]; for i = 0, N - 1 { B[i] = 1.0; }").unwrap();
        let report = verify_artifacts(&shallow, &tp, &spmd, &VerifyOptions::default());
        assert_eq!(report.codes(), vec![Code::BoundsBookkeeping]);
    }
}
