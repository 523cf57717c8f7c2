//! Recovery-soundness check (`AN05xx`): the degraded SPMD runtime must
//! compute exactly what the fault-free program computes.
//!
//! The fault model (see `an_numa::faults`) injects deterministic
//! fail-stops, dropped/delayed transfers and contention spikes. Whatever
//! the scenario, the Butterfly's memory modules survive, so a sound
//! runtime redistributes the dead processor's outer iterations over the
//! survivors and replays exactly its unfinished work — the final array
//! state must be **bitwise identical** to a sequential interpreter run.
//!
//! This check replays every configured `(scenario, procs)` pair through
//! [`an_numa::run_chaos`] and compares against
//! [`an_ir::interp::run_seeded`]. Three things can go wrong, each with
//! its own code: wrong final state (`AN0501`), an iteration nobody
//! executed (`AN0502`), an iteration executed twice (`AN0503`). When the
//! program is too large for the bounded interpreter the check is
//! skipped with an `AN0504` warning rather than silently passing.

use crate::diag::{Anchor, Code, Diagnostic};
use crate::oracle::{ConcreteContext, SEED};
use an_codegen::SpmdProgram;
use an_ir::interp::{run_seeded, ArrayStore};
use an_numa::{run_chaos, ChaosExecution, Scenario};

/// Options for the recovery-soundness check.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Scenario seed every faulted run is armed with.
    pub seed: u64,
    /// Fault scenarios to exercise.
    pub scenarios: Vec<Scenario>,
    /// Processor counts to exercise (fail-stop scenarios need at least
    /// 2 so a survivor exists).
    pub procs: Vec<usize>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 1,
            scenarios: Scenario::all().to_vec(),
            procs: vec![3, 4],
        }
    }
}

/// Runs every configured faulted scenario and diffs the degraded final
/// state against the fault-free interpreter.
pub(crate) fn check_recovery(
    spmd: &SpmdProgram,
    ctx: Option<&ConcreteContext>,
    opts: &ChaosOptions,
    diagnostics: &mut Vec<Diagnostic>,
    notes: &mut Vec<String>,
) {
    let Some(ctx) = ctx else {
        diagnostics.push(Diagnostic::new(
            Code::RecoveryUnchecked,
            Anchor::Program,
            "no small parameter instantiation: fault-recovery check skipped".to_string(),
        ));
        return;
    };
    // The transformed program's run, which the bounds check made too.
    let own;
    let baseline = if ctx.transforms_to(&spmd.program) {
        ctx.transformed_store()
    } else {
        own = run_seeded(&spmd.program, &ctx.params, SEED);
        &own
    };
    let baseline = match baseline {
        Ok(s) => s,
        Err(e) => {
            diagnostics.push(Diagnostic::new(
                Code::RecoveryUnchecked,
                Anchor::Program,
                format!("fault-free baseline not interpretable: {e}"),
            ));
            return;
        }
    };
    let mut runs = 0usize;
    for &procs in &opts.procs {
        for &scenario in &opts.scenarios {
            match run_chaos(spmd, procs, &ctx.params, scenario, opts.seed, SEED) {
                Ok(exec) => {
                    runs += 1;
                    check_execution(baseline, &exec, scenario, procs, diagnostics);
                }
                Err(e) => diagnostics.push(Diagnostic::new(
                    Code::RecoveryUnchecked,
                    Anchor::Program,
                    format!("scenario {scenario} at P={procs} did not run: {e}"),
                )),
            }
        }
    }
    notes.push(format!(
        "fault recovery checked over {runs} faulted runs (seed {}, params {:?})",
        opts.seed, ctx.params
    ));
}

/// Diffs one degraded execution against the fault-free baseline. Public
/// within the crate so mutation-style tests can feed it deliberately
/// broken executions.
pub(crate) fn check_execution(
    baseline: &ArrayStore,
    exec: &ChaosExecution,
    scenario: Scenario,
    procs: usize,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if let Some(pt) = exec.lost_points.first() {
        diagnostics.push(Diagnostic::new(
            Code::RecoveryLostIteration,
            Anchor::Program,
            format!(
                "scenario {scenario} at P={procs}: {} iteration(s) never executed, first {:?}",
                exec.lost_points.len(),
                pt
            ),
        ));
    }
    if let Some(pt) = exec.duplicate_points.first() {
        diagnostics.push(Diagnostic::new(
            Code::RecoveryDuplicateIteration,
            Anchor::Program,
            format!(
                "scenario {scenario} at P={procs}: {} iteration(s) executed twice, first {:?}",
                exec.duplicate_points.len(),
                pt
            ),
        ));
    }
    if exec.store != *baseline {
        diagnostics.push(Diagnostic::new(
            Code::RecoveryStateMismatch,
            Anchor::Program,
            format!(
                "scenario {scenario} at P={procs}: degraded state differs from fault-free run \
                 (max |diff| = {:.6}, {} iteration(s) replayed)",
                exec.store.max_abs_diff(baseline),
                exec.replayed_iterations
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
    use an_core::{normalize, NormalizeOptions};
    use an_numa::{run_chaos_with_policy, ReplayPolicy};

    fn figure1() -> (an_ir::Program, SpmdProgram) {
        let p = an_lang::parse(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        )
        .unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let tp = apply_transform(&p, &r.transform).unwrap();
        let spmd = generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default());
        (p, spmd)
    }

    #[test]
    fn sound_runtime_passes_every_scenario() {
        let (_p, spmd) = figure1();
        let ctx = ConcreteContext::build(&spmd.program, &spmd.program, 4096).unwrap();
        let mut diags = Vec::new();
        let mut notes = Vec::new();
        check_recovery(
            &spmd,
            Some(&ctx),
            &ChaosOptions::default(),
            &mut diags,
            &mut notes,
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(notes.iter().any(|n| n.contains("fault recovery checked")));
    }

    #[test]
    fn broken_replay_fires_lost_and_mismatch() {
        let (_p, spmd) = figure1();
        let params = [5i64, 3, 4];
        let baseline = run_seeded(&spmd.program, &params, SEED).unwrap();
        // Seed 3 arms a fail-stop whose victim has unfinished work;
        // skipping its replay loses iterations and corrupts state.
        let exec = run_chaos_with_policy(
            &spmd,
            4,
            &params,
            Scenario::FailStop,
            3,
            SEED,
            ReplayPolicy::SkipReplay,
        )
        .unwrap();
        let mut diags = Vec::new();
        check_execution(&baseline, &exec, Scenario::FailStop, 4, &mut diags);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::RecoveryLostIteration), "{codes:?}");
        assert!(codes.contains(&Code::RecoveryStateMismatch), "{codes:?}");
    }

    #[test]
    fn double_replay_fires_duplicate() {
        let (_p, spmd) = figure1();
        let params = [5i64, 3, 4];
        let baseline = run_seeded(&spmd.program, &params, SEED).unwrap();
        // Seed 1's victim finished its owned iteration before dying, so
        // replaying finished work duplicates it.
        let exec = run_chaos_with_policy(
            &spmd,
            4,
            &params,
            Scenario::FailStop,
            1,
            SEED,
            ReplayPolicy::ReplayFinished,
        )
        .unwrap();
        let mut diags = Vec::new();
        check_execution(&baseline, &exec, Scenario::FailStop, 4, &mut diags);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&Code::RecoveryDuplicateIteration),
            "{codes:?}"
        );
        assert!(codes.contains(&Code::RecoveryStateMismatch), "{codes:?}");
    }

    #[test]
    fn missing_context_warns_unchecked() {
        let (_p, spmd) = figure1();
        let mut diags = Vec::new();
        let mut notes = Vec::new();
        check_recovery(
            &spmd,
            None,
            &ChaosOptions::default(),
            &mut diags,
            &mut notes,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::RecoveryUnchecked);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
    }
}
