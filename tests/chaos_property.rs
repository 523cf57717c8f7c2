//! Property test of the fault-tolerant SPMD runtime: for random affine
//! programs, every deterministic fault scenario must leave the degraded
//! execution with array state **bitwise identical** to the fault-free
//! interpreter's — survivors replay exactly the dead processor's
//! unfinished iterations, nothing is lost, nothing runs twice. The
//! quiet scenario must replay nothing.

mod common;

use access_normalization::{compile_program, CompileOptions};
use an_numa::{run_chaos, Scenario};
use common::random_program;
use proptest::prelude::*;

const STORE_SEED: u64 = 11;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degraded_runs_recover_exact_state(
        p in random_program(),
        seed in 1u64..=4,
        procs in 2usize..=5,
    ) {
        let c = match compile_program(&p, &CompileOptions::default()) {
            Ok(c) => c,
            // Non-uniform reference pairs are a legitimate refusal.
            Err(access_normalization::Error::Core(an_core::CoreError::Deps(
                an_deps::DepError::NonUniform { .. },
            ))) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
        };
        let params = p.default_param_values();
        let baseline = an_ir::interp::run_seeded(&c.spmd.program, &params, STORE_SEED).unwrap();

        // Every scenario, including the quiet one, must end bitwise
        // identical to the fault-free interpreter.
        for &scenario in Scenario::all() {
            let exec = run_chaos(&c.spmd, procs, &params, scenario, seed, STORE_SEED)
                .map_err(|e| TestCaseError::fail(format!("{scenario}: {e}")))?;
            prop_assert!(
                exec.lost_points.is_empty(),
                "{scenario} P={procs} seed={seed} lost {:?}",
                exec.lost_points
            );
            prop_assert!(
                exec.duplicate_points.is_empty(),
                "{scenario} P={procs} seed={seed} duplicated {:?}",
                exec.duplicate_points
            );
            prop_assert!(
                exec.store == baseline,
                "{scenario} P={procs} seed={seed}: degraded state differs \
                 (max |diff| = {})",
                exec.store.max_abs_diff(&baseline)
            );
        }

        // No fault: nothing may be replayed.
        let quiet = run_chaos(&c.spmd, procs, &params, Scenario::None, seed, STORE_SEED).unwrap();
        prop_assert_eq!(quiet.replayed_iterations, 0);
        prop_assert!(quiet.store == baseline);
    }
}
