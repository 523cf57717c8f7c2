//! Cost simulation of the ownership-rule baseline (paper Section 2.1).
//!
//! Every processor scans every iteration, evaluating an ownership guard
//! (one predicate evaluation per statement per iteration, priced at one
//! arithmetic operation); a processor executes an assignment iff it owns
//! the left-hand-side element, paying local/remote per operand. This is
//! exact and intentionally unoptimized — it is the paper's strawman, and
//! the benchmarks use it to show what access normalization buys over the
//! FORTRAN-D "looking for work to do" scheme.

use crate::distribution::{home_of, validate_extents};
use crate::machine::MachineConfig;
use crate::stats::{FaultStats, ProcStats, SimStats};
use crate::SimError;
use an_codegen::ownership::OwnershipProgram;
use an_ir::Stmt;

/// Simulates the ownership-rule program on `procs` processors.
///
/// # Errors
///
/// [`SimError::NoProcessors`], [`SimError::BadParameters`] or
/// [`SimError::UnboundedLoop`], as for [`crate::simulate()`].
pub fn simulate_ownership(
    o: &OwnershipProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
) -> Result<SimStats, SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    let program = &o.program;
    if params.len() != program.params.len() {
        return Err(SimError::BadParameters {
            expected: program.params.len(),
            got: params.len(),
        });
    }
    let extents = validate_extents(program, params)?;
    let remote = machine.remote_effective(procs);
    let mut per_proc = vec![ProcStats::default(); procs];

    program
        .nest
        .for_each_iteration(params, |pt| {
            for (stmt, guard) in program.nest.body.iter().zip(&o.guards) {
                let Stmt::Assign { lhs, rhs } = stmt else {
                    continue;
                };
                let guard_idx = guard.eval_subscripts(pt, params);
                let guard_decl = program.array(guard.array);
                let owner = home_of(guard_decl, &extents[guard.array.0], &guard_idx, procs);
                for (p, stats) in per_proc.iter_mut().enumerate() {
                    // Everyone pays the guard evaluation.
                    stats.busy_us += machine.compute_per_op;
                    if !owner.is_local_to(p) {
                        continue;
                    }
                    if p > 0 && owner.is_local_to(0) && procs > 1 {
                        // Replicated guard (owner everywhere): only
                        // processor 0 executes, to avoid duplicate work.
                        continue;
                    }
                    // The owner executes the statement.
                    stats.outer_iterations += 1;
                    let ops = rhs.op_count();
                    stats.busy_us += ops as f64 * machine.compute_per_op;
                    let mut refs = vec![lhs.clone()];
                    refs.extend(rhs.reads().into_iter().cloned());
                    for r in refs {
                        let idx = r.eval_subscripts(pt, params);
                        let decl = program.array(r.array);
                        let local = procs == 1
                            || home_of(decl, &extents[r.array.0], &idx, procs).is_local_to(p);
                        if local {
                            stats.local_accesses += 1;
                            stats.busy_us += machine.local_access;
                        } else {
                            stats.remote_accesses += 1;
                            stats.busy_us += remote;
                        }
                    }
                }
            }
        })
        .map_err(|e| match e {
            an_ir::IrError::UnboundedLoop { var } => SimError::UnboundedLoop { var },
            _ => SimError::UnboundedLoop { var: 0 },
        })?;

    let time_us = per_proc.iter().map(|s| s.busy_us).fold(0.0, f64::max);
    Ok(SimStats {
        procs,
        time_us,
        per_proc,
        faults: FaultStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::ownership::generate_ownership;

    fn program() -> an_ir::Program {
        an_lang::parse(
            "param N = 12;
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[i, j] = B[j, i] + 1.0;
             } }",
        )
        .unwrap()
    }

    #[test]
    fn work_is_partitioned_by_ownership() {
        let o = generate_ownership(&program());
        let machine = MachineConfig::butterfly_gp1000();
        let s = simulate_ownership(&o, &machine, 4, &[12]).unwrap();
        // Each element of A written exactly once across processors.
        let executed: u64 = s.per_proc.iter().map(|p| p.outer_iterations).sum();
        assert_eq!(executed, 144);
        // Wrapped(1) on A: each processor owns N/P columns -> N*N/P
        // statement executions each.
        for p in &s.per_proc {
            assert_eq!(p.outer_iterations, 36);
        }
        // B[j,i] is transposed: most reads are remote.
        assert!(s.remote_fraction() > 0.3);
    }

    #[test]
    fn guards_cost_everyone() {
        let o = generate_ownership(&program());
        let machine = MachineConfig::butterfly_gp1000();
        let s = simulate_ownership(&o, &machine, 4, &[12]).unwrap();
        // Every processor is busy at least 144 guard evaluations' worth.
        for p in &s.per_proc {
            assert!(p.busy_us >= 144.0 * machine.compute_per_op);
        }
    }

    #[test]
    fn single_processor_degenerates_to_sequential() {
        let o = generate_ownership(&program());
        let machine = MachineConfig::butterfly_gp1000();
        let s = simulate_ownership(&o, &machine, 1, &[12]).unwrap();
        assert_eq!(s.total_remote(), 0);
        assert_eq!(s.per_proc[0].outer_iterations, 144);
    }

    #[test]
    fn error_paths() {
        let o = generate_ownership(&program());
        let machine = MachineConfig::butterfly_gp1000();
        assert_eq!(
            simulate_ownership(&o, &machine, 0, &[12]),
            Err(SimError::NoProcessors)
        );
        assert!(matches!(
            simulate_ownership(&o, &machine, 2, &[]),
            Err(SimError::BadParameters { .. })
        ));
    }
}
