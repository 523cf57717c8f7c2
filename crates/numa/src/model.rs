//! An analytic performance model (the "simple performance model" the
//! paper's Section 8 defers to its technical report).
//!
//! Instead of walking the iteration space, the model estimates the
//! completion time from closed-form ingredients:
//!
//! - average trip counts per loop level (bounds sampled at range
//!   midpoints),
//! - a per-iteration cost: compute plus, per access, the local latency
//!   (replicated / transfer-covered / owner-normalized references) or
//!   the expected remote latency `(P−1)/P · remote` (wrapped references
//!   varying over processors),
//! - block-transfer traffic: one message per prefix iteration of the
//!   hoist level, `(P−1)/P` of them remote,
//! - a load-imbalance factor `ceil(O/P)·P/O` for `O` outer iterations.
//!
//! The test suite checks the model against the exact simulator on the
//! paper's kernels; it lands within a few tens of percent — good enough
//! to *rank* code versions, which is all a compiler needs.

use crate::machine::MachineConfig;
use crate::plan::covered;
use crate::SimError;
use an_codegen::spmd::{OuterAssignment, SpmdProgram};
use an_ir::{Distribution, Stmt};

/// The model's prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPrediction {
    /// Predicted completion time (µs).
    pub time_us: f64,
    /// Predicted fraction of element accesses that are remote.
    pub remote_fraction: f64,
    /// Predicted number of block-transfer messages (whole machine).
    pub messages: f64,
    /// The load-imbalance factor applied.
    pub imbalance: f64,
}

/// Predicts the completion time of an SPMD program on `procs`
/// processors.
///
/// # Errors
///
/// [`SimError::NoProcessors`] for `procs == 0`,
/// [`SimError::BadParameters`] for an arity mismatch, and
/// [`SimError::UnboundedLoop`] if a loop bound cannot be evaluated at
/// the sampled midpoints (malformed program).
pub fn predict(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
) -> Result<ModelPrediction, SimError> {
    let program = &spmd.program;
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    if params.len() != program.params.len() {
        return Err(SimError::BadParameters {
            expected: program.params.len(),
            got: params.len(),
        });
    }
    let n = program.nest.depth();
    let p = procs as f64;
    let remote_prob = if procs <= 1 { 0.0 } else { (p - 1.0) / p };
    let remote = machine.remote_effective(procs);

    // Average trip count per level, sampled at midpoints of outer loops.
    let mut mid = vec![0i64; n];
    let mut trips = vec![0.0f64; n];
    for k in 0..n {
        let (lo, hi) = program.nest.bounds[k]
            .eval(&mid, params)
            .ok_or(SimError::UnboundedLoop { var: k })?;
        trips[k] = (hi - lo + 1).max(0) as f64;
        mid[k] = lo + (hi - lo) / 2;
    }
    let outer_trips = trips[0].max(1.0);
    let total_iters: f64 = trips.iter().product();

    // Which (array, dist-subscript) is local by ownership?
    let local = spmd.local_subscript();

    // Per-iteration access cost.
    let mut per_iter = 0.0f64;
    let mut local_accesses = 0.0f64;
    let mut remote_accesses = 0.0f64;
    for stmt in &program.nest.body {
        let Stmt::Assign { lhs, rhs } = stmt else {
            continue;
        };
        per_iter += rhs.op_count() as f64 * machine.compute_per_op;
        let mut refs = vec![(lhs, true)];
        for r in rhs.reads() {
            refs.push((r, false));
        }
        for (r, is_write) in refs {
            let decl = program.array(r.array);
            let dims = decl.distribution.dims();
            let covered = covered(spmd, r, is_write);
            // Local by ownership when the distribution subscript equals
            // the owner-assignment subscript *and* the home function is
            // the same: wrapped distributions share `s mod P` regardless
            // of array; blocked ones need equal extents.
            let owned = match (&local, dims.first()) {
                (Some((larr, lsub)), Some(&dim)) if *lsub == r.subscripts[dim] => {
                    let ldecl = program.array(*larr);
                    match (&ldecl.distribution, &decl.distribution) {
                        (Distribution::Wrapped { .. }, Distribution::Wrapped { .. }) => true,
                        (Distribution::Blocked { dim: ld }, Distribution::Blocked { dim: rd }) => {
                            ldecl.extents(params)[*ld] == decl.extents(params)[*rd]
                        }
                        _ => *larr == r.array,
                    }
                }
                _ => false,
            };
            let is_local =
                procs <= 1 || decl.distribution == Distribution::Replicated || covered || owned;
            if is_local {
                per_iter += machine.local_access;
                local_accesses += 1.0;
            } else {
                per_iter += remote_prob * remote + (1.0 - remote_prob) * machine.local_access;
                remote_accesses += remote_prob;
                local_accesses += 1.0 - remote_prob;
            }
        }
    }

    // Transfer traffic.
    let mut transfer_time = 0.0f64;
    let mut messages = 0.0f64;
    for t in &spmd.transfers {
        let prefix_iters: f64 = trips[..=t.level].iter().product();
        let elements = t.elements(program, params);
        let count = prefix_iters * remote_prob;
        messages += count;
        transfer_time += count * machine.transfer_cost(elements, procs);
    }

    // Imbalance from dealing O outer iterations to P processors.
    let per_proc_outer = (outer_trips / p).ceil();
    let imbalance = if matches!(spmd.outer, OuterAssignment::ByHome { .. })
        || matches!(spmd.outer, OuterAssignment::RoundRobin)
    {
        (per_proc_outer * p / outer_trips).max(1.0)
    } else {
        1.0
    };

    let ideal = (total_iters * per_iter + transfer_time) / p;
    let time_us = ideal * imbalance;
    let total_acc = local_accesses + remote_accesses;
    Ok(ModelPrediction {
        time_us,
        remote_fraction: if total_acc == 0.0 {
            0.0
        } else {
            remote_accesses / total_acc
        },
        messages,
        imbalance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
    use an_core::{normalize, NormalizeOptions};

    fn spmd_for(src: &str, transform: bool, block: bool) -> SpmdProgram {
        let p = an_lang::parse(src).unwrap();
        let norm = normalize(&p, &NormalizeOptions::default()).unwrap();
        let t = if transform {
            norm.transform.clone()
        } else {
            an_linalg::IMatrix::identity(p.nest.depth())
        };
        let tp = apply_transform(&p, &t).unwrap();
        generate_spmd(
            &tp,
            Some(&norm.dependences),
            &SpmdOptions {
                block_transfers: block,
            },
        )
    }

    fn check_within(src: &str, params: &[i64], transform: bool, block: bool, tol: f64) {
        let spmd = spmd_for(src, transform, block);
        let machine = MachineConfig::butterfly_gp1000();
        for procs in [1usize, 4, 16] {
            let model = predict(&spmd, &machine, procs, params).unwrap();
            let sim = simulate(&spmd, &machine, procs, params).unwrap();
            let ratio = model.time_us / sim.time_us;
            assert!(
                (1.0 - tol..=1.0 + tol).contains(&ratio),
                "P={procs} transform={transform} block={block}: model {} vs sim {} (ratio {ratio:.3})",
                model.time_us,
                sim.time_us
            );
        }
    }

    fn gemm() -> String {
        "param N = 48;
         array C[N, N] distribute wrapped(1);
         array A[N, N] distribute wrapped(1);
         array B[N, N] distribute wrapped(1);
         for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
             C[i, j] = C[i, j] + A[i, k] * B[k, j];
         } } }"
            .to_string()
    }

    #[test]
    fn model_tracks_simulator_on_gemm() {
        check_within(&gemm(), &[48], false, false, 0.25);
        check_within(&gemm(), &[48], true, false, 0.25);
        check_within(&gemm(), &[48], true, true, 0.25);
    }

    #[test]
    fn model_ranks_variants_correctly() {
        let machine = MachineConfig::butterfly_gp1000();
        let naive = spmd_for(&gemm(), false, false);
        let norm = spmd_for(&gemm(), true, false);
        let block = spmd_for(&gemm(), true, true);
        let t = |s: &SpmdProgram| predict(s, &machine, 16, &[48]).unwrap().time_us;
        assert!(t(&block) < t(&norm));
        assert!(t(&norm) < t(&naive));
    }

    #[test]
    fn remote_fraction_prediction() {
        let machine = MachineConfig::butterfly_gp1000();
        let naive = spmd_for(&gemm(), false, false);
        let m = predict(&naive, &machine, 16, &[48]).unwrap();
        // All four references vary over processors: remote fraction ~
        // (P-1)/P = 0.9375.
        assert!(
            (m.remote_fraction - 0.9375).abs() < 0.01,
            "{}",
            m.remote_fraction
        );
        let sim = simulate(&naive, &machine, 16, &[48]).unwrap();
        assert!((m.remote_fraction - sim.remote_fraction()).abs() < 0.05);
    }

    #[test]
    fn single_processor_has_no_remote_traffic() {
        let machine = MachineConfig::butterfly_gp1000();
        let block = spmd_for(&gemm(), true, true);
        let m = predict(&block, &machine, 1, &[48]).unwrap();
        assert_eq!(m.remote_fraction, 0.0);
        assert_eq!(m.messages, 0.0);
        assert_eq!(m.imbalance, 1.0);
    }

    #[test]
    fn invalid_inputs_are_errors_not_panics() {
        let machine = MachineConfig::butterfly_gp1000();
        let spmd = spmd_for(&gemm(), true, true);
        assert_eq!(
            predict(&spmd, &machine, 0, &[48]),
            Err(SimError::NoProcessors)
        );
        assert_eq!(
            predict(&spmd, &machine, 4, &[48, 1]),
            Err(SimError::BadParameters {
                expected: 1,
                got: 2
            })
        );
    }
}
