//! Closed-form analytic locality model for the search inner loop.
//!
//! The simulator ([`an_numa::simulate()`]) prices a candidate by walking
//! the levels above the innermost loop, which it counts in closed form
//! ([`Plan::local_hits`]); on a nest of depth 3 or more it also sums each
//! second-innermost range of at least
//! [`MIN_SUMMED`](an_numa::simulate::MIN_SUMMED) values in closed form.
//! On a depth-2 nest it visits every value of level 0. This crate prices
//! that level with the same closed form the walk takes one level above
//! the innermost loop (`Plan::sum_level`, through [`sum_from`]): every
//! count over the outer loop `u` is a difference of floor sums over the
//! values processor `p` executes, a residue class or an interval of `u`,
//! cut at the crossings of the inner bounds and block-interval lines. So
//! a depth-2 nest prices in time independent of its size, and there is
//! one closed form in the repository, not two. Depth 1 and depth 3 or
//! more price as the simulator does, and so does a level 0 of fewer than
//! [`MIN_SUMMED_OUTER`] values, which costs less walked than summed, or
//! one the sum does not cover (an unbounded inner loop, a line past its
//! magnitude limit): the walk visits it value by value.
//!
//! The contract is exactness, not approximation: every counter
//! (`local_accesses`, `remote_accesses`, `messages`, `transfer_bytes`,
//! `outer_iterations`, `ops`) equals the simulator's bit-for-bit, and
//! since both evaluators only count and [`an_numa::plan::evaluate`]
//! prices the counts with one function, busy and total times are
//! bit-equal too. A differential oracle (`tests/model_property.rs`) pins
//! the equality on the whole corpus and on fuzz-generated programs;
//! [`Mutation`] exists so the mutation harness can prove the oracle
//! actually bites on the nests the model sums.

use an_codegen::spmd::SpmdProgram;
use an_numa::plan::{evaluate, Plan};
use an_numa::simulate::sum_from;
use an_numa::{MachineConfig, ProcStats, SimError, SimStats};

/// The fewest values level 0 of a depth-2 nest must hold for the model
/// to sum it rather than walk it. The sum's cost per processor does not
/// grow with the range, the walk's grows linearly: timed over every
/// `--autodist` candidate of the depth-2 corpus kernels at P = 8, the sum
/// cost more than the walk at 64 values (mvt 18.2 against 14.0 µs a
/// candidate, adi 13.5 against 11.8) and less at 128 (19.6 against 23.6,
/// 13.2 against 19.6); at 512 it is 4–6 times cheaper. The crossover moves
/// up with P (at P = 16 the two are even on mvt at 128 values).
pub const MIN_SUMMED_OUTER: i64 = 96;

/// Deliberate model corruptions for the differential mutation harness
/// (`tests/model_mutations.rs`): each one must be caught by the
/// model-vs-simulator gate on the corpus. Each corrupts what the model
/// gets back for a depth-2 nest, or which processor it asks for; a nest of
/// any other depth is priced faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The faithful model.
    #[default]
    None,
    /// Inner trip counts run one iteration long: one more remote trip
    /// per outer iteration.
    TripOffByOne,
    /// Remote accesses are never counted or charged.
    DropRemoteTerm,
    /// The wrong processor plane is priced (`p + 1 mod P` instead of
    /// `p`).
    WrongOwnershipPlane,
}

/// Analytic counterpart of [`an_numa::simulate()`]: identical validation,
/// identical counters, no enumeration of the outer loop of a depth-2
/// nest.
///
/// # Errors
///
/// As [`an_numa::simulate()`]: [`SimError::NoProcessors`],
/// [`SimError::BadParameters`], [`SimError::BadExtent`],
/// [`SimError::UnboundedLoop`]; and [`SimError::CountOverflow`] for a
/// summed count past `u64`.
pub fn model_stats(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
) -> Result<SimStats, SimError> {
    model_stats_mutated(spmd, machine, procs, params, Mutation::None)
}

/// [`model_stats`] recording a `"model"` span on `tracer` when present,
/// with the aggregate counters mirroring the simulator's (`model.*`
/// namespace).
///
/// # Errors
///
/// As [`model_stats`]; with a tracer also [`SimError::CountOverflow`]
/// when an aggregate counter, a sum over the processors, leaves `u64`.
pub fn model_stats_traced(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    tracer: Option<&an_obs::Tracer>,
) -> Result<SimStats, SimError> {
    let Some(t) = tracer else {
        return model_stats(spmd, machine, procs, params);
    };
    let _span = t.span("model");
    let stats = model_stats(spmd, machine, procs, params)?;
    let m = t.metrics();
    m.add("model.local_accesses", stats.counter(|p| p.local_accesses)?);
    m.add(
        "model.remote_accesses",
        stats.counter(|p| p.remote_accesses)?,
    );
    m.add("model.messages", stats.counter(|p| p.messages)?);
    m.add("model.transfer_bytes", stats.counter(|p| p.transfer_bytes)?);
    for ps in &stats.per_proc {
        m.observe("model.proc_transfer_bytes", ps.transfer_bytes);
    }
    Ok(stats)
}

/// [`model_stats`] with a deliberate corruption armed — test hook for
/// the mutation harness; [`Mutation::None`] is the faithful model.
///
/// # Errors
///
/// As [`model_stats`].
pub fn model_stats_mutated(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    mutation: Mutation,
) -> Result<SimStats, SimError> {
    evaluate(spmd, machine, procs, params, |plan, p| {
        run_processor(plan, p, mutation, MIN_SUMMED_OUTER)
    })
}

/// [`model_stats`] with level 0 of a depth-2 nest summed from
/// `min_outer` values on: `1` sums every non-empty one, `i64::MAX` none
/// (the simulator's walk). Test hook: it prices the sum on the short
/// ranges the model walks.
///
/// # Errors
///
/// As [`model_stats`].
pub fn model_stats_summing(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    min_outer: i64,
) -> Result<SimStats, SimError> {
    evaluate(spmd, machine, procs, params, |plan, p| {
        run_processor(plan, p, Mutation::None, min_outer)
    })
}

/// Counts processor `p`: level 0 of a depth-2 nest summed in closed
/// form, every other level walked ([`sum_from`]). A mutation corrupts the
/// counts of a depth-2 nest, or asks for the wrong processor's.
fn run_processor(
    plan: &Plan<'_>,
    p: usize,
    mutation: Mutation,
    min_outer: i64,
) -> Result<ProcStats, SimError> {
    if plan.bounds.len() != 2 {
        return sum_from(plan, p, min_outer);
    }
    if mutation == Mutation::WrongOwnershipPlane {
        return sum_from(plan, (p + 1) % plan.procs, min_outer);
    }
    let mut stats = sum_from(plan, p, min_outer)?;
    match mutation {
        Mutation::TripOffByOne => {
            // One more trip of the inner loop per outer iteration, each
            // of its accesses remote.
            let extra = stats.outer_iterations;
            for (ops, _) in &plan.stmts {
                stats.ops = stats.ops.saturating_add(extra.saturating_mul(*ops));
            }
            let remote = extra.saturating_mul(plan.n_access as u64);
            stats.remote_accesses = stats.remote_accesses.saturating_add(remote);
        }
        Mutation::DropRemoteTerm => stats.remote_accesses = 0,
        Mutation::None | Mutation::WrongOwnershipPlane => {}
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::spmd::{generate_spmd, SpmdOptions};
    use an_codegen::transform::apply_transform;
    use an_core::{normalize, NormalizeOptions};
    use an_linalg::IMatrix;
    use an_numa::simulate;

    fn build_spmd(src: &str, transform: Option<IMatrix>, block: bool) -> SpmdProgram {
        let p = an_lang::parse(src).unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let t_mat = transform.unwrap_or(r.transform.clone());
        let tp = apply_transform(&p, &t_mat).unwrap();
        generate_spmd(
            &tp,
            Some(&r.dependences),
            &SpmdOptions {
                block_transfers: block,
            },
        )
    }

    fn assert_matches_sim(spmd: &SpmdProgram, params: &[i64], procs_list: &[usize]) {
        let machine = MachineConfig::butterfly_gp1000();
        for &procs in procs_list {
            let sim = simulate(spmd, &machine, procs, params).unwrap();
            let model = model_stats(spmd, &machine, procs, params).unwrap();
            assert_eq!(model, sim, "P={procs}");
        }
    }

    fn check(src: &str, params: &[i64], transform: Option<IMatrix>) {
        for block in [true, false] {
            let spmd = build_spmd(src, transform.clone(), block);
            assert_matches_sim(&spmd, params, &[1, 2, 3, 4, 5, 8]);
        }
    }

    #[test]
    fn matches_sim_figure1() {
        check(
            "param N1 = 17; param b = 3; param N2 = 9;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
            &[17, 3, 9],
            None,
        );
    }

    #[test]
    fn matches_sim_gemm_naive_and_normalized() {
        let src = "param N = 13;
             array C[N, N] distribute wrapped(1);
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }";
        check(src, &[13], Some(IMatrix::identity(3)));
        check(src, &[13], None);
    }

    #[test]
    fn matches_sim_blocked_depth2() {
        check(
            "param N = 19;
             array A[N, N] distribute blocked(0);
             array B[N, N] distribute blocked(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[j, i] = A[j, i] + B[i, j];
             } }",
            &[19],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn matches_sim_block2d() {
        check(
            "param N = 16;
             array A[N, N] distribute block2d(0, 1);
             array B[N, N] distribute block2d(0, 1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[i, j] = A[i, j] + B[j, i];
             } }",
            &[16],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn matches_sim_depth1() {
        check(
            "param N = 29;
             array A[N] distribute wrapped(0);
             array B[N] distribute blocked(0);
             for i = 0, N - 1 { A[i] = A[i] + B[i]; }",
            &[29],
            Some(IMatrix::identity(1)),
        );
    }

    #[test]
    fn matches_sim_triangular_skewed() {
        check(
            "param N = 21;
             array A[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = i, N - 1 {
                 A[i, j] = A[i, j] + 1.0;
             } }",
            &[21],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn same_errors_as_sim() {
        let spmd = build_spmd(
            "param N = 4;
             array A[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1.0; } }",
            Some(IMatrix::identity(2)),
            false,
        );
        let machine = MachineConfig::butterfly_gp1000();
        assert_eq!(
            model_stats(&spmd, &machine, 0, &[4]),
            Err(SimError::NoProcessors)
        );
        assert_eq!(
            model_stats(&spmd, &machine, 2, &[]),
            Err(SimError::BadParameters {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn mutations_diverge_from_sim() {
        // A depth-2 nest, whose level 0 the model sums: the mutations
        // corrupt what the sum returns.
        let spmd = build_spmd(
            "param N = 19;
             array A[N, N] distribute blocked(0);
             array B[N, N] distribute blocked(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[j, i] = A[j, i] + B[i, j];
             } }",
            Some(IMatrix::identity(2)),
            false,
        );
        let machine = MachineConfig::butterfly_gp1000();
        let sim = simulate(&spmd, &machine, 4, &[19]).unwrap();
        for m in [
            Mutation::TripOffByOne,
            Mutation::DropRemoteTerm,
            Mutation::WrongOwnershipPlane,
        ] {
            let mutated = model_stats_mutated(&spmd, &machine, 4, &[19], m).unwrap();
            let diverges = mutated.per_proc.iter().zip(&sim.per_proc).any(|(a, b)| {
                a.local_accesses != b.local_accesses || a.remote_accesses != b.remote_accesses
            });
            assert!(diverges, "{m:?} not caught");
        }
        let faithful = model_stats_mutated(&spmd, &machine, 4, &[19], Mutation::None).unwrap();
        for (a, b) in faithful.per_proc.iter().zip(&sim.per_proc) {
            assert_eq!(a.local_accesses, b.local_accesses);
            assert_eq!(a.remote_accesses, b.remote_accesses);
        }
    }
}
