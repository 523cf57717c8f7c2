//! The SPMD cost-model execution engine.
//!
//! The enumerating evaluator of the shared domain plan
//! ([`crate::plan`]): each processor's loop nest is walked explicitly
//! down to the second-innermost level; the innermost loop is counted in
//! closed form by [`Plan::local_hits`], which tells, with modular
//! arithmetic, how many of its iterations hit local vs. remote homes.
//! That makes paper-sized problems (400×400 GEMM on 28 processors)
//! simulate in milliseconds while counting *exactly* what an
//! element-by-element walk counts — a property the test suite checks
//! against a reference implementation. The engine only counts;
//! [`evaluate`] prices the counts. [`enumerate_from`] lends the same walk
//! to `an-model` for the levels it does not collapse.

use crate::faults::{backoff_us, ChaosCtx, MAX_RETRIES, TIMEOUT_US};
use crate::machine::MachineConfig;
use crate::plan::{evaluate, Evaluator, Plan, Transfer};
use crate::stats::{ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::SpmdProgram;

/// Simulates the SPMD program on `procs` processors, one processor after
/// the other.
///
/// # Errors
///
/// [`SimError::NoProcessors`] for `procs == 0`,
/// [`SimError::BadParameters`] for an arity mismatch, and
/// [`SimError::UnboundedLoop`] if a loop bound cannot be evaluated.
pub fn simulate(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
) -> Result<SimStats, SimError> {
    evaluate(spmd, machine, procs, params, |plan, p| {
        Sim { plan, chaos: None }.run_processor(p)
    })
}

/// [`simulate`], recording a `"simulate"` span on `tracer` when present:
/// one `TransferIssued` event per processor that moved data, in
/// processor order, plus the aggregate access/message/byte counters.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_traced(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    tracer: Option<&an_obs::Tracer>,
) -> Result<SimStats, SimError> {
    let Some(t) = tracer else {
        return simulate(spmd, machine, procs, params);
    };
    let _span = t.span("simulate");
    let stats = simulate(spmd, machine, procs, params)?;
    for (p, ps) in stats.per_proc.iter().enumerate() {
        if ps.messages > 0 || ps.retries > 0 {
            t.emit(an_obs::EventKind::TransferIssued {
                proc: p,
                messages: ps.messages,
                bytes: ps.transfer_bytes,
                retries: ps.retries,
            });
        }
    }
    let m = t.metrics();
    m.add("sim.local_accesses", stats.total_local());
    m.add("sim.remote_accesses", stats.total_remote());
    m.add("sim.messages", stats.total_messages());
    m.add("sim.transfer_bytes", stats.total_transfer_bytes());
    for ps in &stats.per_proc {
        m.observe("sim.proc_transfer_bytes", ps.transfer_bytes);
    }
    Ok(stats)
}

/// Counts processor `p`'s iterations from loop `level` down, at the
/// prefix in `point`, with the simulator's walk: how `an-model` prices a
/// level it does not collapse. Returns whether any full-depth iteration
/// executed.
///
/// # Errors
///
/// [`SimError::UnboundedLoop`] if a loop bound cannot be evaluated.
pub fn enumerate_from(
    plan: &Plan<'_>,
    level: usize,
    p: usize,
    point: &mut [i64],
    stats: &mut ProcStats,
) -> Result<bool, SimError> {
    let sim = Sim { plan, chaos: None };
    plan.walk(&sim, sim.leaf_level(), level, p, point, stats)
}

/// The enumerating evaluator of a [`Plan`]: the shared walk visits every
/// iteration prefix down to the second-innermost level and this counts
/// the innermost loop there.
pub(crate) struct Sim<'p, 'a> {
    pub(crate) plan: &'p Plan<'a>,
    /// Armed fault-injection context; `None` keeps every chaos hook a
    /// single-branch no-op on the fault-free path.
    pub(crate) chaos: Option<ChaosCtx<'a>>,
}

impl Evaluator for Sim<'_, '_> {
    /// Counts the innermost loop at `point` — the whole loop for nests
    /// deeper than 1, the single iteration `point[0]` for depth-1 nests
    /// (whose only loop the shared walk enumerates).
    fn leaf(&self, p: usize, point: &mut [i64], stats: &mut ProcStats) -> Result<bool, SimError> {
        let plan = self.plan;
        let inner = point.len() - 1;
        if inner == 0 {
            self.cost_innermost(point[0], point[0], p, point, stats);
            return Ok(true);
        }
        let (lo, hi) = plan.spmd.program.nest.bounds[inner]
            .eval(point, plan.params)
            .ok_or(SimError::UnboundedLoop { var: inner })?;
        // When 2-D tiling distributes this level (depth-2 nests),
        // restrict the range to the processor's column block first.
        let (lo, hi) = if inner == 1 {
            plan.restrict_to_grid_column(p, lo, hi)
        } else {
            (lo, hi)
        };
        self.cost_innermost(lo, hi, p, point, stats);
        Ok(lo <= hi)
    }

    /// Counts a firing transfer; under an armed chaos scenario, through
    /// the resilient retry protocol.
    fn transfer(&self, t: &Transfer<'_>, p: usize, point: &[i64], stats: &mut ProcStats) {
        t.charge(stats);
        let Some(ctx) = &self.chaos else {
            return;
        };
        // Resilient protocol: each attempt can be dropped (timeout, then
        // exponential backoff with seed-derived jitter and a retry) or
        // delayed; a contention spike multiplies the switch latency. All
        // rolls hash stable identities, so survivor renumbering cannot
        // shift an outcome. Every attempt is counted as a firing, which
        // the fault-free price charges one transfer cost, so busy time
        // gains only what a fault changes.
        let spike = ctx.plan.spike_factor(point[0]);
        let mseed = ctx
            .plan
            .message_seed(ctx.proc_ids[p], t.block.array.0, t.block.dim, point);
        let cost = self.plan.machine.transfer_cost(t.elements, self.plan.procs);
        let mut attempt: u32 = 0;
        loop {
            if !ctx.plan.roll_drop(mseed, attempt) {
                stats.busy_us += cost * (spike - 1.0);
                if ctx.plan.roll_delay(mseed, attempt) {
                    stats.busy_us += ctx.plan.delay_us;
                }
                return;
            }
            // Lost in the switch: wait out the timeout instead.
            stats.timeouts += 1;
            stats.busy_us += TIMEOUT_US - cost;
            if attempt >= MAX_RETRIES {
                // Retries exhausted against a live home: the slow-switch
                // path falls back to element-wise remote fetches. The data
                // still arrives, so semantics are unaffected — only time.
                stats.busy_us += t.elements.max(0) as f64 * self.remote_us() * spike;
                return;
            }
            attempt += 1;
            stats.retries += 1;
            stats.busy_us += backoff_us(mseed, attempt);
            t.charge(stats);
        }
    }
}

impl Sim<'_, '_> {
    /// The level the simulator takes over at: the innermost loop — or,
    /// for depth-1 nests, below it, so the walk still applies the outer
    /// filter and the transfers per iteration.
    fn leaf_level(&self) -> usize {
        self.plan.spmd.program.nest.depth().max(2) - 1
    }

    /// Counts processor `p`'s slice of the iteration space.
    pub(crate) fn run_processor(&self, p: usize) -> Result<ProcStats, SimError> {
        self.plan.run_processor(self, self.leaf_level(), p)
    }

    /// Counts the innermost loop `w ∈ [lo, hi]` in closed form. Under an
    /// armed contention spike, each remote access also pays the spike's
    /// surcharge over its fault-free price.
    fn cost_innermost(&self, lo: i64, hi: i64, p: usize, point: &[i64], stats: &mut ProcStats) {
        if lo > hi {
            return;
        }
        let plan = self.plan;
        let trips = (hi - lo + 1) as u64;
        let mut remote: u64 = 0;
        for (ops, accesses) in &plan.stmts {
            stats.ops += trips * ops;
            for acc in accesses {
                let local = plan.local_hits(acc, lo, hi, p, point) as u64;
                stats.local_accesses += local;
                remote += trips - local;
            }
        }
        stats.remote_accesses += remote;
        if let Some(ctx) = &self.chaos {
            let spike = ctx.plan.spike_factor(point[0]);
            stats.busy_us += remote as f64 * self.remote_us() * (spike - 1.0);
        }
    }

    /// Per-element remote latency at this processor count (µs).
    fn remote_us(&self) -> f64 {
        self.plan.machine.remote_effective(self.plan.procs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::home_of;
    use crate::stats::FaultStats;
    use an_codegen::spmd::{generate_spmd, SpmdOptions};
    use an_codegen::transform::apply_transform;
    use an_core::{normalize, NormalizeOptions};
    use an_ir::Stmt;
    use an_linalg::IMatrix;

    /// Element-by-element reference simulator: walks every iteration and
    /// prices each access individually; transfers are replayed at their
    /// hoist level. Must agree exactly with the closed-form engine.
    fn reference(
        spmd: &SpmdProgram,
        machine: &MachineConfig,
        procs: usize,
        params: &[i64],
    ) -> SimStats {
        let program = &spmd.program;
        let extents: Vec<Vec<i64>> = program.arrays.iter().map(|a| a.extents(params)).collect();
        let mut per_proc = Vec::new();
        for p in 0..procs {
            let mut st = ProcStats::default();
            let mut last_prefix: Vec<Option<Vec<i64>>> = vec![None; program.nest.depth()];
            program
                .nest
                .for_each_iteration(params, |pt| {
                    // Outer filter.
                    let plan = Plan::build(spmd, machine, procs, params);
                    if !plan.executes_level(0, p, pt[0])
                        || (pt.len() > 1 && !plan.executes_level(1, p, pt[1]))
                    {
                        return;
                    }
                    // Replay transfers when a prefix changes.
                    for (lvl, slot) in last_prefix.iter_mut().enumerate() {
                        let prefix: Vec<i64> = pt[..=lvl].to_vec();
                        if slot.as_ref() != Some(&prefix) {
                            *slot = Some(prefix);
                            if lvl == 0 {
                                st.outer_iterations += 1;
                            }
                            for t in &plan.transfers_at[lvl] {
                                if plan.transfer_fires(t.block, p, pt) {
                                    st.messages += 1;
                                    st.transfer_bytes += t.bytes;
                                    st.busy_us += machine.transfer_cost(t.elements, procs);
                                }
                            }
                        }
                    }
                    // Price each access.
                    for stmt in &program.nest.body {
                        let Stmt::Assign { lhs, rhs } = stmt else {
                            continue;
                        };
                        st.busy_us += rhs.op_count() as f64 * machine.compute_per_op;
                        let mut refs = vec![(lhs, true)];
                        for r in rhs.reads() {
                            refs.push((r, false));
                        }
                        for (r, is_write) in refs {
                            let decl = program.array(r.array);
                            let covered = !is_write
                                && procs > 1
                                && !decl.distribution.dims().is_empty()
                                && decl.distribution.dims().iter().all(|&dim| {
                                    spmd.transfers.iter().any(|t| {
                                        t.array == r.array
                                            && t.dim == dim
                                            && t.subscript == r.subscripts[dim]
                                    })
                                });
                            let idx: Vec<i64> =
                                r.subscripts.iter().map(|s| s.eval(pt, params)).collect();
                            let local = procs == 1
                                || covered
                                || home_of(decl, &extents[r.array.0], &idx, procs).is_local_to(p);
                            if local {
                                st.local_accesses += 1;
                                st.busy_us += machine.local_access;
                            } else {
                                st.remote_accesses += 1;
                                st.busy_us += machine.remote_effective(procs);
                            }
                        }
                    }
                })
                .unwrap();
            per_proc.push(st);
        }
        let time_us = if spmd.outer_carried {
            per_proc.iter().map(|s| s.busy_us).sum()
        } else {
            per_proc.iter().map(|s| s.busy_us).fold(0.0, f64::max)
        };
        SimStats {
            procs,
            time_us,
            per_proc,
            faults: FaultStats::default(),
        }
    }

    fn check_against_reference(src: &str, params: &[i64], transform: Option<IMatrix>) {
        let p = an_lang::parse(src).unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let t_mat = transform.unwrap_or(r.transform.clone());
        let tp = apply_transform(&p, &t_mat).unwrap();
        for &block in &[true, false] {
            let spmd = generate_spmd(
                &tp,
                Some(&r.dependences),
                &SpmdOptions {
                    block_transfers: block,
                },
            );
            let machine = MachineConfig::butterfly_gp1000();
            for procs in [1usize, 2, 3, 5] {
                let fast = simulate(&spmd, &machine, procs, params).unwrap();
                let slow = reference(&spmd, &machine, procs, params);
                for (a, b) in fast.per_proc.iter().zip(&slow.per_proc) {
                    assert_eq!(
                        a.local_accesses, b.local_accesses,
                        "P={procs} block={block}"
                    );
                    assert_eq!(
                        a.remote_accesses, b.remote_accesses,
                        "P={procs} block={block}"
                    );
                    assert_eq!(a.messages, b.messages, "P={procs} block={block}");
                    assert!(
                        (a.busy_us - b.busy_us).abs() < 1e-6,
                        "P={procs} block={block}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_reference_figure1() {
        check_against_reference(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
            &[5, 3, 4],
            None,
        );
    }

    #[test]
    fn closed_form_matches_reference_gemm_naive() {
        check_against_reference(
            "param N = 6;
             array C[N, N] distribute wrapped(1);
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }",
            &[6],
            Some(IMatrix::identity(3)),
        );
    }

    #[test]
    fn closed_form_matches_reference_blocked() {
        check_against_reference(
            "param N = 8;
             array A[N, N] distribute blocked(0);
             array B[N, N] distribute blocked(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[j, i] = A[j, i] + B[i, j];
             } }",
            &[8],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn single_processor_is_all_local() {
        let p = an_lang::parse(
            "param N = 4;
             array C[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { C[i, j] = C[i, j] + 1.0; } }",
        )
        .unwrap();
        let tp = apply_transform(&p, &IMatrix::identity(2)).unwrap();
        let spmd = generate_spmd(&tp, None, &SpmdOptions::default());
        let s = simulate(&spmd, &MachineConfig::butterfly_gp1000(), 1, &[4]).unwrap();
        assert_eq!(s.total_remote(), 0);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_local(), 2 * 16);
    }

    #[test]
    fn normalization_reduces_remote_traffic() {
        // The headline claim, in miniature: after normalization the
        // remote fraction collapses.
        let src = "param N = 12;
             array C[N, N] distribute wrapped(1);
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }";
        let p = an_lang::parse(src).unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let machine = MachineConfig::butterfly_gp1000();
        let naive = {
            let tp = apply_transform(&p, &IMatrix::identity(3)).unwrap();
            let spmd = generate_spmd(
                &tp,
                Some(&r.dependences),
                &SpmdOptions {
                    block_transfers: false,
                },
            );
            simulate(&spmd, &machine, 4, &[12]).unwrap()
        };
        let normalized = {
            let tp = apply_transform(&p, &r.transform).unwrap();
            let spmd = generate_spmd(
                &tp,
                Some(&r.dependences),
                &SpmdOptions {
                    block_transfers: false,
                },
            );
            simulate(&spmd, &machine, 4, &[12]).unwrap()
        };
        assert!(
            normalized.remote_fraction() < naive.remote_fraction() / 2.0,
            "normalized {} vs naive {}",
            normalized.remote_fraction(),
            naive.remote_fraction()
        );
        assert!(normalized.time_us < naive.time_us);
    }

    #[test]
    fn errors_are_reported() {
        let p = an_lang::parse("array A[4]; for i = 0, 3 { A[i] = 1.0; }").unwrap();
        let tp = apply_transform(&p, &IMatrix::identity(1)).unwrap();
        let spmd = generate_spmd(&tp, None, &SpmdOptions::default());
        let machine = MachineConfig::butterfly_gp1000();
        assert_eq!(
            simulate(&spmd, &machine, 0, &[]),
            Err(SimError::NoProcessors)
        );
        assert_eq!(
            simulate(&spmd, &machine, 2, &[1]),
            Err(SimError::BadParameters {
                expected: 0,
                got: 1
            })
        );
    }
}
