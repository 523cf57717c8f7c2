//! The SPMD cost-model execution engine.
//!
//! The enumerating evaluator of the shared domain plan
//! ([`crate::plan`]): each processor's loop nest is walked explicitly,
//! reading the plan's parameter-bound loop bounds. The innermost loop is
//! counted in closed form by [`Plan::local_hits`], which tells, with
//! modular arithmetic, how many of its iterations hit local vs. remote
//! homes; on a nest of depth 3 or more each second-innermost range of
//! at least [`MIN_SUMMED`] values is summed in closed form as well
//! (module `level_sum`), so the walk visits only the prefixes above it.
//! The per-leaf walk — one innermost count per value of that level —
//! stays as the path of shorter ranges, as the chaos runtime's path
//! (every firing rolls its own fault), as the fallback for a level the
//! sum does not cover, and as the reference the sum is tested against
//! ([`simulate_summing`]). No step of the walk re-binds a parameter,
//! and once a processor's buffers have grown, none allocates.
//! That makes paper-sized problems (400×400 GEMM on 28 processors)
//! simulate in milliseconds while counting *exactly* what an
//! element-by-element walk counts — a property the test suite checks
//! against a reference implementation. The engine only counts;
//! [`evaluate`] prices the counts. It is the only walk that prices:
//! `an-model` prices with it through [`sum_from`], which also sums level
//! 0 of a depth-2 nest with the same closed form where the simulator
//! visits every value of it, and the chaos runtime prices each fault
//! stage with it.

use crate::faults::{backoff_us, ChaosCtx, MAX_RETRIES, TIMEOUT_US};
use crate::level_sum::{LevelScratch, LevelSum};
use crate::machine::MachineConfig;
use crate::plan::{evaluate, Plan, Transfer};
use crate::stats::{add_count, ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::SpmdProgram;
use std::cell::RefCell;

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
    evaluate(spmd, machine, procs, params, enumerate_from)
}

/// [`simulate`], recording a `"simulate"` span on `tracer` when present:
/// one `TransferIssued` event per processor that moved data, in
/// processor order, plus the aggregate access/message/byte counters.
///
/// # Errors
///
/// As [`simulate`]; with a tracer also [`SimError::CountOverflow`] when
/// an aggregate counter, a sum over the processors, leaves `u64`.
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
    m.add("sim.local_accesses", stats.counter(|p| p.local_accesses)?);
    m.add("sim.remote_accesses", stats.counter(|p| p.remote_accesses)?);
    m.add("sim.messages", stats.counter(|p| p.messages)?);
    m.add("sim.transfer_bytes", stats.counter(|p| p.transfer_bytes)?);
    for ps in &stats.per_proc {
        m.observe("sim.proc_transfer_bytes", ps.transfer_bytes);
    }
    Ok(stats)
}

/// Counts processor `p`'s slice of the iteration space with the
/// simulator's walk, which visits every value of level 0 of a depth-2
/// nest.
///
/// # Errors
///
/// [`SimError::UnboundedLoop`] if a loop bound cannot be evaluated.
pub fn enumerate_from(plan: &Plan<'_>, p: usize) -> Result<ProcStats, SimError> {
    Sim::new(plan, None, MIN_SUMMED).run_processor(p)
}

/// Counts processor `p`'s slice of the iteration space as
/// [`enumerate_from`] does, except that level 0 of a depth-2 nest is
/// summed in closed form (module `level_sum`) when it holds at least
/// `min_outer` values and the sum covers it: how `an-model` prices. The
/// counts are the walk's, bit for bit.
///
/// # Errors
///
/// As [`enumerate_from`], and [`SimError::CountOverflow`] for a summed
/// count past `u64`.
pub fn sum_from(plan: &Plan<'_>, p: usize, min_outer: i64) -> Result<ProcStats, SimError> {
    Sim {
        min_outer,
        ..Sim::new(plan, None, MIN_SUMMED)
    }
    .run_processor(p)
}

/// The fewest values a second-innermost range must hold for the walk to
/// sum it in closed form rather than count it value by value. The sum's
/// cost per range barely grows with its length, the per-leaf count's
/// grows linearly: timed over every distribution of the depth-3 corpus
/// kernels at P = 8, summing every range cost cholesky at N = 20 (ranges
/// of at most 19 values) about 1.5 times the per-leaf walk, while from
/// about 16–24 values on it is cheaper on all of them.
pub const MIN_SUMMED: i64 = 20;

/// [`simulate`] with the closed-form level sum taken on every
/// second-innermost range of at least `min_summed` values: `1` sums
/// every non-empty one, `i64::MAX` none — the per-leaf walk, which
/// visits every iteration prefix and counts only the innermost loop in
/// closed form, and is the reference the sum is tested against.
/// [`simulate`] sums from [`MIN_SUMMED`] values on.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_summing(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    min_summed: i64,
) -> Result<SimStats, SimError> {
    evaluate(spmd, machine, procs, params, |plan, p| {
        Sim::new(plan, None, min_summed).run_processor(p)
    })
}

/// The enumerating evaluator of a [`Plan`]: it visits every iteration
/// prefix down to the second-innermost level and counts the innermost
/// loop there — or, on a nest of depth 3 or more, sums each
/// second-innermost range of at least [`Sim::min_summed`] values whole.
pub(crate) struct Sim<'p, 'a> {
    pub(crate) plan: &'p Plan<'a>,
    /// Armed fault-injection context; `None` keeps every chaos hook a
    /// single-branch no-op on the fault-free path.
    pub(crate) chaos: Option<ChaosCtx<'a>>,
    /// The fewest values of a second-innermost range of a
    /// depth-3-or-more nest that the walk sums in closed form
    /// ([`Plan::sum_level`]) instead of visiting them. `i64::MAX` under
    /// chaos, where every firing rolls its own fault, and in the per-leaf
    /// reference.
    min_summed: i64,
    /// The fewest values level 0 of a depth-2 nest must hold for the walk
    /// to sum it: the model's pricing ([`sum_from`]). `i64::MAX`, the
    /// simulator's, visits it value by value.
    min_outer: i64,
    /// The level sum's buffers.
    scratch: RefCell<LevelScratch>,
}

impl<'p, 'a> Sim<'p, 'a> {
    pub(crate) fn new(plan: &'p Plan<'a>, chaos: Option<ChaosCtx<'a>>, min_summed: i64) -> Self {
        Sim {
            plan,
            chaos,
            min_summed,
            min_outer: i64::MAX,
            scratch: RefCell::default(),
        }
    }
}

impl Sim<'_, '_> {
    /// Counts processor `p`'s slice of the iteration space.
    pub(crate) fn run_processor(&self, p: usize) -> Result<ProcStats, SimError> {
        let mut stats = ProcStats::default();
        let mut point = vec![0i64; self.plan.spmd.program.nest.depth()];
        self.walk(0, p, &mut point, &mut stats)?;
        Ok(stats)
    }

    /// Walks one loop level; returns `true` if any full-depth iteration
    /// executed below it. Hoisted transfers (and outer-iteration
    /// counting) fire only for prefixes with real work, matching an
    /// element-by-element execution. The innermost loop — or, for
    /// depth-1 nests, the single iteration below the only loop — is
    /// counted by [`Sim::leaf`]; the second-innermost level of a deeper
    /// nest, on a range of at least [`Sim::min_summed`] values, by
    /// [`Plan::sum_level`].
    fn walk(
        &self,
        level: usize,
        p: usize,
        point: &mut [i64],
        stats: &mut ProcStats,
    ) -> Result<bool, SimError> {
        let plan = self.plan;
        if level == point.len().max(2) - 1 {
            return self.leaf(p, point, stats);
        }
        let (lo, hi) = plan.bounds[level]
            .eval(point)
            .ok_or(SimError::UnboundedLoop { var: level })?;
        // Validation keeps `lo` and `hi` inside ±i64::MAX/4.
        let min = if level == 0 {
            self.min_outer
        } else {
            self.min_summed
        };
        if level + 2 == point.len() && hi - lo >= min - 1 {
            let mut scratch = self.scratch.borrow_mut();
            if plan.sum_level(p, point, (lo, hi), &mut scratch) {
                return self.add_level(&scratch.sum, level, stats);
            }
        }
        let mut any = false;
        for v in lo..=hi {
            point[level] = v;
            if level <= 1 && !plan.executes_level(level, p, v) {
                continue;
            }
            if self.walk(level + 1, p, point, stats)? {
                any = true;
                if level == 0 {
                    stats.outer_iterations += 1;
                }
                for t in &plan.transfers_at[level] {
                    if plan.transfer_fires(t, p, point) {
                        self.transfer(t, p, point, stats);
                    }
                }
            }
        }
        point[level] = 0;
        Ok(any)
    }

    /// Adds a level sum to the processor's counters, exactly what the
    /// walk would have added leaf by leaf; returns whether any inner
    /// iteration ran.
    fn add_level(
        &self,
        sum: &LevelSum,
        level: usize,
        stats: &mut ProcStats,
    ) -> Result<bool, SimError> {
        let plan = self.plan;
        let times =
            |count: i128, k: u64| count.checked_mul(k as i128).ok_or(SimError::CountOverflow);
        for (ops, _) in &plan.stmts {
            add_count(&mut stats.ops, times(sum.trips, *ops)?)?;
        }
        if level == 0 {
            add_count(&mut stats.outer_iterations, sum.worked)?;
        }
        add_count(&mut stats.local_accesses, sum.local)?;
        let all = times(sum.trips, plan.n_access as u64)?;
        add_count(&mut stats.remote_accesses, all - sum.local)?;
        for (t, &fired) in plan.transfers_at[level].iter().zip(&sum.fired) {
            add_count(&mut stats.messages, fired)?;
            add_count(&mut stats.transfer_bytes, times(fired, t.bytes)?)?;
        }
        Ok(sum.worked > 0)
    }

    /// Counts the innermost loop at `point` — the whole loop for nests
    /// deeper than 1, the single iteration `point[0]` for depth-1 nests
    /// (whose only loop the walk enumerates).
    fn leaf(&self, p: usize, point: &mut [i64], stats: &mut ProcStats) -> Result<bool, SimError> {
        let plan = self.plan;
        let inner = point.len() - 1;
        if inner == 0 {
            self.cost_innermost(point[0], point[0], p, point, stats);
            return Ok(true);
        }
        let (lo, hi) = plan.bounds[inner]
            .eval(point)
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
                                if plan.transfer_fires(t, p, pt) {
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

    /// The level sum of depth-3 and depth-4 nests, element by element:
    /// blocked and 2-D blocked accesses clipped by skewed and scaled
    /// bounds, wrapped ones split into residue classes.
    #[test]
    fn closed_form_level_sum_matches_reference_deep() {
        let skew = IMatrix::from_rows(&[&[1, 0, 0], &[1, 1, 0], &[0, 1, 1]]);
        let scaled = IMatrix::from_rows(&[&[1, 1, 0], &[0, 2, 0], &[0, 1, 1]]);
        let depth3 = [
            "param N = 6;
             array A[N, N] distribute blocked(1);
             array B[N, N] distribute block2d(0, 1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 A[i, j] = A[i, j] + B[j, k] + B[k, i];
             } } }",
            "param N = 6;
             array A[N, 2 * N] distribute wrapped(1);
             array B[2 * N, N] distribute blocked(0);
             for i = 0, N - 1 { for j = 0, i { for k = j, N - 1 {
                 A[i, j + k] = A[i, j + k] + B[k + i, j];
             } } }",
        ];
        for src in depth3 {
            for t in [IMatrix::identity(3), skew.clone(), scaled.clone()] {
                check_against_reference(src, &[6], Some(t));
            }
        }
        check_against_reference(
            "param N = 4;
             array A[N, 2 * N] distribute wrapped(1);
             array B[N, N] distribute blocked(0);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 { for l = 0, N - 1 {
                 A[j, k + l] = A[j, k + l] + B[l, i];
             } } } }",
            &[4],
            Some(IMatrix::identity(4)),
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
