//! Deterministic fault injection and degraded-mode recovery.
//!
//! The paper's SPMD execution model assumes every processor of the
//! Butterfly survives the whole kernel. This module relaxes that: a
//! seeded [`FaultPlan`] scripts fail-stop processor deaths at outer-loop
//! iteration boundaries, dropped/delayed block transfers, and contention
//! spikes on the interconnect — all derived by hashing stable identities
//! (scenario seed, original processor id, transfer identity, iteration
//! point), so a given `(scenario, seed)` pair reproduces the same faults
//! bitwise on any worker-thread count.
//!
//! Two consumers share the plan:
//!
//! * [`simulate_chaos`] prices a degraded run in the cost model: the
//!   outer range is segmented at fail-stop boundaries, each segment runs
//!   over its surviving processor set (the wrapped/blocked assignment and
//!   array homes are re-derived for `P′` survivors simply by simulating
//!   the clipped program at `procs = P′`), and each boundary charges
//!   failure detection plus the cost of re-homing array elements onto the
//!   survivors. Transfers inside a faulty run go through a resilient
//!   protocol: per-attempt timeout, bounded retries with exponential
//!   backoff and seed-derived jitter, and a fallback to element-wise
//!   remote fetches when retries exhaust (a *slow switch* eventually
//!   delivers; only a *dead home node* — handled by the fail-stop path,
//!   whose memory module survives on the Butterfly — would not).
//! * [`run_chaos`] executes the degraded schedule semantically with the
//!   reference interpreter: every iteration point is claimed by exactly
//!   one survivor under the re-derived assignment, the dead processor's
//!   unfinished iterations are replayed, and the final [`ArrayStore`] can
//!   be compared bitwise against a fault-free run (the AN05xx checks in
//!   `an-verify` do exactly that).
//!
//! The model's soundness argument: on the Butterfly, memory modules are
//! reachable through the switch independently of their processor, so a
//! fail-stop loses *compute*, not *data*. Replaying the dead processor's
//! unfinished outer iterations over the survivors — in the original
//! lexicographic order, after a barrier at the fault boundary — therefore
//! reproduces the fault-free sequential semantics exactly.

use crate::distribution::{home_of, validate_extents, Home};
use crate::machine::MachineConfig;
use crate::plan::{evaluate, Plan};
use crate::simulate::{simulate_with_jobs, Sim};
use crate::stats::{FaultStats, ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::SpmdProgram;
use an_ir::interp::{execute_point, ArrayStore};
use an_ir::{Distribution, IrError, Program};
use an_poly::{Affine, BoundExpr};
use std::collections::BTreeMap;
use std::fmt;

/// splitmix64-style mixing — the same idiom the interpreter uses for
/// seeded stores. Every fault decision hashes stable keys through this.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)`.
fn hash01(h: u64) -> f64 {
    (mix(h, 0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// A built-in fault scenario. `Scenario::None` is the quiet baseline;
/// the rest script specific failure shapes from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// No faults: the armed plan is quiet and the degraded run matches a
    /// fault-free one exactly.
    None,
    /// One processor dies fail-stop at an outer-iteration boundary.
    FailStop,
    /// Two distinct processors die at (possibly equal) boundaries.
    DoubleFailStop,
    /// Block transfers are dropped with probability 0.25 per attempt.
    Drop,
    /// Block transfers are delayed with probability 0.35 per attempt.
    Delay,
    /// A contention spike multiplies interconnect latency by 4 over the
    /// middle third of the outer range.
    Spike,
    /// Fail-stop plus drops plus a contention spike.
    Mixed,
}

impl Scenario {
    /// Every faulty built-in scenario (excludes the quiet baseline).
    pub fn all() -> &'static [Scenario] {
        &[
            Scenario::FailStop,
            Scenario::DoubleFailStop,
            Scenario::Drop,
            Scenario::Delay,
            Scenario::Spike,
            Scenario::Mixed,
        ]
    }

    /// Stable lower-case name (used by `anc chaos --scenario`).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::None => "none",
            Scenario::FailStop => "failstop",
            Scenario::DoubleFailStop => "double-failstop",
            Scenario::Drop => "drop",
            Scenario::Delay => "delay",
            Scenario::Spike => "spike",
            Scenario::Mixed => "mixed",
        }
    }

    /// Parses a scenario name as printed by [`Scenario::name`].
    pub fn parse(s: &str) -> Option<Scenario> {
        match s {
            "none" => Some(Scenario::None),
            "failstop" => Some(Scenario::FailStop),
            "double-failstop" => Some(Scenario::DoubleFailStop),
            "drop" => Some(Scenario::Drop),
            "delay" => Some(Scenario::Delay),
            "spike" => Some(Scenario::Spike),
            "mixed" => Some(Scenario::Mixed),
            _ => None,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Retry policy of the resilient transfer protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt before giving up on bulk mode.
    pub max_retries: u32,
    /// Simulated microseconds an unacknowledged attempt waits.
    pub timeout_us: f64,
    /// Base backoff before the first retry; doubles per retry.
    pub backoff_base_us: f64,
    /// Relative jitter amplitude applied to each backoff (seed-derived).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout_us: 40.0,
            backoff_base_us: 8.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): exponential in the
    /// attempt number with `±jitter/2` relative noise hashed from `seed`.
    pub fn backoff_us(&self, seed: u64, attempt: u32) -> f64 {
        let base = self.backoff_base_us * f64::from(1u32 << attempt.min(16));
        base * (1.0 + self.jitter * (hash01(mix(seed, 0xB0FF ^ u64::from(attempt))) - 0.5))
    }

    /// Simulated cost of concluding a silent peer is a dead node rather
    /// than a slow switch: every attempt times out and backs off before
    /// the failure detector gives up. (A slow switch, by contrast,
    /// succeeds on some retry and never pays the full ladder.)
    pub fn detection_us(&self, seed: u64) -> f64 {
        let mut us = self.timeout_us;
        for a in 1..=self.max_retries {
            us += self.backoff_us(seed, a) + self.timeout_us;
        }
        us
    }
}

/// One scripted fail-stop death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailStop {
    /// Original id of the processor that dies.
    pub proc: usize,
    /// The death takes effect at the boundary *before* this outer
    /// iteration: the processor finished every outer value `< at_outer`
    /// and none `>= at_outer`.
    pub at_outer: i64,
}

/// A contention spike: interconnect latency is multiplied by `factor`
/// while the outer loop runs through `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeWindow {
    /// First outer iteration of the spike.
    pub lo: i64,
    /// Last outer iteration of the spike.
    pub hi: i64,
    /// Latency multiplier (> 1).
    pub factor: f64,
}

/// A fully-armed, deterministic fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The scenario this plan was armed from.
    pub scenario: Scenario,
    /// The scenario seed every fault decision hashes.
    pub seed: u64,
    /// Processor count the plan was armed for.
    pub procs: usize,
    /// Scripted deaths, ascending by boundary.
    pub fail_stops: Vec<FailStop>,
    /// Per-attempt probability a transfer is dropped.
    pub drop_prob: f64,
    /// Per-attempt probability a delivered transfer is delayed.
    pub delay_prob: f64,
    /// Extra microseconds a delayed transfer costs.
    pub delay_us: f64,
    /// Armed contention spike, if any.
    pub spike: Option<SpikeWindow>,
    /// Retry policy of the transfer protocol.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// Derives the full fault schedule from `(scenario, seed)` for a run
    /// of `procs` processors whose outer loop spans `[outer_lo,
    /// outer_hi]`. Fail-stop boundaries land in `[outer_lo + 1,
    /// outer_hi]` so both the pre-fault and post-fault phases are
    /// non-empty; scenarios that need more processors or iterations than
    /// available arm quietly (no faults).
    pub fn arm(scenario: Scenario, seed: u64, procs: usize, outer_lo: i64, outer_hi: i64) -> Self {
        let mut plan = FaultPlan {
            scenario,
            seed,
            procs,
            fail_stops: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_us: 0.0,
            spike: None,
            retry: RetryPolicy::default(),
        };
        let span = (outer_hi - outer_lo + 1).max(0);
        let key = |tag: u64| mix(mix(seed, scenario as u64 + 1), tag);
        let pick_boundary = |tag: u64, lo: i64| -> i64 {
            debug_assert!(lo <= outer_hi);
            lo + (key(tag) % (outer_hi - lo + 1) as u64) as i64
        };
        let spike = SpikeWindow {
            lo: outer_lo + span / 3,
            hi: outer_lo + (2 * span) / 3,
            factor: 4.0,
        };
        match scenario {
            Scenario::None => {}
            Scenario::FailStop | Scenario::Mixed => {
                if procs >= 2 && span >= 2 {
                    plan.fail_stops.push(FailStop {
                        proc: (key(1) % procs as u64) as usize,
                        at_outer: pick_boundary(2, outer_lo + 1),
                    });
                }
                if scenario == Scenario::Mixed {
                    plan.drop_prob = 0.15;
                    plan.spike = Some(spike);
                }
            }
            Scenario::DoubleFailStop => {
                if procs >= 3 && span >= 2 {
                    let p1 = (key(1) % procs as u64) as usize;
                    let p2 = (p1 + 1 + (key(3) % (procs as u64 - 1)) as usize) % procs;
                    let b1 = pick_boundary(2, outer_lo + 1);
                    let b2 = pick_boundary(4, b1);
                    plan.fail_stops.push(FailStop {
                        proc: p1,
                        at_outer: b1,
                    });
                    plan.fail_stops.push(FailStop {
                        proc: p2,
                        at_outer: b2,
                    });
                } else if procs >= 2 && span >= 2 {
                    plan.fail_stops.push(FailStop {
                        proc: (key(1) % procs as u64) as usize,
                        at_outer: pick_boundary(2, outer_lo + 1),
                    });
                }
            }
            Scenario::Drop => plan.drop_prob = 0.25,
            Scenario::Delay => {
                plan.delay_prob = 0.35;
                plan.delay_us = 12.0;
            }
            Scenario::Spike => plan.spike = Some(spike),
        }
        plan
    }

    /// `true` when the plan injects no faults at all.
    pub fn is_quiet(&self) -> bool {
        self.fail_stops.is_empty()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.spike.is_none()
    }

    /// Interconnect latency multiplier at outer iteration `outer`.
    pub fn spike_factor(&self, outer: i64) -> f64 {
        match &self.spike {
            Some(w) if (w.lo..=w.hi).contains(&outer) => w.factor,
            _ => 1.0,
        }
    }

    /// Stable per-message seed: hashes the scenario seed, the issuing
    /// processor's *original* id (so survivor renumbering cannot shift
    /// outcomes), the transfer identity and the hoist-prefix point.
    pub fn message_seed(&self, orig_proc: usize, array: usize, dim: usize, point: &[i64]) -> u64 {
        let mut h = mix(self.seed, 0x7A5F_3000);
        h = mix(h, orig_proc as u64);
        h = mix(h, ((array as u64) << 8) ^ dim as u64);
        for &v in point {
            h = mix(h, v as u64);
        }
        h
    }

    /// Whether transfer attempt `attempt` of message `mseed` is dropped.
    pub fn roll_drop(&self, mseed: u64, attempt: u32) -> bool {
        self.drop_prob > 0.0 && hash01(mix(mseed, 0xD0 + u64::from(attempt))) < self.drop_prob
    }

    /// Whether a delivered attempt is delayed by [`FaultPlan::delay_us`].
    pub fn roll_delay(&self, mseed: u64, attempt: u32) -> bool {
        self.delay_prob > 0.0 && hash01(mix(mseed, 0xDE00 + u64::from(attempt))) < self.delay_prob
    }

    /// Original ids of the processors still alive while executing outer
    /// iteration `outer` (a fail-stop at boundary `b` removes its victim
    /// from every iteration `>= b`).
    pub fn alive_at(&self, outer: i64) -> Vec<usize> {
        (0..self.procs)
            .filter(|&p| {
                !self
                    .fail_stops
                    .iter()
                    .any(|f| f.proc == p && f.at_outer <= outer)
            })
            .collect()
    }
}

/// Chaos context threaded into the cost engine. `proc_ids` maps the
/// simulated processor index back to the original processor id (identity
/// before any failure, the survivor list after), keeping every hashed
/// fault decision stable across redistribution.
#[derive(Clone, Copy)]
pub(crate) struct ChaosCtx<'a> {
    pub(crate) plan: &'a FaultPlan,
    pub(crate) proc_ids: &'a [usize],
}

/// Result of one fault-injected cost simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Scenario that was armed.
    pub scenario: Scenario,
    /// Scenario seed.
    pub seed: u64,
    /// Degraded-run statistics (recovery accounting in `stats.faults`).
    pub stats: SimStats,
    /// Completion time of the matching fault-free run.
    pub fault_free_us: f64,
}

impl ChaosReport {
    /// Recovery overhead relative to the fault-free run (0.0 = none).
    pub fn overhead(&self) -> f64 {
        if self.fault_free_us > 0.0 {
            self.stats.time_us / self.fault_free_us - 1.0
        } else {
            0.0
        }
    }
}

/// The constant range of the distributed outer loop. Level-0 bounds
/// cannot reference loop variables (there is no enclosing loop), so
/// evaluating them with a zero point is exact.
fn outer_range(program: &Program, params: &[i64]) -> Result<(i64, i64), SimError> {
    let zeros = vec![0i64; program.nest.space.num_vars()];
    program.nest.bounds[0]
        .eval(&zeros, params)
        .ok_or(SimError::UnboundedLoop { var: 0 })
}

/// Clones the SPMD program with its outer loop clipped to `[lo, hi]`.
/// The extra constant bounds compose with the existing ones because
/// `LoopBounds::eval` takes the max of lower and min of upper bounds.
fn clip_outer(spmd: &SpmdProgram, lo: i64, hi: i64) -> SpmdProgram {
    let mut s = spmd.clone();
    let space = s.program.nest.space.clone();
    let b = &mut s.program.nest.bounds[0];
    b.lowers.push(BoundExpr {
        expr: Affine::constant(&space, lo),
        divisor: 1,
    });
    b.uppers.push(BoundExpr {
        expr: Affine::constant(&space, hi),
        divisor: 1,
    });
    s
}

/// Counts outer iterations in `[from, to]` that the (original-id) dead
/// processor owns under the assignment for the `alive` processor set.
fn count_owned_outer(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    params: &[i64],
    alive: &[usize],
    dead: usize,
    from: i64,
    to: i64,
) -> u64 {
    let Some(j) = alive.iter().position(|&p| p == dead) else {
        return 0;
    };
    if from > to {
        return 0;
    }
    let plan = Plan::build(spmd, machine, alive.len(), params);
    (from..=to)
        .filter(|&v| plan.executes_level(0, j, v))
        .count() as u64
}

/// Total outer iterations that must be replayed across all fail-stops:
/// for each death, the outer values `>= at_outer` the victim owned under
/// the assignment in force just before it died. The cost and semantic
/// sides both use this, so their `replayed_iterations` always agree.
fn replay_count(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    params: &[i64],
    plan: &FaultPlan,
    outer_hi: i64,
) -> u64 {
    let mut alive: Vec<usize> = (0..plan.procs).collect();
    let mut total = 0u64;
    for &b in &sorted_boundaries(plan) {
        let dead: Vec<usize> = plan
            .fail_stops
            .iter()
            .filter(|f| f.at_outer == b)
            .map(|f| f.proc)
            .collect();
        for &d in &dead {
            total += count_owned_outer(spmd, machine, params, &alive, d, b, outer_hi);
        }
        alive.retain(|p| !dead.contains(p));
    }
    total
}

fn sorted_boundaries(plan: &FaultPlan) -> Vec<i64> {
    let mut bs: Vec<i64> = plan.fail_stops.iter().map(|f| f.at_outer).collect();
    bs.sort_unstable();
    bs.dedup();
    bs
}

/// Per-receiver (original id) element counts when re-homing every
/// distributed array from the `old` survivor set to `new`.
fn redistribution_counts(
    program: &Program,
    extents: &[Vec<i64>],
    old: &[usize],
    new: &[usize],
) -> BTreeMap<usize, i64> {
    let owner = |decl: &an_ir::ArrayDecl, exts: &[i64], idx: &[i64], list: &[usize]| -> usize {
        match home_of(decl, exts, idx, list.len()) {
            Home::Everywhere => usize::MAX,
            Home::Proc(q) => list[q],
        }
    };
    let mut counts = BTreeMap::new();
    for (aid, decl) in program.arrays.iter().enumerate() {
        let exts = &extents[aid];
        match decl.distribution {
            Distribution::Replicated => {}
            Distribution::Wrapped { dim } | Distribution::Blocked { dim } => {
                let others: i64 = exts
                    .iter()
                    .enumerate()
                    .filter(|&(d, _)| d != dim)
                    .map(|(_, &e)| e.max(0))
                    .product();
                let mut idx = vec![0i64; exts.len()];
                for x in 0..exts[dim].max(0) {
                    idx[dim] = x;
                    let to = owner(decl, exts, &idx, new);
                    if owner(decl, exts, &idx, old) != to {
                        *counts.entry(to).or_insert(0) += others;
                    }
                }
            }
            Distribution::Block2D { row_dim, col_dim } => {
                let others: i64 = exts
                    .iter()
                    .enumerate()
                    .filter(|&(d, _)| d != row_dim && d != col_dim)
                    .map(|(_, &e)| e.max(0))
                    .product();
                let mut idx = vec![0i64; exts.len()];
                for r in 0..exts[row_dim].max(0) {
                    for c in 0..exts[col_dim].max(0) {
                        idx[row_dim] = r;
                        idx[col_dim] = c;
                        let to = owner(decl, exts, &idx, new);
                        if owner(decl, exts, &idx, old) != to {
                            *counts.entry(to).or_insert(0) += others;
                        }
                    }
                }
            }
        }
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn run_segment(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    params: &[i64],
    jobs: usize,
    plan: &FaultPlan,
    alive: &[usize],
    seg: (i64, i64),
    per_proc: &mut [ProcStats],
    time_us: &mut f64,
) -> Result<(), SimError> {
    let (seg_lo, seg_hi) = seg;
    if seg_lo > seg_hi {
        return Ok(());
    }
    let clipped = clip_outer(spmd, seg_lo, seg_hi);
    let chaos = Some(ChaosCtx {
        plan,
        proc_ids: alive,
    });
    let seg_stats = evaluate(&clipped, machine, alive.len(), params, jobs, |domain, j| {
        Sim {
            plan: domain,
            chaos,
        }
        .run_processor(j)
    })?;
    // Segments end in a barrier (the fault boundary or the final join),
    // so each contributes its own completion time.
    *time_us += seg_stats.time_us;
    for (j, s) in seg_stats.per_proc.iter().enumerate() {
        per_proc[alive[j]].absorb(s);
    }
    Ok(())
}

/// [`simulate_chaos`], recording a `"chaos"` span on `tracer` when
/// present: a `FaultArmed` event describing the (deterministically
/// seeded) fault plan, one `TransferIssued` per processor in processor
/// order, and a `FaultRecovered` summary matching the report's
/// [`FaultStats`].
///
/// # Errors
///
/// As [`simulate_chaos`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_chaos_traced(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    scenario: Scenario,
    seed: u64,
    jobs: usize,
    tracer: Option<&an_obs::Tracer>,
) -> Result<ChaosReport, SimError> {
    let Some(t) = tracer else {
        return simulate_chaos(spmd, machine, procs, params, scenario, seed, jobs);
    };
    let _span = t.span("chaos");
    let report = simulate_chaos(spmd, machine, procs, params, scenario, seed, jobs)?;
    let f = &report.stats.faults;
    t.emit(an_obs::EventKind::FaultArmed {
        scenario: scenario.name().to_string(),
        victims: f.failed_procs.clone(),
    });
    for (p, ps) in report.stats.per_proc.iter().enumerate() {
        if ps.messages > 0 || ps.retries > 0 {
            t.emit(an_obs::EventKind::TransferIssued {
                proc: p,
                messages: ps.messages,
                bytes: ps.transfer_bytes,
                retries: ps.retries,
            });
        }
    }
    t.emit(an_obs::EventKind::FaultRecovered {
        replayed: f.replayed_iterations,
        redistributed_bytes: f.redistributed_bytes,
        retries: f.retries,
        timeouts: f.timeouts,
    });
    let m = t.metrics();
    m.add("chaos.retries", f.retries);
    m.add("chaos.timeouts", f.timeouts);
    m.add("chaos.replayed_iterations", f.replayed_iterations);
    m.add("chaos.redistributed_bytes", f.redistributed_bytes);
    Ok(report)
}

/// Prices a fault-injected run of the SPMD program and accounts the
/// recovery cost against a fault-free baseline.
///
/// Determinism contract: like [`simulate_with_jobs`], the result is
/// bitwise identical for every `jobs` value and across repeated runs
/// with the same `(scenario, seed)`.
///
/// # Errors
///
/// As [`simulate_with_jobs`]; additionally [`SimError::UnboundedLoop`]
/// when the outer range cannot be evaluated.
pub fn simulate_chaos(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    scenario: Scenario,
    seed: u64,
    jobs: usize,
) -> Result<ChaosReport, SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    let program = &spmd.program;
    if params.len() != program.params.len() {
        return Err(SimError::BadParameters {
            expected: program.params.len(),
            got: params.len(),
        });
    }
    let extents = validate_extents(program, params)?;
    let fault_free = simulate_with_jobs(spmd, machine, procs, params, jobs)?;
    let (lo, hi) = outer_range(program, params)?;
    let plan = FaultPlan::arm(scenario, seed, procs, lo, hi);

    let mut per_proc = vec![ProcStats::default(); procs];
    let mut time_us = 0.0f64;
    let mut faults = FaultStats {
        replayed_iterations: replay_count(spmd, machine, params, &plan, hi),
        failed_procs: {
            let mut v: Vec<usize> = plan.fail_stops.iter().map(|f| f.proc).collect();
            v.sort_unstable();
            v.dedup();
            v
        },
        ..FaultStats::default()
    };

    let mut alive: Vec<usize> = (0..procs).collect();
    let mut seg_lo = lo;
    for &b in &sorted_boundaries(&plan) {
        run_segment(
            spmd,
            machine,
            params,
            jobs,
            &plan,
            &alive,
            (seg_lo, b - 1),
            &mut per_proc,
            &mut time_us,
        )?;
        let dead: Vec<usize> = plan
            .fail_stops
            .iter()
            .filter(|f| f.at_outer == b)
            .map(|f| f.proc)
            .collect();
        let old = alive.clone();
        alive.retain(|p| !dead.contains(p));
        debug_assert!(!alive.is_empty(), "fault plans never kill every processor");
        // Barrier at the boundary: every survivor runs failure detection
        // (the full timeout/backoff ladder), then receives its share of
        // the re-homed array elements.
        let counts = redistribution_counts(program, &extents, &old, &alive);
        let mut barrier = 0.0f64;
        for &p in &alive {
            let det_seed = mix(mix(plan.seed, 0xDE7E_C700), mix(b as u64, p as u64));
            let mut cost = plan.retry.detection_us(det_seed);
            per_proc[p].timeouts += u64::from(plan.retry.max_retries) + 1;
            per_proc[p].retries += u64::from(plan.retry.max_retries);
            if let Some(&elems) = counts.get(&p) {
                let bytes = (elems.max(0) as u64) * machine.element_bytes as u64;
                per_proc[p].messages += 1;
                per_proc[p].transfer_bytes += bytes;
                faults.redistributed_bytes += bytes;
                cost += machine.transfer_cost(elems, alive.len());
            }
            per_proc[p].busy_us += cost;
            barrier = barrier.max(cost);
        }
        time_us += barrier;
        seg_lo = b;
    }
    run_segment(
        spmd,
        machine,
        params,
        jobs,
        &plan,
        &alive,
        (seg_lo, hi),
        &mut per_proc,
        &mut time_us,
    )?;

    faults.retries = per_proc.iter().map(|s| s.retries).sum();
    faults.timeouts = per_proc.iter().map(|s| s.timeouts).sum();
    faults.degraded_us = (time_us - fault_free.time_us).max(0.0);
    Ok(ChaosReport {
        scenario,
        seed,
        stats: SimStats {
            procs,
            time_us,
            per_proc,
            faults,
        },
        fault_free_us: fault_free.time_us,
    })
}

/// How the degraded executor treats the dead processor's iterations.
/// `Correct` is the production policy; the broken ones exist so the
/// verifier's AN05xx checks can be regression-tested against a runtime
/// with a known recovery bug (mirroring `an_verify::mutate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPolicy {
    /// Replay the victim's unfinished iterations on the survivors.
    Correct,
    /// Bug: drop the victim's unfinished iterations entirely.
    SkipReplay,
    /// Bug: also re-execute iterations the victim already finished.
    ReplayFinished,
}

/// A semantically-executed degraded run.
#[derive(Debug, Clone)]
pub struct ChaosExecution {
    /// The armed fault schedule.
    pub plan: FaultPlan,
    /// Final array state after the degraded run.
    pub store: ArrayStore,
    /// Outer iterations replayed after fail-stop deaths (agrees with
    /// [`simulate_chaos`]'s accounting for the same scenario and seed).
    pub replayed_iterations: u64,
    /// Iteration points no processor executed — recovery bug; empty for
    /// a sound runtime (at most 16 examples are recorded).
    pub lost_points: Vec<Vec<i64>>,
    /// Iteration points executed more than once — recovery bug; empty
    /// for a sound runtime (at most 16 examples are recorded).
    pub duplicate_points: Vec<Vec<i64>>,
}

/// Errors from the semantic chaos executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// Simulation-level error (bad processor count, parameters, bounds).
    Sim(SimError),
    /// The program is not interpretable at these parameters.
    Interp(IrError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Sim(e) => write!(f, "{e}"),
            ChaosError::Interp(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<SimError> for ChaosError {
    fn from(e: SimError) -> Self {
        ChaosError::Sim(e)
    }
}

impl From<IrError> for ChaosError {
    fn from(e: IrError) -> Self {
        ChaosError::Interp(e)
    }
}

/// Executes the degraded schedule with the reference interpreter under
/// the `Correct` replay policy. See [`run_chaos_with_policy`].
///
/// # Errors
///
/// As [`run_chaos_with_policy`].
pub fn run_chaos(
    spmd: &SpmdProgram,
    procs: usize,
    params: &[i64],
    scenario: Scenario,
    seed: u64,
    store_seed: u64,
) -> Result<ChaosExecution, ChaosError> {
    run_chaos_with_policy(
        spmd,
        procs,
        params,
        scenario,
        seed,
        store_seed,
        ReplayPolicy::Correct,
    )
}

/// Executes a fault-injected run *semantically*: every iteration point
/// is mapped to its claimant(s) under the alive-set assignment in force
/// at that point, and executed with the reference interpreter in the
/// original lexicographic order (the recovery barrier replays the dead
/// processor's unfinished outer iterations in order, so a sound runtime
/// reproduces sequential semantics bitwise).
///
/// With [`ReplayPolicy::Correct`] and a sound assignment, every point is
/// executed exactly once and the final store equals a fault-free
/// [`an_ir::interp::run_seeded`] with the same `store_seed`. The broken
/// policies deliberately lose or duplicate the first victim's points.
///
/// # Errors
///
/// [`ChaosError::Sim`] for bad processor counts, parameter arity or
/// unbounded loops; [`ChaosError::Interp`] when the program is not
/// interpretable at these parameters.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_with_policy(
    spmd: &SpmdProgram,
    procs: usize,
    params: &[i64],
    scenario: Scenario,
    seed: u64,
    store_seed: u64,
    policy: ReplayPolicy,
) -> Result<ChaosExecution, ChaosError> {
    if procs == 0 {
        return Err(SimError::NoProcessors.into());
    }
    let program = &spmd.program;
    if params.len() != program.params.len() {
        return Err(SimError::BadParameters {
            expected: program.params.len(),
            got: params.len(),
        }
        .into());
    }
    validate_extents(program, params)?;
    let (lo, hi) = outer_range(program, params)?;
    let plan = FaultPlan::arm(scenario, seed, procs, lo, hi);
    // The machine model is irrelevant to ownership; any config works for
    // the executor's assignment queries.
    let machine = MachineConfig::butterfly_gp1000();

    // Alive-set stages: stage k covers outer values from its start up to
    // the next stage's start (exclusive).
    let mut stages: Vec<(i64, Vec<usize>)> = vec![(lo, (0..procs).collect())];
    for &b in &sorted_boundaries(&plan) {
        stages.push((b, plan.alive_at(b)));
    }
    let engines: Vec<Plan> = stages
        .iter()
        .map(|(_, alive)| Plan::build(spmd, &machine, alive.len(), params))
        .collect();
    let claims_at = |si: usize, pt: &[i64]| -> usize {
        let n = stages[si].1.len();
        let engine = &engines[si];
        (0..n)
            .filter(|&j| {
                engine.executes_level(0, j, pt[0])
                    && (pt.len() < 2 || engine.executes_level(1, j, pt[1]))
            })
            .count()
    };
    // Policy bookkeeping targets the first scripted death.
    let first_stop = plan.fail_stops.first().copied();
    let owned_by_first_victim = |pt: &[i64]| -> bool {
        let Some(stop) = first_stop else { return false };
        let e0 = &engines[0];
        e0.executes_level(0, stop.proc, pt[0])
            && (pt.len() < 2 || e0.executes_level(1, stop.proc, pt[1]))
    };

    let replayed_iterations = replay_count(spmd, &machine, params, &plan, hi);
    let mut store = ArrayStore::seeded(program, params, store_seed);
    let mut lost_points: Vec<Vec<i64>> = Vec::new();
    let mut duplicate_points: Vec<Vec<i64>> = Vec::new();
    let mut status: Result<(), IrError> = Ok(());
    program.nest.for_each_iteration(params, |pt| {
        if status.is_err() {
            return;
        }
        let v = pt[0];
        let mut si = 0;
        for (k, (start, _)) in stages.iter().enumerate() {
            if *start <= v {
                si = k;
            } else {
                break;
            }
        }
        let mut times = claims_at(si, pt);
        match (policy, first_stop) {
            (ReplayPolicy::Correct, _) | (_, None) => {}
            (ReplayPolicy::SkipReplay, Some(stop)) => {
                if v >= stop.at_outer && owned_by_first_victim(pt) {
                    times = 0;
                }
            }
            (ReplayPolicy::ReplayFinished, Some(stop)) => {
                if v < stop.at_outer && owned_by_first_victim(pt) {
                    times += 1;
                }
            }
        }
        if times == 0 && lost_points.len() < 16 {
            lost_points.push(pt.to_vec());
        }
        if times > 1 && duplicate_points.len() < 16 {
            duplicate_points.push(pt.to_vec());
        }
        for _ in 0..times {
            if let Err(e) = execute_point(program, pt, params, &mut store) {
                status = Err(e);
                return;
            }
        }
    })?;
    status?;
    Ok(ChaosExecution {
        plan,
        store,
        replayed_iterations,
        lost_points,
        duplicate_points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::spmd::{generate_spmd, SpmdOptions};
    use an_codegen::transform::apply_transform;
    use an_core::{normalize, NormalizeOptions};
    use an_ir::interp::run_seeded;

    fn figure1() -> SpmdProgram {
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
        generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default())
    }

    #[test]
    fn arming_is_deterministic_and_bounded() {
        for &sc in Scenario::all() {
            let a = FaultPlan::arm(sc, 7, 4, 0, 9);
            let b = FaultPlan::arm(sc, 7, 4, 0, 9);
            assert_eq!(a, b);
            for f in &a.fail_stops {
                assert!(f.proc < 4);
                assert!((1..=9).contains(&f.at_outer), "{:?}", f);
            }
            assert!(!a.is_quiet(), "{sc} should inject something");
            assert!(a.alive_at(9).len() >= 4 - 2);
        }
        assert!(FaultPlan::arm(Scenario::None, 7, 4, 0, 9).is_quiet());
        // Too few processors or iterations: fail-stops arm quietly.
        assert!(FaultPlan::arm(Scenario::FailStop, 7, 1, 0, 9)
            .fail_stops
            .is_empty());
        assert!(FaultPlan::arm(Scenario::FailStop, 7, 4, 0, 0)
            .fail_stops
            .is_empty());
    }

    #[test]
    fn backoff_grows_and_detection_covers_ladder() {
        let r = RetryPolicy::default();
        let b1 = r.backoff_us(3, 1);
        let b3 = r.backoff_us(3, 3);
        assert!(b3 > b1);
        // Detection costs at least every timeout in the ladder.
        assert!(r.detection_us(3) >= r.timeout_us * f64::from(r.max_retries + 1));
    }

    #[test]
    fn quiet_scenario_matches_fault_free_costs() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        let params = [5, 3, 4];
        let free = simulate_with_jobs(&spmd, &machine, 4, &params, 1).unwrap();
        let chaos = simulate_chaos(&spmd, &machine, 4, &params, Scenario::None, 9, 1).unwrap();
        assert_eq!(chaos.stats.time_us.to_bits(), free.time_us.to_bits());
        assert_eq!(chaos.stats.per_proc, free.per_proc);
        assert_eq!(chaos.stats.faults, FaultStats::default());
        assert_eq!(chaos.overhead(), 0.0);
    }

    #[test]
    fn failstop_costs_more_and_accounts_recovery() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        let params = [5, 3, 4];
        let r = simulate_chaos(&spmd, &machine, 4, &params, Scenario::FailStop, 1, 1).unwrap();
        assert_eq!(r.stats.faults.failed_procs.len(), 1);
        assert!(r.stats.time_us > r.fault_free_us);
        assert!(r.stats.faults.degraded_us > 0.0);
        assert!(r.overhead() > 0.0);
        // The dead processor does no work after its boundary, so its
        // counters freeze while survivors absorb the replay.
        let dead = r.stats.faults.failed_procs[0];
        assert!(r.stats.per_proc[dead].timeouts == 0);
    }

    #[test]
    fn chaos_simulation_is_deterministic_across_jobs() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        let params = [5, 3, 4];
        for &sc in Scenario::all() {
            let serial = simulate_chaos(&spmd, &machine, 5, &params, sc, 42, 1).unwrap();
            for jobs in [0usize, 2, 3, 8] {
                let par = simulate_chaos(&spmd, &machine, 5, &params, sc, 42, jobs).unwrap();
                assert_eq!(par, serial, "scenario {sc} jobs {jobs}");
                assert_eq!(
                    par.stats.time_us.to_bits(),
                    serial.stats.time_us.to_bits(),
                    "scenario {sc} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn degraded_execution_recovers_exact_state() {
        let spmd = figure1();
        let params = [5, 3, 4];
        let baseline = run_seeded(&spmd.program, &params, 11).unwrap();
        for procs in [2usize, 3, 4, 5] {
            for &sc in Scenario::all() {
                for seed in [1u64, 2, 3] {
                    let exec = run_chaos(&spmd, procs, &params, sc, seed, 11).unwrap();
                    assert!(exec.lost_points.is_empty(), "{sc} P={procs} seed={seed}");
                    assert!(
                        exec.duplicate_points.is_empty(),
                        "{sc} P={procs} seed={seed}"
                    );
                    assert_eq!(exec.store, baseline, "{sc} P={procs} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn replay_counters_agree_between_cost_and_semantic_sides() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        let params = [5, 3, 4];
        // Seeds chosen so the armed victim owns at least one unfinished
        // outer iteration (the outer span at these parameters is 3, so
        // some seeds legitimately replay nothing).
        for seed in [3u64, 8, 13] {
            let cost =
                simulate_chaos(&spmd, &machine, 4, &params, Scenario::FailStop, seed, 1).unwrap();
            let sem = run_chaos(&spmd, 4, &params, Scenario::FailStop, seed, 11).unwrap();
            assert_eq!(
                cost.stats.faults.replayed_iterations,
                sem.replayed_iterations
            );
            assert!(sem.replayed_iterations > 0, "seed {seed} replayed nothing");
        }
    }

    #[test]
    fn quiet_run_replays_nothing() {
        let spmd = figure1();
        let params = [5, 3, 4];
        let exec = run_chaos(&spmd, 4, &params, Scenario::None, 3, 11).unwrap();
        assert_eq!(exec.replayed_iterations, 0);
        assert!(exec.plan.is_quiet());
    }

    #[test]
    fn broken_replay_policies_corrupt_state() {
        let spmd = figure1();
        let params = [5, 3, 4];
        let baseline = run_seeded(&spmd.program, &params, 11).unwrap();
        // Seed 3 arms a victim with unfinished work (see the replay
        // counters test), so skipping its replay must lose points.
        let skip = run_chaos_with_policy(
            &spmd,
            4,
            &params,
            Scenario::FailStop,
            3,
            11,
            ReplayPolicy::SkipReplay,
        )
        .unwrap();
        assert!(!skip.lost_points.is_empty());
        assert_ne!(skip.store, baseline);
        // Seed 1's victim instead *finished* its owned outer iteration
        // before dying, so replaying finished work must duplicate it.
        let dup = run_chaos_with_policy(
            &spmd,
            4,
            &params,
            Scenario::FailStop,
            1,
            11,
            ReplayPolicy::ReplayFinished,
        )
        .unwrap();
        assert!(!dup.duplicate_points.is_empty());
        assert_ne!(dup.store, baseline);
    }

    #[test]
    fn chaos_errors_are_reported() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        assert_eq!(
            simulate_chaos(&spmd, &machine, 0, &[5, 3, 4], Scenario::Drop, 1, 1),
            Err(SimError::NoProcessors)
        );
        assert!(matches!(
            run_chaos(&spmd, 4, &[5], Scenario::Drop, 1, 11),
            Err(ChaosError::Sim(SimError::BadParameters { .. }))
        ));
    }
}
