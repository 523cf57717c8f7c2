//! Deterministic fault injection and degraded-mode recovery.
//!
//! The paper's SPMD execution model assumes every processor of the
//! Butterfly survives the whole kernel. This module relaxes that: a
//! seeded [`FaultPlan`] scripts fail-stop processor deaths at outer-loop
//! iteration boundaries, dropped/delayed block transfers, and contention
//! spikes on the interconnect — all derived by hashing stable identities
//! (scenario seed, original processor id, transfer identity, iteration
//! point), so a given `(scenario, seed)` pair reproduces the same faults
//! bitwise.
//!
//! Two consumers share the plan, and read one stage schedule off it: the
//! outer range cut at the fail-stop boundaries, each stage with its
//! survivors and the domain plan that assigns its outer values to them
//! (the wrapped/blocked assignment and array homes re-derived for `P′`
//! survivors simply by planning the program at `procs = P′`).
//!
//! * [`simulate_chaos`] prices a degraded run in the cost model: each
//!   stage runs over its survivors, and each boundary charges
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
use crate::simulate::{simulate, Sim};
use crate::stats::{FaultStats, ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::SpmdProgram;
use an_ir::interp::{execute_point, ArrayStore};
use an_ir::{IrError, Program};
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

/// Retries of the transfer protocol after the first attempt before it
/// gives up on bulk mode.
pub(crate) const MAX_RETRIES: u32 = 4;
/// Simulated microseconds an unacknowledged attempt waits.
pub(crate) const TIMEOUT_US: f64 = 40.0;
/// Backoff before the first retry; doubles per retry.
const BACKOFF_BASE_US: f64 = 8.0;
/// Relative jitter amplitude applied to each backoff (seed-derived).
const JITTER: f64 = 0.25;

/// Backoff before retry `attempt` (1-based): exponential in the attempt
/// number with `±JITTER/2` relative noise hashed from `seed`.
pub(crate) fn backoff_us(seed: u64, attempt: u32) -> f64 {
    let base = BACKOFF_BASE_US * f64::from(1u32 << attempt.min(16));
    base * (1.0 + JITTER * (hash01(mix(seed, 0xB0FF ^ u64::from(attempt))) - 0.5))
}

/// Simulated cost of concluding a silent peer is a dead node rather
/// than a slow switch: every attempt times out and backs off before the
/// failure detector gives up. (A slow switch, by contrast, succeeds on
/// some retry and never pays the full ladder.)
fn detection_us(seed: u64) -> f64 {
    let mut us = TIMEOUT_US;
    for a in 1..=MAX_RETRIES {
        us += backoff_us(seed, a) + TIMEOUT_US;
    }
    us
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

    /// The stage schedule over the outer range `[lo, hi]`: the first
    /// stage starts at `lo` with every processor, and each distinct
    /// fail-stop boundary, ascending, starts the next without the
    /// processors that died there. The only place a survivor set is
    /// derived; the cost side prices these stages and the semantic side
    /// claims points against them.
    fn stages<'a>(
        &self,
        spmd: &'a SpmdProgram,
        machine: &'a MachineConfig,
        params: &'a [i64],
        (lo, hi): (i64, i64),
    ) -> Vec<Stage<'a>> {
        let mut starts: Vec<i64> = self.fail_stops.iter().map(|f| f.at_outer).collect();
        starts.push(lo);
        starts.sort_unstable();
        starts.dedup();
        let stage = |k: usize| {
            let start = starts[k];
            let died = |p: usize| {
                self.fail_stops
                    .iter()
                    .any(|f| f.proc == p && f.at_outer <= start)
            };
            let alive: Vec<usize> = (0..self.procs).filter(|&p| !died(p)).collect();
            debug_assert!(!alive.is_empty(), "fault plans never kill every processor");
            Stage {
                lo: start,
                hi: starts.get(k + 1).map_or(hi, |next| next - 1),
                plan: Plan::build(spmd, machine, alive.len(), params),
                alive,
            }
        };
        (0..starts.len()).map(stage).collect()
    }
}

/// One stage of a degraded run: the outer values between two fail-stop
/// boundaries, the processors alive through them, and the domain plan
/// that assigns those values to the survivors.
struct Stage<'a> {
    /// First outer value of the stage.
    lo: i64,
    /// Last outer value of the stage.
    hi: i64,
    /// Survivors by original id: simulated processor `j` is `alive[j]`.
    alive: Vec<usize>,
    /// The plan at `alive.len()` processors.
    plan: Plan<'a>,
}

impl Stage<'_> {
    /// Whether simulated processor `j` executes iteration point `pt`:
    /// it owns `pt[0]` at level 0 and, when `pt` reaches level 1, `pt[1]`
    /// there too (2-D tiling assigns both).
    fn claims(&self, j: usize, pt: &[i64]) -> bool {
        self.plan.executes_level(0, j, pt[0])
            && (pt.len() < 2 || self.plan.executes_level(1, j, pt[1]))
    }
}

/// Outer iterations the survivors replay: for each victim, the outer
/// values from its boundary to `hi` that it owned in the stage it died
/// in. The cost and semantic sides both report this count.
fn replayed_iterations(stages: &[Stage<'_>], hi: i64) -> u64 {
    let replayed = |(before, after): (&Stage<'_>, &Stage<'_>)| -> usize {
        let victims = (0..before.alive.len()).filter(|&j| !after.alive.contains(&before.alive[j]));
        let owned = |j: usize| (after.lo..=hi).filter(|&v| before.claims(j, &[v])).count();
        victims.map(owned).sum()
    };
    stages.iter().zip(&stages[1..]).map(replayed).sum::<usize>() as u64
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

    /// Simulated microseconds the degraded run spent over the fault-free
    /// one (detection, redistribution, replay, backoff).
    pub fn degraded_us(&self) -> f64 {
        (self.stats.time_us - self.fault_free_us).max(0.0)
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

/// Per-receiver (original id) element counts when re-homing every
/// distributed array from the `old` survivor set to `new`. Homes vary
/// along the distribution dimensions only, so those are walked and each
/// move stands for every element across the other dimensions.
fn redistribution_counts(
    program: &Program,
    extents: &[Vec<i64>],
    old: &[usize],
    new: &[usize],
) -> BTreeMap<usize, i64> {
    let mut counts = BTreeMap::new();
    for (decl, exts) in program.arrays.iter().zip(extents) {
        let owner = |idx: &[i64], list: &[usize]| match home_of(decl, exts, idx, list.len()) {
            Home::Everywhere => None,
            Home::Proc(q) => Some(list[q]),
        };
        let dims = decl.distribution.dims();
        if dims.iter().any(|&d| exts[d] <= 0) {
            continue;
        }
        let spread = (0..exts.len()).filter(|d| !dims.contains(d));
        let others: i64 = spread.map(|d| exts[d].max(0)).product();
        let mut idx = vec![0i64; exts.len()];
        loop {
            let to = owner(&idx, new);
            if let Some(to) = to.filter(|_| owner(&idx, old) != to) {
                *counts.entry(to).or_insert(0) += others;
            }
            // The next index over the distribution dimensions, odometer
            // style; done once every one of them is at its last value.
            let Some(k) = dims.iter().rposition(|&d| idx[d] + 1 < exts[d]) else {
                break;
            };
            idx[dims[k]] += 1;
            dims[k + 1..].iter().for_each(|&d| idx[d] = 0);
        }
    }
    counts
}

/// Prices `stage` over its survivors, folds their counters onto their
/// original ids, and returns the stage's completion time.
fn run_segment(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    params: &[i64],
    plan: &FaultPlan,
    stage: &Stage<'_>,
    per_proc: &mut [ProcStats],
) -> Result<f64, SimError> {
    if stage.lo > stage.hi {
        return Ok(0.0);
    }
    let clipped = clip_outer(spmd, stage.lo, stage.hi);
    let chaos = Some(ChaosCtx {
        plan,
        proc_ids: &stage.alive,
    });
    let seg_stats = evaluate(&clipped, machine, stage.alive.len(), params, |domain, j| {
        Sim::new(domain, chaos, i64::MAX).run_processor(j)
    })?;
    for (j, s) in seg_stats.per_proc.iter().enumerate() {
        per_proc[stage.alive[j]].absorb(s);
    }
    Ok(seg_stats.time_us)
}

/// Prices a fault-injected run of the SPMD program and accounts the
/// recovery cost against a fault-free baseline.
///
/// With a `tracer`, records a `"chaos"` span: a `FaultArmed` event
/// describing the (deterministically seeded) fault plan, one
/// `TransferIssued` per processor in processor order, and a
/// `FaultRecovered` summary matching the report.
///
/// The result is bitwise identical across repeated runs with the same
/// `(scenario, seed)`.
///
/// # Errors
///
/// As [`simulate`]; additionally [`SimError::UnboundedLoop`] when the
/// outer range cannot be evaluated.
pub fn simulate_chaos(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    scenario: Scenario,
    seed: u64,
    tracer: Option<&an_obs::Tracer>,
) -> Result<ChaosReport, SimError> {
    let _span = tracer.map(|t| t.span("chaos"));
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
    let fault_free = simulate(spmd, machine, procs, params)?;
    let (lo, hi) = outer_range(program, params)?;
    let plan = FaultPlan::arm(scenario, seed, procs, lo, hi);
    let stages = plan.stages(spmd, machine, params, (lo, hi));

    let mut per_proc = vec![ProcStats::default(); procs];
    let mut time_us = 0.0f64;
    let mut faults = FaultStats {
        replayed_iterations: replayed_iterations(&stages, hi),
        failed_procs: {
            let mut v: Vec<usize> = plan.fail_stops.iter().map(|f| f.proc).collect();
            v.sort_unstable();
            v.dedup();
            v
        },
        ..FaultStats::default()
    };

    for (k, stage) in stages.iter().enumerate() {
        if let Some(before) = k.checked_sub(1).map(|k| &stages[k]) {
            // Barrier at the boundary: every survivor runs failure
            // detection (the full timeout/backoff ladder), then receives
            // its share of the re-homed array elements.
            let counts = redistribution_counts(program, &extents, &before.alive, &stage.alive);
            let mut barrier = 0.0f64;
            for &p in &stage.alive {
                let det_seed = mix(mix(plan.seed, 0xDE7E_C700), mix(stage.lo as u64, p as u64));
                let mut cost = detection_us(det_seed);
                per_proc[p].timeouts += u64::from(MAX_RETRIES) + 1;
                per_proc[p].retries += u64::from(MAX_RETRIES);
                if let Some(&elems) = counts.get(&p) {
                    let bytes = (elems.max(0) as u64) * machine.element_bytes as u64;
                    per_proc[p].messages += 1;
                    per_proc[p].transfer_bytes += bytes;
                    faults.redistributed_bytes += bytes;
                    cost += machine.transfer_cost(elems, stage.alive.len());
                }
                per_proc[p].busy_us += cost;
                barrier = barrier.max(cost);
            }
            time_us += barrier;
        }
        // Segments end in a barrier (the next boundary or the final
        // join), so each contributes its own completion time.
        time_us += run_segment(spmd, machine, params, &plan, stage, &mut per_proc)?;
    }

    let report = ChaosReport {
        scenario,
        seed,
        stats: SimStats {
            procs,
            time_us,
            per_proc,
            faults,
        },
        fault_free_us: fault_free.time_us,
    };
    if let Some(t) = tracer {
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
        let (retries, timeouts) = (report.stats.total_retries(), report.stats.total_timeouts());
        t.emit(an_obs::EventKind::FaultRecovered {
            replayed: f.replayed_iterations,
            redistributed_bytes: f.redistributed_bytes,
            retries,
            timeouts,
        });
        let m = t.metrics();
        m.add("chaos.retries", retries);
        m.add("chaos.timeouts", timeouts);
        m.add("chaos.replayed_iterations", f.replayed_iterations);
        m.add("chaos.redistributed_bytes", f.redistributed_bytes);
    }
    Ok(report)
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
    let stages = plan.stages(spmd, &machine, params, (lo, hi));
    // Policy bookkeeping targets the first scripted death; in the first
    // stage every processor is alive under its original id.
    let first_stop = plan.fail_stops.first().copied();

    let replayed_iterations = replayed_iterations(&stages, hi);
    let mut store = ArrayStore::seeded(program, params, store_seed);
    let mut lost_points: Vec<Vec<i64>> = Vec::new();
    let mut duplicate_points: Vec<Vec<i64>> = Vec::new();
    let mut status: Result<(), IrError> = Ok(());
    program.nest.for_each_iteration(params, |pt| {
        if status.is_err() {
            return;
        }
        let v = pt[0];
        let stage = &stages[stages.partition_point(|s| s.lo <= v).saturating_sub(1)];
        let mut times = (0..stage.alive.len())
            .filter(|&j| stage.claims(j, pt))
            .count();
        match (policy, first_stop) {
            (ReplayPolicy::Correct, _) | (_, None) => {}
            (ReplayPolicy::SkipReplay, Some(stop)) => {
                if v >= stop.at_outer && stages[0].claims(stop.proc, pt) {
                    times = 0;
                }
            }
            (ReplayPolicy::ReplayFinished, Some(stop)) => {
                if v < stop.at_outer && stages[0].claims(stop.proc, pt) {
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
            assert!(a.fail_stops.len() <= 2);
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
        assert!(backoff_us(3, 3) > backoff_us(3, 1));
        // Detection costs at least every timeout in the ladder.
        assert!(detection_us(3) >= TIMEOUT_US * f64::from(MAX_RETRIES + 1));
    }

    #[test]
    fn quiet_scenario_matches_fault_free_costs() {
        let spmd = figure1();
        let machine = MachineConfig::butterfly_gp1000();
        let params = [5, 3, 4];
        let free = simulate(&spmd, &machine, 4, &params).unwrap();
        let chaos = simulate_chaos(&spmd, &machine, 4, &params, Scenario::None, 9, None).unwrap();
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
        let r = simulate_chaos(&spmd, &machine, 4, &params, Scenario::FailStop, 1, None).unwrap();
        assert_eq!(r.stats.faults.failed_procs.len(), 1);
        assert!(r.stats.time_us > r.fault_free_us);
        assert!(r.degraded_us() > 0.0);
        assert!(r.overhead() > 0.0);
        // The dead processor does no work after its boundary, so its
        // counters freeze while survivors absorb the replay.
        let dead = r.stats.faults.failed_procs[0];
        assert!(r.stats.per_proc[dead].timeouts == 0);
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

    /// The replay count by brute force: the outer values of every
    /// iteration point, and for each death the survivors just before it
    /// re-derived from the fail-stop list alone, with a plan of their own.
    fn brute_force_replay(spmd: &SpmdProgram, plan: &FaultPlan, params: &[i64]) -> u64 {
        let machine = MachineConfig::butterfly_gp1000();
        let mut outer = std::collections::BTreeSet::new();
        let nest = &spmd.program.nest;
        nest.for_each_iteration(params, |pt| {
            outer.insert(pt[0]);
        })
        .unwrap();
        let replayed = |f: &FailStop| {
            let died_before = |p: usize| {
                plan.fail_stops
                    .iter()
                    .any(|g| g.proc == p && g.at_outer < f.at_outer)
            };
            let alive: Vec<usize> = (0..plan.procs).filter(|&p| !died_before(p)).collect();
            let j = alive.iter().position(|&p| p == f.proc).unwrap();
            let owner = Plan::build(spmd, &machine, alive.len(), params);
            let owned = outer
                .range(f.at_outer..)
                .filter(|&&v| owner.executes_level(0, j, v));
            owned.count() as u64
        };
        plan.fail_stops.iter().map(replayed).sum()
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
            let sem = run_chaos(&spmd, 4, &params, Scenario::FailStop, seed, 11).unwrap();
            assert!(sem.replayed_iterations > 0, "seed {seed} replayed nothing");
        }
        for sc in [
            Scenario::FailStop,
            Scenario::DoubleFailStop,
            Scenario::Mixed,
        ] {
            let mut replayed = 0;
            for procs in [3usize, 4, 5, 8] {
                for seed in 1u64..=16 {
                    let at = format!("{sc} P={procs} seed={seed}");
                    let cost =
                        simulate_chaos(&spmd, &machine, procs, &params, sc, seed, None).unwrap();
                    let sem = run_chaos(&spmd, procs, &params, sc, seed, 11).unwrap();
                    let brute = brute_force_replay(&spmd, &sem.plan, &params);
                    assert_eq!(cost.stats.faults.replayed_iterations, brute, "{at}");
                    assert_eq!(sem.replayed_iterations, brute, "{at}");
                    replayed += brute;
                }
            }
            assert!(replayed > 0, "{sc} never replayed an iteration");
        }
    }

    #[test]
    fn redistribution_counts_match_an_element_by_element_diff() {
        let program = an_lang::parse(
            "param N = 7;
             array W[N, N + 2] distribute wrapped(1);
             array X[N, 3, N - 2] distribute wrapped(2);
             array B[N + 3, N] distribute blocked(0);
             array Y[3, N, N + 1] distribute blocked(1);
             array G[N, N + 1] distribute block2d(0, 1);
             array H[N - 1, 2, N + 2] distribute block2d(2, 0);
             array R[N, N];
             for i = 0, N - 1 { W[i, i] = R[i, i] + 1; }",
        )
        .unwrap();
        let extents = validate_extents(&program, &[7]).unwrap();
        // Every element, every dimension walked: who receives it when the
        // survivors go from `old` to `new`.
        let diff = |old: &[usize], new: &[usize]| {
            let mut counts = BTreeMap::new();
            for (decl, exts) in program.arrays.iter().zip(&extents) {
                let mut idx = vec![0i64; exts.len()];
                loop {
                    let (from, to) = (
                        home_of(decl, exts, &idx, old.len()),
                        home_of(decl, exts, &idx, new.len()),
                    );
                    if let (Home::Proc(a), Home::Proc(b)) = (from, to) {
                        if old[a] != new[b] {
                            *counts.entry(new[b]).or_insert(0) += 1;
                        }
                    }
                    let Some(d) = (0..exts.len()).rposition(|d| idx[d] + 1 < exts[d]) else {
                        break;
                    };
                    idx[d] += 1;
                    idx[d + 1..].iter_mut().for_each(|v| *v = 0);
                }
            }
            counts
        };
        let moves: [(&[usize], &[usize]); 4] = [
            (&[0, 1, 2, 3], &[0, 2, 3]),
            (&[0, 1, 2, 3, 4, 5], &[1, 2, 4, 5]),
            (&[0, 2, 4], &[0, 4]),
            (&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 6, 7]),
        ];
        for (old, new) in moves {
            let counts = redistribution_counts(&program, &extents, old, new);
            assert!(!counts.is_empty(), "{old:?} -> {new:?} moved nothing");
            assert_eq!(counts, diff(old, new), "{old:?} -> {new:?}");
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
            simulate_chaos(&spmd, &machine, 0, &[5, 3, 4], Scenario::Drop, 1, None),
            Err(SimError::NoProcessors)
        );
        assert!(matches!(
            run_chaos(&spmd, 4, &[5], Scenario::Drop, 1, 11),
            Err(ChaosError::Sim(SimError::BadParameters { .. }))
        ));
    }
}
