//! Automatic data-distribution selection — the paper's Section 9
//! speculation ("it might be possible to start with the dependence
//! matrix and use our techniques in reverse ... to determine what a good
//! data distribution should be"), implemented as a search:
//!
//! for every combination of per-array distributions, run the *forward*
//! pipeline (normalize → restructure → SPMD) and score the result with
//! the closed-form analytic locality model of `an-model` — exact
//! per-processor counts derived from the transformed access matrices,
//! microseconds-fast, so the exhaustive product over candidate
//! distributions is practical for real kernels. Each of the top
//! [`AutoDistOptions::top_k`] finalists is simulated once and checked
//! against its stored model record ([`stats_agree`]: bit-for-bit on
//! every integer counter); `Pricing::Sim` prices everything with the
//! simulator instead (the pre-model behavior).
//!
//! # Search engine
//!
//! Candidates are independent, so [`search_report`] fans the assignment
//! space out over a thread pool ([`AutoDistOptions::jobs`]) and shares a
//! [`PipelineCtx`] so the expensive integer-linear-algebra and
//! bound-derivation stages are computed once per distinct input rather
//! than once per candidate. Scoring keeps only the pricer's
//! [`SimStats`] per candidate; the full [`Compiled`] artifacts are built
//! for the top-k winners only (recompiled through the warm cache — a
//! handful of hash lookups).
//!
//! Results are **deterministic**: scores are collected in assignment
//! order and ranked with a stable sort, so the ranking (including every
//! `predicted_time_us`) is identical for any `jobs` value.

use crate::{compile_program_with, BudgetExceeded, CompileOptions, Compiled, Error, PipelineCtx};
use an_ir::{Distribution, Program, Stmt};
use an_linalg::CacheStats;
use an_model::model_stats;
use an_numa::{simulate, MachineConfig, SimStats};

/// How the search prices each candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Closed-form analytic counts (`an-model`): exact and fast — the
    /// default. Each of the [`AutoDistOptions::top_k`] finalists is
    /// re-checked against the discrete simulator.
    #[default]
    Model,
    /// The discrete simulator for every candidate (the pre-model
    /// behavior; the `--price sim` escape hatch).
    Sim,
}

/// One evaluated distribution assignment.
#[derive(Debug, Clone)]
pub struct DistributionCandidate {
    /// Per-array distribution, in array-table order.
    pub assignment: Vec<Distribution>,
    /// Model-predicted completion time (µs) at the search's processor
    /// count.
    pub predicted_time_us: f64,
    /// Predicted remote access fraction.
    pub predicted_remote: f64,
    /// The compiled pipeline under this assignment.
    pub compiled: Compiled,
}

/// A scored assignment without its compiled artifacts (the whole
/// ranking keeps these; only winners carry a [`Compiled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Per-array distribution, in array-table order.
    pub assignment: Vec<Distribution>,
    /// Model-predicted completion time (µs).
    pub predicted_time_us: f64,
    /// Predicted remote access fraction.
    pub predicted_remote: f64,
}

/// Options for the search.
#[derive(Debug, Clone)]
pub struct AutoDistOptions {
    /// Processor count to optimize for.
    pub procs: usize,
    /// Allow replicating read-only arrays.
    pub allow_replication: bool,
    /// Compile options for each candidate.
    pub compile: CompileOptions,
    /// Worker threads (`0` = all available parallelism, `1` = serial).
    /// The ranking is identical for every value.
    pub jobs: usize,
    /// How many winners to build as full [`DistributionCandidate`]s and,
    /// under [`Pricing::Model`], re-check against the exact simulator
    /// ([`SearchReport::mismatches`]). The ranking covers every candidate.
    pub top_k: usize,
    /// Run the independent soundness verifier (`an-verify`) on every
    /// compiled candidate and reject those with error-severity findings
    /// (counted in [`SearchReport::rejected`]). Off by default — the
    /// verifier re-enumerates iteration spaces, which multiplies search
    /// cost.
    pub verify: bool,
    /// Candidate pricing function ([`Pricing::Model`] by default).
    pub price: Pricing,
}

impl Default for AutoDistOptions {
    fn default() -> Self {
        AutoDistOptions {
            procs: 16,
            allow_replication: true,
            compile: CompileOptions::default(),
            jobs: 0,
            top_k: 8,
            verify: false,
            price: Pricing::Model,
        }
    }
}

/// The full result of a distribution search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The top-k candidates with compiled artifacts, best first.
    pub candidates: Vec<DistributionCandidate>,
    /// Every successfully evaluated assignment, best first (stable
    /// order: ties keep assignment-enumeration order).
    pub ranking: Vec<CandidateScore>,
    /// Assignments that compiled and were scored.
    pub evaluated: usize,
    /// Assignments whose pipeline failed (silently dropped before; now
    /// counted and surfaced here).
    pub skipped: usize,
    /// Assignments that compiled but failed independent verification
    /// ([`AutoDistOptions::verify`]).
    pub rejected: usize,
    /// Hit/miss counters of the shared compilation caches.
    pub cache: CacheStats,
    /// Resolved worker-thread count the search ran with.
    pub jobs: usize,
    /// Finalists re-checked against the exact simulator (model pricing
    /// only; zero under [`Pricing::Sim`]).
    pub validated: usize,
    /// Validated finalists whose analytic counts diverged from the
    /// simulator — always zero unless the model itself is broken.
    pub mismatches: usize,
}

impl SearchReport {
    /// The winning candidate, if any assignment compiled.
    pub fn best(&self) -> Option<&DistributionCandidate> {
        self.candidates.first()
    }
}

/// Outcome of evaluating one assignment in the parallel phase.
enum Eval {
    /// The scoring pricer's full record.
    Scored(SimStats),
    Failed(Error),
    /// Compiled, but the independent verifier found an error.
    Rejected,
}

/// Searches per-array distributions in parallel, returning the ranked
/// scores, the compiled top-k, and search accounting (skipped/rejected
/// counts, cache statistics).
///
/// # Determinism
///
/// The report (ranking order *and* every predicted number) is identical
/// for every [`AutoDistOptions::jobs`] value: candidates are scored
/// independently, collected in assignment order, and ranked with a
/// stable sort keyed on `(predicted_time_us, assignment index)`.
///
/// # Errors
///
/// Propagates pipeline errors from building the winners. Candidates
/// whose pipeline or pricing fails during scoring are counted in
/// [`SearchReport::skipped`]; when that leaves nothing scored, the first
/// such failure (in assignment order) is the error.
pub fn search_report(
    program: &Program,
    machine: &MachineConfig,
    opts: &AutoDistOptions,
) -> Result<SearchReport, Error> {
    let per_array: Vec<Vec<Distribution>> = program
        .arrays
        .iter()
        .enumerate()
        .map(|(idx, a)| candidate_distributions(program, idx, a.rank(), opts.allow_replication))
        .collect();
    let total: usize = per_array.iter().map(Vec::len).product();
    let cap = opts.compile.budget.max_search_candidates;
    // Workers never see the tracer: only the coordinator emits events,
    // so the trace is identical for every `jobs` value. Order-free
    // metrics (counters) are summed after the join instead.
    let tracer = opts.compile.tracer.as_deref();
    let _search_span = tracer.map(|t| t.span("search"));
    let worker_compile = crate::CompileOptions {
        tracer: None,
        ..opts.compile.clone()
    };
    if let Some(t) = tracer {
        t.emit(an_obs::EventKind::BudgetCharge {
            resource: "search-candidates".to_string(),
            amount: total as u64,
            limit: cap as u64,
        });
    }
    if total > cap {
        return Err(Error::Budget(BudgetExceeded {
            resource: "search-candidates",
            limit: cap as u64,
            observed: Some(total as u64),
            stage: "distribution-search",
        }));
    }

    // Assignment `i` in mixed radix, array 0 the fastest-varying digit
    // (the enumeration order of the original serial odometer).
    let decode = |mut i: usize| -> Vec<Distribution> {
        per_array
            .iter()
            .map(|options| {
                let d = options[i % options.len()];
                i /= options.len();
                d
            })
            .collect()
    };
    let with_dists = |dists: &[Distribution]| -> Program {
        let mut p = program.clone();
        for (arr, d) in p.arrays.iter_mut().zip(dists) {
            arr.distribution = *d;
        }
        p
    };

    let ctx = PipelineCtx::new();
    // Analyze dependences once up front (they are distribution
    // independent); otherwise every early worker would race its own
    // analysis before the shared slot fills.
    ctx.precompute_deps(program, &opts.compile.normalize.deps)?;
    let params = program.default_param_values();

    // Main scoring fan-out. Workers keep only the pricer's record and
    // drop the compile; the winners are recompiled through the warm
    // cache at the end.
    let evals: Vec<Eval> = an_par::par_map_indexed(total, opts.jobs, |i| {
        let p = with_dists(&decode(i));
        match compile_program_with(&p, &worker_compile, &ctx) {
            Ok(compiled) => {
                if opts.verify {
                    let report =
                        crate::verify_with(&compiled, &crate::verify_options_for(&worker_compile));
                    if report.has_errors() {
                        return Eval::Rejected;
                    }
                }
                let scored = match opts.price {
                    Pricing::Model => model_stats(&compiled.spmd, machine, opts.procs, &params),
                    Pricing::Sim => simulate(&compiled.spmd, machine, opts.procs, &params),
                };
                match scored {
                    Ok(stats) => Eval::Scored(stats),
                    Err(e) => Eval::Failed(e.into()),
                }
            }
            Err(e) => Eval::Failed(e),
        }
    });

    let skipped = evals
        .iter()
        .filter(|e| matches!(e, Eval::Failed(_)))
        .count();
    let rejected = evals.iter().filter(|e| matches!(e, Eval::Rejected)).count();

    // Rank: stable sort over assignment order, so equal times keep
    // enumeration order and the result is independent of `jobs`.
    let mut order: Vec<(usize, &SimStats)> = evals
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Eval::Scored(stats) => Some((i, stats)),
            _ => None,
        })
        .collect();
    // A search that scored nothing has no ranking to report: surface
    // the first failure (in assignment order, so the same for any `jobs`).
    if order.is_empty() {
        let first_failure = evals.iter().find_map(|e| match e {
            Eval::Failed(e) => Some(e.clone()),
            _ => None,
        });
        if let Some(e) = first_failure {
            return Err(e);
        }
    }
    order.sort_by(|a, b| a.1.time_us.total_cmp(&b.1.time_us));
    let ranking: Vec<CandidateScore> = order
        .iter()
        .map(|&(i, stats)| CandidateScore {
            assignment: decode(i),
            predicted_time_us: stats.time_us,
            predicted_remote: stats.remote_fraction(),
        })
        .collect();

    // Build the winners, and under model pricing check each once: the
    // exact simulator on the recompiled SPMD must agree with the stored
    // model record on every integer counter. The model is *supposed* to
    // be exact everywhere (the differential suite proves it on the
    // corpus), so a mismatch means a model bug — surfaced, not fixed up.
    let mut candidates = Vec::new();
    let mut validated = 0usize;
    let mut mismatches = 0usize;
    for &(i, stats) in order.iter().take(opts.top_k) {
        let assignment = decode(i);
        // Warm-cache recompile: deterministic, so it succeeds exactly
        // when the scoring compile did.
        let compiled = compile_program_with(&with_dists(&assignment), &worker_compile, &ctx)?;
        if opts.price == Pricing::Model {
            validated += 1;
            let sim = simulate(&compiled.spmd, machine, opts.procs, &params);
            if !sim.is_ok_and(|s| stats_agree(&s, stats)) {
                mismatches += 1;
            }
        }
        candidates.push(DistributionCandidate {
            assignment,
            predicted_time_us: stats.time_us,
            predicted_remote: stats.remote_fraction(),
            compiled,
        });
    }

    if let Some(t) = tracer {
        for (name, value) in [
            ("search.evaluated", order.len() as u64),
            ("search.skipped", skipped as u64),
            ("search.rejected", rejected as u64),
            ("search.validated", validated as u64),
            ("search.mismatches", mismatches as u64),
        ] {
            t.emit(an_obs::EventKind::Counter {
                name: name.to_string(),
                value,
            });
            t.metrics().add(name, value);
        }
    }
    Ok(SearchReport {
        candidates,
        ranking,
        evaluated: order.len(),
        skipped,
        rejected,
        cache: ctx.stats(),
        jobs: an_par::resolve_jobs(opts.jobs),
        validated,
        mismatches,
    })
}

/// The model-vs-simulator agreement contract: every integer counter
/// identical on every processor; busy/total times equal to floating
/// point tolerance (same sums, different accumulation order).
/// Fault accounting (`retries`, `timeouts`, [`SimStats::faults`]) is not
/// compared: both evaluators price fault-free runs only.
pub fn stats_agree(sim: &SimStats, model: &SimStats) -> bool {
    if sim.per_proc.len() != model.per_proc.len() {
        return false;
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    sim.per_proc.iter().zip(&model.per_proc).all(|(a, b)| {
        a.local_accesses == b.local_accesses
            && a.remote_accesses == b.remote_accesses
            && a.messages == b.messages
            && a.transfer_bytes == b.transfer_bytes
            && a.outer_iterations == b.outer_iterations
            && close(a.busy_us, b.busy_us)
    }) && close(sim.time_us, model.time_us)
}

/// Candidate distributions for one array: wrapped and blocked on every
/// dimension, plus replication for read-only arrays.
fn candidate_distributions(
    program: &Program,
    array_index: usize,
    rank: usize,
    allow_replication: bool,
) -> Vec<Distribution> {
    let mut out = Vec::new();
    for dim in 0..rank {
        out.push(Distribution::Wrapped { dim });
        out.push(Distribution::Blocked { dim });
    }
    if allow_replication && is_read_only(program, array_index) {
        out.push(Distribution::Replicated);
    }
    out
}

fn is_read_only(program: &Program, array_index: usize) -> bool {
    !program.nest.body.iter().any(|stmt| match stmt {
        Stmt::Assign { lhs, .. } => lhs.array.0 == array_index,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm() -> Program {
        an_lang::parse(
            "param N = 48;
             array C[N, N] distribute wrapped(0);
             array A[N, N] distribute wrapped(0);
             array B[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }",
        )
        .unwrap()
    }

    /// One array, four candidates: a space smaller than the default
    /// `top_k`.
    fn single_array() -> Program {
        an_lang::parse(
            "param N = 8;
             array A[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[i, j] = A[i, j] + 1.0;
             } }",
        )
        .unwrap()
    }

    #[test]
    fn search_finds_a_fully_local_gemm_layout() {
        let machine = MachineConfig::butterfly_gp1000();
        let opts = AutoDistOptions {
            procs: 8,
            allow_replication: false,
            top_k: usize::MAX,
            ..AutoDistOptions::default()
        };
        let candidates = search_report(&gemm(), &machine, &opts).unwrap().candidates;
        assert!(!candidates.is_empty());
        // 3 arrays x 4 options each = 64 candidates.
        assert_eq!(candidates.len(), 64);
        // The winner must localize everything (the paper's wrapped-column
        // assignment is one such layout).
        let best = &candidates[0];
        assert!(
            best.predicted_remote < 0.01,
            "best candidate still remote: {:?} {}",
            best.assignment,
            best.predicted_remote
        );
        // Cross-check the top prediction with the exact simulator: it
        // should beat the *worst* candidate by a wide margin.
        let worst = candidates.last().unwrap();
        let params = [48i64];
        let sim_best = simulate(&best.compiled.spmd, &machine, 8, &params).unwrap();
        let sim_worst = simulate(&worst.compiled.spmd, &machine, 8, &params).unwrap();
        assert!(sim_best.time_us * 1.5 < sim_worst.time_us);
    }

    #[test]
    fn replication_is_offered_only_for_read_only_arrays() {
        let p = gemm();
        // C is written: no replication candidate.
        assert!(!candidate_distributions(&p, 0, 2, true).contains(&Distribution::Replicated));
        // A and B are read-only: replication offered.
        assert!(candidate_distributions(&p, 1, 2, true).contains(&Distribution::Replicated));
    }

    #[test]
    fn replication_wins_when_allowed() {
        // With replication allowed for the read-only operands, the best
        // candidate should use it (no traffic at all).
        let machine = MachineConfig::butterfly_gp1000();
        let opts = AutoDistOptions {
            procs: 8,
            allow_replication: true,
            ..AutoDistOptions::default()
        };
        let report = search_report(&gemm(), &machine, &opts).unwrap();
        let best = report.best().unwrap();
        assert!(best.predicted_remote < 0.01);
    }

    #[test]
    fn report_accounts_for_every_assignment() {
        let machine = MachineConfig::butterfly_gp1000();
        let opts = AutoDistOptions {
            procs: 8,
            allow_replication: true,
            top_k: 3,
            ..AutoDistOptions::default()
        };
        let report = search_report(&gemm(), &machine, &opts).unwrap();
        // 4 options for C, 5 (incl. replication) for A and B.
        assert_eq!(report.evaluated + report.skipped + report.rejected, 100);
        assert_eq!(report.rejected, 0, "verification is off by default");
        assert_eq!(report.ranking.len(), report.evaluated);
        assert_eq!(report.candidates.len(), 3);
        // Top-k candidates mirror the head of the ranking.
        for (c, s) in report.candidates.iter().zip(&report.ranking) {
            assert_eq!(c.assignment, s.assignment);
            assert_eq!(c.predicted_time_us, s.predicted_time_us);
        }
        // The shared cache must actually be hit: far fewer distinct
        // matrix inputs than candidates.
        assert!(
            report.cache.hit_rate() > 0.5,
            "cache ineffective: {}",
            report.cache
        );
    }

    #[test]
    fn ranking_is_identical_for_any_job_count() {
        let machine = MachineConfig::butterfly_gp1000();
        let mk = |jobs| AutoDistOptions {
            procs: 8,
            allow_replication: true,
            jobs,
            top_k: 5,
            ..AutoDistOptions::default()
        };
        let p = gemm();
        let serial = search_report(&p, &machine, &mk(1)).unwrap();
        for jobs in [0, 2, 3] {
            let par = search_report(&p, &machine, &mk(jobs)).unwrap();
            assert_eq!(par.ranking, serial.ranking);
            assert_eq!(par.skipped, serial.skipped);
            for (a, b) in par.candidates.iter().zip(&serial.candidates) {
                assert_eq!(a.assignment, b.assignment);
                assert_eq!(a.predicted_time_us.to_bits(), b.predicted_time_us.to_bits());
            }
        }
    }

    #[test]
    fn verified_search_rejects_nothing_on_a_sound_pipeline() {
        // A small space (one array, four candidates) so the verifier's
        // per-candidate enumeration stays cheap. Every candidate should
        // pass — the accounting must still close.
        let p = single_array();
        let machine = MachineConfig::butterfly_gp1000();
        let opts = AutoDistOptions {
            procs: 4,
            allow_replication: false,
            verify: true,
            ..AutoDistOptions::default()
        };
        let report = search_report(&p, &machine, &opts).unwrap();
        assert_eq!(report.evaluated + report.skipped + report.rejected, 4);
        assert_eq!(report.rejected, 0, "sound candidates must not be rejected");
        assert!(report.best().is_some());
    }

    #[test]
    fn model_pricing_matches_sim_pricing_and_validates_clean() {
        let machine = MachineConfig::butterfly_gp1000();
        let base = AutoDistOptions {
            procs: 8,
            allow_replication: false,
            top_k: 4,
            ..AutoDistOptions::default()
        };
        let p = gemm();
        let by_model = search_report(&p, &machine, &base).unwrap();
        assert_eq!(by_model.validated, 4);
        assert_eq!(by_model.mismatches, 0, "analytic counts diverged from sim");
        let by_sim = search_report(
            &p,
            &machine,
            &AutoDistOptions {
                price: Pricing::Sim,
                ..base
            },
        )
        .unwrap();
        assert_eq!(by_sim.validated, 0, "sim pricing needs no validation");
        // Exact model and exact simulator agree on every score up to
        // float accumulation order, so rank-for-rank the times coincide
        // (tie *order* within a bit-equal group may differ).
        assert_eq!(by_model.ranking.len(), by_sim.ranking.len());
        for (a, b) in by_model.ranking.iter().zip(&by_sim.ranking) {
            let scale = b.predicted_time_us.abs().max(1.0);
            assert!((a.predicted_time_us - b.predicted_time_us).abs() / scale < 1e-9);
        }
        // The model's winner must sit in the simulator's leading tie
        // group: some sim candidate with a bit-near-best time has the
        // same assignment.
        let best = by_model.best().unwrap();
        let sim_best_t = by_sim.ranking[0].predicted_time_us;
        assert!(by_sim
            .ranking
            .iter()
            .take_while(|c| {
                let scale = sim_best_t.abs().max(1.0);
                (c.predicted_time_us - sim_best_t).abs() / scale < 1e-9
            })
            .any(|c| c.assignment == best.assignment));
    }

    #[test]
    fn every_winner_is_a_fresh_compile_of_its_assignment() {
        // Both spaces fit in the default `top_k`, so every candidate is
        // built (by the one warm recompile) and checked.
        let cholesky = an_lang::parse(include_str!("../examples/kernels/cholesky.an")).unwrap();
        let machine = MachineConfig::butterfly_gp1000();
        let opts = AutoDistOptions {
            procs: 4,
            ..AutoDistOptions::default()
        };
        for p in [single_array(), cholesky] {
            let report = search_report(&p, &machine, &opts).unwrap();
            assert_eq!(report.evaluated, 4);
            assert_eq!(report.candidates.len(), report.evaluated);
            assert_eq!(report.validated, report.evaluated);
            assert_eq!(report.mismatches, 0);
            for c in &report.candidates {
                let mut q = p.clone();
                for (arr, d) in q.arrays.iter_mut().zip(&c.assignment) {
                    arr.distribution = *d;
                }
                let fresh = crate::compile_program(&q, &CompileOptions::default()).unwrap();
                assert_eq!(
                    an_codegen::emit::emit_spmd(&c.compiled.spmd),
                    an_codegen::emit::emit_spmd(&fresh.spmd),
                    "{:?}",
                    c.assignment
                );
            }
        }
    }

    /// Two processors with distinct, nonzero counters and times large
    /// enough that the tolerance is relative.
    fn two_procs() -> SimStats {
        let proc = |busy_us| an_numa::ProcStats {
            local_accesses: 10,
            remote_accesses: 3,
            messages: 2,
            transfer_bytes: 64,
            outer_iterations: 5,
            busy_us,
            ..an_numa::ProcStats::default()
        };
        SimStats {
            procs: 2,
            time_us: 2000.0,
            per_proc: vec![proc(1000.0), proc(2000.0)],
            faults: an_numa::FaultStats::default(),
        }
    }

    #[test]
    fn stats_agree_demands_every_integer_counter() {
        let base = two_procs();
        assert!(stats_agree(&base, &base.clone()));
        let bumps: [fn(&mut an_numa::ProcStats); 5] = [
            |p| p.local_accesses += 1,
            |p| p.remote_accesses += 1,
            |p| p.messages += 1,
            |p| p.transfer_bytes += 1,
            |p| p.outer_iterations += 1,
        ];
        for bump in bumps {
            let mut moved = base.clone();
            bump(&mut moved.per_proc[1]);
            assert!(!stats_agree(&base, &moved));
            assert!(!stats_agree(&moved, &base));
        }
    }

    #[test]
    fn stats_agree_tolerates_times_within_one_part_per_million() {
        let base = two_procs();
        let scaled = |busy: f64, time: f64| {
            let mut s = base.clone();
            s.per_proc[0].busy_us *= busy;
            s.time_us *= time;
            s
        };
        assert!(stats_agree(&base, &scaled(1.0 + 1e-7, 1.0 + 1e-7)));
        assert!(!stats_agree(&base, &scaled(1.0 + 1e-5, 1.0)));
        assert!(!stats_agree(&base, &scaled(1.0, 1.0 + 1e-5)));
    }

    #[test]
    fn stats_agree_rejects_a_different_processor_count() {
        let base = two_procs();
        let mut fewer = base.clone();
        fewer.per_proc.pop();
        assert!(!stats_agree(&base, &fewer));
        assert!(!stats_agree(&fewer, &base));
    }

    #[test]
    fn stats_agree_ignores_fault_accounting() {
        let base = two_procs();
        let mut faulted = base.clone();
        faulted.per_proc[0].retries = 3;
        faulted.per_proc[1].timeouts = 1;
        faulted.faults = an_numa::FaultStats {
            replayed_iterations: 7,
            redistributed_bytes: 128,
            failed_procs: vec![1],
        };
        assert!(stats_agree(&base, &faulted));
    }
}
