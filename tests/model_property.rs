//! The differential model-vs-simulator oracle.
//!
//! `an-model` prices a compiled SPMD program by closed-form counting —
//! no iteration-space enumeration — and claims *exact* agreement with
//! the discrete simulator on every integer counter of every processor:
//! local accesses, remote accesses, messages, transfer bytes and outer
//! iterations. This suite pins that claim three ways:
//!
//! 1. every corpus kernel under `examples/kernels/`, at every processor
//!    count in {1, 2, 4, 8, 16}, both with and without block transfers;
//! 2. ≥200 fuzz-generated kernels under random per-array distributions
//!    and random processor counts (errors must agree too: when one side
//!    rejects, the other must reject with the same typed error);
//! 3. the search: `autodist::search_report` under model pricing must
//!    produce the same scores as simulator pricing on the corpus, with
//!    its built-in top-k validation reporting zero mismatches.
//!
//! There is no tolerance anywhere on integer counters — the model and
//! the simulator are allowed to disagree nowhere (DESIGN.md §17).

use access_normalization::autodist::{search_report, AutoDistOptions, Pricing};
use access_normalization::model::model_stats;
use access_normalization::numa::{simulate, MachineConfig, SimError, SimStats};
use access_normalization::{compile, fuzz::generated_kernel, CompileOptions};

const CORPUS: &[&str] = &[
    "adi",
    "cholesky",
    "correlation",
    "decimate",
    "decimate_messy",
    "fig1",
    "gemm",
    "jacobi2d",
    "jacobi2d_messy",
    "lu",
    "mvt",
    "mvt_messy",
    "seidel2d",
    "syr2k",
    "trmm",
];
const PROCS: &[usize] = &[1, 2, 4, 8, 16];

fn kernel_source(name: &str) -> String {
    let path = format!("{}/examples/kernels/{name}.an", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Panics unless every integer counter of every processor matches
/// exactly and the float totals match to accumulation-order precision.
fn assert_exact(sim: &SimStats, model: &SimStats, at: &str) {
    assert_eq!(sim.per_proc.len(), model.per_proc.len(), "{at}");
    for (p, (s, m)) in sim.per_proc.iter().zip(&model.per_proc).enumerate() {
        assert_eq!(s.local_accesses, m.local_accesses, "{at} p={p} local");
        assert_eq!(s.remote_accesses, m.remote_accesses, "{at} p={p} remote");
        assert_eq!(s.messages, m.messages, "{at} p={p} messages");
        assert_eq!(s.transfer_bytes, m.transfer_bytes, "{at} p={p} bytes");
        assert_eq!(s.outer_iterations, m.outer_iterations, "{at} p={p} outer");
        let scale = s.busy_us.abs().max(1.0);
        assert!(
            (s.busy_us - m.busy_us).abs() / scale < 1e-9,
            "{at} p={p} busy: sim {} model {}",
            s.busy_us,
            m.busy_us
        );
    }
    let scale = sim.time_us.abs().max(1.0);
    assert!(
        (sim.time_us - model.time_us).abs() / scale < 1e-9,
        "{at} time: sim {} model {}",
        sim.time_us,
        model.time_us
    );
}

#[test]
fn every_corpus_kernel_counts_exactly() {
    let machine = MachineConfig::butterfly_gp1000();
    for name in CORPUS {
        let src = kernel_source(name);
        for transfers in [true, false] {
            let opts = CompileOptions {
                spmd: access_normalization::codegen::SpmdOptions {
                    block_transfers: transfers,
                },
                ..CompileOptions::default()
            };
            let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let params = compiled.program.default_param_values();
            for &procs in PROCS {
                let at = format!("{name} P={procs} transfers={transfers}");
                let sim = simulate(&compiled.spmd, &machine, procs, &params)
                    .unwrap_or_else(|e| panic!("{at}: sim: {e}"));
                let model = model_stats(&compiled.spmd, &machine, procs, &params)
                    .unwrap_or_else(|e| panic!("{at}: model: {e}"));
                assert_exact(&sim, &model, &at);
            }
        }
    }
}

/// A source that compiles and verifies but whose third read,
/// `A[i64::MAX · i, j]`, leaves `i64` at `i = 2`: with transfers on the
/// hoisted transfer's subscript overflows, with transfers off the
/// access's own. Both evaluators must reject it with the same typed
/// error instead of panicking in their unchecked evaluation.
#[test]
fn both_evaluators_reject_an_overflowing_subscript_alike() {
    let src = "param N = 8; array A[N, N] distribute wrapped(0);
        for i = 1, N - 1 { for j = 1, N - 1 {
          A[i, j] = A[i - 1, j] + A[i, j - 1] + A[9223372036854775807 * i, j];
        } }";
    let machine = MachineConfig::butterfly_gp1000();
    for transfers in [true, false] {
        let opts = CompileOptions {
            spmd: access_normalization::codegen::SpmdOptions {
                block_transfers: transfers,
            },
            ..CompileOptions::default()
        };
        let compiled = compile(src, &opts).unwrap();
        let params = compiled.program.default_param_values();
        let expected = Err(SimError::SubscriptOverflow {
            array: "A".into(),
            dim: 0,
        });
        assert_eq!(simulate(&compiled.spmd, &machine, 4, &params), expected);
        assert_eq!(model_stats(&compiled.spmd, &machine, 4, &params), expected);
    }
}

/// Two reads near the edge of `i64` that validation admits or rejects,
/// and that both evaluators must then price, or reject, alike: a
/// wrapped read whose coefficient is near 2⁶² (priced: only its residue
/// mod P matters), and a blocked read past the block-interval sentinels
/// (rejected: no block's interval holds it, though `home_of` clamps it
/// into the last).
#[test]
fn both_evaluators_agree_on_reads_at_the_edge_of_i64() {
    let wrapped = "param N = 4; array A[9223372036854775807] distribute wrapped(0);
        array B[N, 2] distribute wrapped(0);
        for i = 0, N - 1 { for j = 0, 1 { B[i, j] = A[4000000000000000001 * j] + 1; } }";
    let blocked = "param N = 4; array A[100] distribute blocked(0);
        array B[N, 2] distribute wrapped(0);
        for i = 0, N - 1 { for j = 0, 1 { B[i, j] = A[7000000000000000000 + j] + 1; } }";
    let machine = MachineConfig::butterfly_gp1000();
    for (name, src) in [("wrapped", wrapped), ("blocked", blocked)] {
        for transfers in [true, false] {
            let opts = CompileOptions {
                spmd: access_normalization::codegen::SpmdOptions {
                    block_transfers: transfers,
                },
                ..CompileOptions::default()
            };
            let compiled = compile(src, &opts).unwrap();
            let params = compiled.program.default_param_values();
            for procs in [3, 4, 5, 8] {
                let at = format!("{name} P={procs} transfers={transfers}");
                let sim = simulate(&compiled.spmd, &machine, procs, &params);
                let model = model_stats(&compiled.spmd, &machine, procs, &params);
                match (name, sim, model) {
                    ("wrapped", Ok(sim), Ok(model)) => assert_exact(&sim, &model, &at),
                    ("blocked", sim, model) => {
                        let expected = Err(SimError::SubscriptOverflow {
                            array: "A".into(),
                            dim: 0,
                        });
                        assert_eq!(sim, expected, "{at}");
                        assert_eq!(model, expected, "{at}");
                    }
                    (_, sim, model) => panic!("{at}: sim {sim:?} model {model:?}"),
                }
            }
        }
    }
}

/// splitmix64, the repo's standard reproducible stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn two_hundred_fuzz_cases_count_exactly() {
    let machine = MachineConfig::butterfly_gp1000();
    let dists = [
        "wrapped(0)",
        "wrapped(1)",
        "blocked(0)",
        "blocked(1)",
        "block2d(0, 1)",
        "replicated",
    ];
    let mut checked = 0u32;
    for case in 0..200u64 {
        let mut src = generated_kernel(mix(case));
        // Reassign both arrays' distributions pseudo-randomly. A picked
        // distribution naming a dimension the array does not have is
        // rewritten to a 1-D plan below.
        let rank = src
            .lines()
            .find(|l| l.starts_with("array A["))
            .map_or(1, |l| l.matches(',').count() + 1);
        for (k, _) in ["array A", "array B"].iter().enumerate() {
            let mut d = dists[(mix(case ^ (k as u64) << 32) % 6) as usize];
            if rank < 2 && (d.contains('1') || d.contains("block2d")) {
                d = "blocked(0)";
            }
            let at = src
                .find("distribute wrapped(")
                .expect("generator emits wrapped");
            let end = at + src[at..].find(')').expect("closing paren") + 1;
            src.replace_range(at..end, &format!("distribute {d}"));
        }
        let compiled = match compile(&src, &CompileOptions::default()) {
            Ok(c) => c,
            // A typed rejection (e.g. a distribution dimension the
            // lowered array lacks) is outside the oracle's scope.
            Err(_) => continue,
        };
        let params = compiled.program.default_param_values();
        let procs = [1usize, 2, 3, 4, 8, 16][(mix(!case) % 6) as usize];
        let at = format!("fuzz case {case} P={procs}:\n{src}");
        match (
            simulate(&compiled.spmd, &machine, procs, &params),
            model_stats(&compiled.spmd, &machine, procs, &params),
        ) {
            (Ok(sim), Ok(model)) => assert_exact(&sim, &model, &at),
            (Err(a), Err(b)) => assert_eq!(a, b, "{at}"),
            (sim, model) => panic!("{at}: one side failed: sim {sim:?} model {model:?}"),
        }
        checked += 1;
    }
    assert!(
        checked >= 190,
        "only {checked}/200 cases reached the oracle"
    );
}

#[test]
fn search_scores_match_between_pricings_on_the_corpus() {
    // Model-priced and simulator-priced searches must assign the same
    // score to every candidate (rank-for-rank, to accumulation-order
    // precision) and the model search's own top-k validation must be
    // clean. Small kernels keep the exhaustive product affordable.
    let machine = MachineConfig::butterfly_gp1000();
    for name in ["mvt", "decimate", "trmm"] {
        let src = kernel_source(name);
        let compiled = compile(&src, &CompileOptions::default()).unwrap();
        let base = AutoDistOptions {
            procs: 4,
            allow_replication: false,
            top_k: 4,
            ..AutoDistOptions::default()
        };
        let by_model = search_report(&compiled.program, &machine, &base).unwrap();
        assert!(by_model.validated > 0, "{name}: nothing validated");
        assert_eq!(by_model.mismatches, 0, "{name}: model diverged from sim");
        let by_sim = search_report(
            &compiled.program,
            &machine,
            &AutoDistOptions {
                price: Pricing::Sim,
                ..base
            },
        )
        .unwrap();
        assert_eq!(by_model.ranking.len(), by_sim.ranking.len(), "{name}");
        for (rank, (a, b)) in by_model.ranking.iter().zip(&by_sim.ranking).enumerate() {
            let scale = b.predicted_time_us.abs().max(1.0);
            assert!(
                (a.predicted_time_us - b.predicted_time_us).abs() / scale < 1e-9,
                "{name} rank {rank}: model {} sim {}",
                a.predicted_time_us,
                b.predicted_time_us
            );
        }
        // The model winner sits in the simulator's leading tie group.
        let best = &by_model.ranking[0];
        let sim_best = by_sim.ranking[0].predicted_time_us;
        assert!(
            by_sim
                .ranking
                .iter()
                .take_while(|c| {
                    let scale = sim_best.abs().max(1.0);
                    (c.predicted_time_us - sim_best).abs() / scale < 1e-9
                })
                .any(|c| c.assignment == best.assignment),
            "{name}: model winner not in the simulator's tie group"
        );
    }
}

#[test]
fn both_evaluators_conserve_work_against_nest_counting() {
    // The layer the two evaluators share — `executes_level` and
    // `restrict_to_grid_column` in `an_numa::plan` — must *partition*
    // the iteration space over the processors: every iteration priced
    // exactly once. Checked against `Nest::iteration_count` (an
    // independent walk of the loop bounds), not against the other
    // evaluator, so a fault in the shared filter cannot cancel out.
    use access_normalization::codegen::OuterAssignment;
    use access_normalization::ir::Stmt;

    // The corpus has no block2d kernel, so 2-D tiling gets its own row
    // (with a transposed read, so some of the counted accesses are remote).
    let tiled = "param N = 20;
         array A[N, N] distribute block2d(0, 1);
         array B[N, N] distribute block2d(0, 1);
         for i = 0, N - 1 { for j = 0, N - 1 {
             A[i, j] = A[i, j] + B[j, i];
         } }"
    .to_string();
    let kernels = CORPUS
        .iter()
        .map(|name| (*name, kernel_source(name)))
        .chain([("tiled", tiled)]);

    let machine = MachineConfig::butterfly_gp1000();
    let mut seen = [false; 3];
    for (name, src) in kernels {
        for transfers in [true, false] {
            let opts = CompileOptions {
                spmd: access_normalization::codegen::SpmdOptions {
                    block_transfers: transfers,
                },
                ..CompileOptions::default()
            };
            let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let spmd = &compiled.spmd;
            seen[match spmd.outer {
                OuterAssignment::ByHome { .. } => 0,
                OuterAssignment::ByHome2D { .. } => 1,
                OuterAssignment::RoundRobin => 2,
            }] = true;
            let params = compiled.program.default_param_values();
            let per_iteration: u64 = spmd
                .program
                .nest
                .body
                .iter()
                .map(|stmt| match stmt {
                    Stmt::Assign { rhs, .. } => 1 + rhs.reads().len() as u64,
                    _ => 0,
                })
                .sum();
            let expected = per_iteration * spmd.program.nest.iteration_count(&params).unwrap();
            for procs in [1usize, 2, 3, 5, 8] {
                let at = format!("{name} P={procs} transfers={transfers}");
                for (evaluator, stats) in [
                    ("simulate", simulate(spmd, &machine, procs, &params)),
                    ("model_stats", model_stats(spmd, &machine, procs, &params)),
                ] {
                    let stats = stats.unwrap_or_else(|e| panic!("{at}: {evaluator}: {e}"));
                    assert_eq!(
                        stats.total_local() + stats.total_remote(),
                        expected,
                        "{at}: {evaluator} did not price every iteration exactly once"
                    );
                }
            }
        }
    }
    assert_eq!(seen, [true; 3], "an outer assignment went unexercised");
}
