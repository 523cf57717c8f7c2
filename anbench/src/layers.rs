//! The traced run: where a workload's round time goes (spans around
//! the benchmark's own calls, self time per layer, an explicit `other`
//! row) and the per-layer probes that call each layer's public
//! functions directly.
//!
//! The probes always run on the corpus at its default sizes (the
//! verifier and interpreter probes at the `check_corpus` sizes), so a
//! per-layer number means the same thing on every workload and every
//! seed, and every count repeats exactly.

use crate::calib::Calibrator;
use crate::daemon::{compile_frame, Client, Daemon};
use crate::gen::{corpus_inputs, Input};
use crate::stats::{geomean, median};
use crate::trace::{layer_of, Recorder};
use crate::workloads::{
    compile_one, core_normalize, search_options, Measured, Spec, CHECK_SCALE, LOAD_THREADS, PROCS,
};
use crate::{obj, Env, Metric};
use access_normalization as an;
use an::autodist::{search_report, AutoDistOptions, Pricing};
use an::numa::MachineConfig;
use an::serve::json::{self, Json};
use an::{CompileOptions, Compiled, PipelineCtx};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions of a microsecond-scale probe (after one untimed
/// call); the probe's value is their median.
const REPS: usize = 9;
/// Repetitions of a millisecond-scale probe.
const SLOW_REPS: usize = 3;
/// Spans written to the trace file; totals are computed from all spans.
const SPANS_WRITTEN: usize = 20_000;
const MODEL_PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// Median of `reps` timings of `f` in microseconds, after one untimed
/// call.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Where the round time of a traced workload went. Prints one row per
/// span name with its self time and share of the **untraced** round,
/// an explicit `other` row for what no span covers, and writes
/// `trace_<workload>.json`.
pub fn attribute(
    env: &Env,
    spec: &Spec,
    seed: u64,
    untraced: &Measured,
    traced: &Measured,
) -> Result<Vec<Metric>, String> {
    // Both sides with the interference correction every other timing
    // gets.
    let untraced_round_us = untraced.round_us();
    let traced_round_us = traced.round_us();
    let factors = traced.factors();
    // The benchmark's own bookkeeping spans are not a layer of the
    // program: they fall into `other`.
    let self_us: Vec<(&str, f64)> = traced
        .recorder
        .self_ns_by_name(|round| factors.get(round).copied())
        .into_iter()
        .filter(|(name, _)| layer_of(name) != "anbench")
        .map(|(name, ns)| (name, ns / 1e3 / factors.len() as f64))
        .collect();
    let other_us = untraced_round_us - self_us.iter().map(|(_, us)| us).sum::<f64>();
    let overhead_share = traced_round_us / untraced_round_us - 1.0;
    let other_share = other_us / untraced_round_us;

    println!(
        "round_us   untraced {untraced_round_us:.1}, traced {traced_round_us:.1} (medians of {} and {} rounds)",
        untraced.rounds.len(),
        traced.rounds.len()
    );
    let mut rows = Vec::new();
    for (name, us) in &self_us {
        println!(
            "self_us    {name:<28} {us:>14.1} {:>6.1} %",
            us / untraced_round_us * 100.0
        );
        rows.push(obj([
            ("name", Json::Str((*name).to_string())),
            ("layer", Json::Str(layer_of(name).to_string())),
            ("self_us_per_round", Json::Num(*us)),
            ("share", Json::Num(us / untraced_round_us)),
        ]));
    }
    println!(
        "self_us    {:<28} {other_us:>14.1} {:>6.1} %",
        "other",
        other_share * 100.0
    );

    let file = obj([
        ("workload", Json::Str(spec.name.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("rounds_traced", Json::Num(factors.len() as f64)),
        ("round_us_untraced", Json::Num(untraced_round_us)),
        ("round_us_traced", Json::Num(traced_round_us)),
        ("layers", Json::Arr(rows)),
        ("other_us_per_round", Json::Num(other_us)),
        ("spans_total", Json::Num(traced.recorder.spans.len() as f64)),
        ("spans", traced.recorder.spans_json(SPANS_WRITTEN)),
    ]);
    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", env.out_dir))?;
    let path = env.out_dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&path, file.to_string()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("trace      {}", path.display());

    Ok(vec![
        Metric::new("trace.overhead_share", overhead_share, "ratio"),
        Metric::new("trace.other_share", other_share, "ratio"),
    ])
}

/// Collects probe results; a probe that finds a wrong answer records it
/// here and the run reports it as a failure.
struct Probes {
    metrics: Vec<Metric>,
    wrong: Vec<String>,
    calibrator: Calibrator,
    /// Per closed CPU-bound group: its metrics' index range and the sum
    /// and count of the reference probes taken while it ran.
    groups: Vec<(std::ops::Range<usize>, f64, usize)>,
    group_started_at: usize,
    group_probes: (f64, usize),
}

impl Probes {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Takes reference probes after `seconds` of CPU-bound probing.
    fn calibrate(&mut self, seconds: f64) {
        let (sum, count) = self.calibrator.probe_after(seconds);
        self.group_probes.0 += sum;
        self.group_probes.1 += count;
    }

    /// Closes a CPU-bound group: the metrics put since the last group
    /// ended are corrected with the probes taken since then.
    fn end_cpu_group(&mut self) {
        let (sum, count) = std::mem::take(&mut self.group_probes);
        self.groups
            .push((self.group_started_at..self.metrics.len(), sum, count));
        self.group_started_at = self.metrics.len();
    }

    /// Closes a group timed on the wall clock (sockets, disk, process
    /// start): nothing to correct.
    fn end_wall_group(&mut self) {
        self.group_started_at = self.metrics.len();
        self.group_probes = (0.0, 0);
    }

    /// Applies the interference correction of [`crate::calib`] group by
    /// group: times are multiplied by `nominal / group mean`, rates
    /// divided by it; ratios and counts stay.
    fn corrected(mut self) -> (Vec<Metric>, Vec<String>) {
        if let Some(nominal) = self.calibrator.nominal() {
            for (range, sum, count) in &self.groups {
                if *count == 0 {
                    continue;
                }
                let factor = nominal / (sum / *count as f64);
                for metric in &mut self.metrics[range.clone()] {
                    match metric.unit {
                        "us" => metric.value *= factor,
                        "1/s" => metric.value /= factor,
                        _ => {}
                    }
                }
            }
        }
        (self.metrics, self.wrong)
    }
}

/// Every per-layer metric, measured by calling each layer's public
/// functions from here, and one line per wrong answer a probe saw.
pub fn probe_all(env: &Env) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut p = Probes {
        metrics: Vec::new(),
        wrong: Vec::new(),
        calibrator: Calibrator::default(),
        groups: Vec::new(),
        group_started_at: 0,
        group_probes: (0.0, 0),
    };
    let corpus = corpus_inputs(|_, _| true, 1.0);
    let compiled = probe_compile(&corpus, &mut p)?;
    p.end_cpu_group();
    let price_us = probe_pricing(&corpus, &compiled, &mut p);
    p.end_cpu_group();
    probe_search(&corpus, &compiled, &price_us, &mut p)?;
    p.end_cpu_group();
    probe_verify(&mut p)?;
    p.end_cpu_group();
    probe_serve(env, &corpus, &mut p)?;
    p.end_wall_group();
    Ok(p.corrected())
}

/// Front end and compile layers, stage by stage, on each corpus kernel.
/// Times are the mean over the kernels of each kernel's median.
fn probe_compile(corpus: &[Input], p: &mut Probes) -> Result<Vec<(Compiled, f64)>, String> {
    let opts = CompileOptions::default();
    let stages = [
        "lang.lex_parse_us",
        "normal.normalize_us",
        "lang.lower_us",
        "deps.analyze_us",
        "core.normalize_us",
        "codegen.restructure_us",
        "codegen.spmd_us",
        "codegen.emit_us",
    ];
    let mut stage_us: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    let (mut hnf_us, mut bounds_us) = (Vec::new(), Vec::new());
    let (mut onecall_us, mut warm_us, mut traced_extra_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tokens_n, mut findings, mut edges, mut columns) = (0usize, 0usize, 0usize, 0usize);
    let (mut transfers, mut spmd_bytes) = (0usize, 0usize);
    let (mut ctx_hits, mut ctx_lookups) = (0u64, 0u64);
    let mut out = Vec::new();
    for input in corpus {
        let kernel_started = Instant::now();
        let bug = |e: &dyn std::fmt::Display| format!("probe: {}: {e}", input.label);
        let src = input.source.as_str();
        let tokens = an::lang::lexer::lex(src).map_err(|e| bug(&e))?;
        let raw_ast = an::lang::parser::parse_tokens(&tokens).map_err(|e| bug(&e))?;
        let normal_opts = an::normal::Options::default();
        let normalized_ast = an::normal::normalize(&raw_ast, &normal_opts);
        let ast = &normalized_ast.ast;
        let program = an::lang::lower::lower(ast).map_err(|e| bug(&e))?;
        let deps = an::deps::analyze(&program, &opts.normalize.deps).map_err(|e| bug(&e))?;
        let normalized = core_normalize(&program, &opts, &deps).map_err(|e| bug(&e))?;
        let transformed =
            an::codegen::apply_transform(&program, &normalized.transform).map_err(|e| bug(&e))?;
        let spmd =
            an::codegen::generate_spmd(&transformed, Some(&normalized.dependences), &opts.spmd);
        let text = an::codegen::emit::emit_spmd(&spmd);

        let timings = [
            time_us(REPS, || {
                an::lang::lexer::lex(src).and_then(|t| an::lang::parser::parse_tokens(&t))
            }),
            time_us(REPS, || an::normal::normalize(&raw_ast, &normal_opts)),
            time_us(REPS, || an::lang::lower::lower(ast)),
            time_us(REPS, || an::deps::analyze(&program, &opts.normalize.deps)),
            time_us(REPS, || core_normalize(&program, &opts, &deps)),
            time_us(REPS, || {
                an::codegen::apply_transform(&program, &normalized.transform)
            }),
            time_us(REPS, || {
                an::codegen::generate_spmd(&transformed, Some(&normalized.dependences), &opts.spmd)
            }),
            time_us(REPS, || an::codegen::emit::emit_spmd(&spmd)),
        ];
        for (all, one) in stage_us.iter_mut().zip(timings) {
            all.push(one);
        }
        hnf_us.push(time_us(REPS, || {
            an::linalg::hnf::column_hnf(&normalized.transform)
        }));
        let system = transformed.program.nest.constraint_system();
        bounds_us.push(time_us(REPS, || an::poly::bounds::extract_bounds(&system)));

        let one = time_us(REPS, || an::compile_program(&program, &opts));
        onecall_us.push(one);
        let ctx = PipelineCtx::new();
        warm_us.push(time_us(REPS, || {
            an::compile_program_with(&program, &opts, &ctx)
        }));
        let stats = ctx.stats();
        ctx_hits += stats.hits;
        ctx_lookups += stats.lookups();
        let traced_opts = CompileOptions {
            tracer: Some(Arc::new(an::obs::Tracer::new())),
            ..CompileOptions::default()
        };
        let traced = time_us(REPS, || an::compile_program(&program, &traced_opts));
        traced_extra_us.push(traced - one);

        tokens_n += tokens.len();
        findings += normalized_ast.report.diagnostics.len();
        edges += deps.deps.len();
        columns += deps.matrix.cols();
        transfers += spmd.transfers.len();
        spmd_bytes += text.len();
        let (reference, reference_text) = compile_one(src).map_err(|e| bug(&e))?;
        if reference_text != text {
            p.wrong.push(format!(
                "{}: staged pipeline text differs from compile()",
                input.label
            ));
        }
        out.push((reference, *warm_us.last().expect("just pushed")));
        p.calibrate(kernel_started.elapsed().as_secs_f64());
    }
    let means: Vec<f64> = stage_us.iter().map(|v| mean(v)).collect();
    let total: f64 = means.iter().sum();
    for (name, us) in stages.iter().zip(&means) {
        p.put(name, *us, "us");
    }
    p.put("normal.share", means[1] / total, "ratio");
    p.put("core.share", means[4] / total, "ratio");
    p.put("linalg.hnf_us", mean(&hnf_us), "us");
    p.put("poly.bounds_us", mean(&bounds_us), "us");
    p.put("driver.compile_us", mean(&onecall_us), "us");
    p.put("driver.compile_warmctx_us", mean(&warm_us), "us");
    p.put(
        "driver.ctx_hit_ratio",
        ctx_hits as f64 / ctx_lookups.max(1) as f64,
        "ratio",
    );
    // deps + normalize + restructure + spmd called one by one, against
    // the driver's single call over the same program.
    p.put(
        "driver.staged_vs_onecall",
        means[3..7].iter().sum::<f64>() / mean(&onecall_us),
        "ratio",
    );
    p.put("obs.trace_overhead_us", mean(&traced_extra_us), "us");
    p.put("lang.tokens", tokens_n as f64, "count");
    p.put("normal.findings", findings as f64, "count");
    p.put("deps.edges", edges as f64, "count");
    p.put("deps.distance_columns", columns as f64, "count");
    p.put("codegen.transfers", transfers as f64, "count");
    p.put("codegen.spmd_bytes", spmd_bytes as f64, "bytes");
    Ok(out)
}

/// Model, simulator and the heuristic predictor on each compiled
/// kernel. Returns each kernel's model price at `PROCS` in µs.
fn probe_pricing(corpus: &[Input], compiled: &[(Compiled, f64)], p: &mut Probes) -> Vec<f64> {
    let machine = MachineConfig::butterfly_gp1000();
    let (mut model_us, mut model_at_procs_us) = (Vec::new(), Vec::new());
    let (mut sim_us, mut predict_us, mut priced_time) = (Vec::new(), Vec::new(), Vec::new());
    let (mut local, mut remote, mut messages, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for (input, (c, _)) in corpus.iter().zip(compiled) {
        let kernel_started = Instant::now();
        let params = c.program.default_param_values();
        for procs in MODEL_PROCS {
            let us = time_us(SLOW_REPS, || {
                an::model::model_stats(&c.spmd, &machine, procs, &params)
            });
            model_us.push(us);
            if procs == PROCS {
                model_at_procs_us.push(us);
            }
            let sim = an::numa::simulate(&c.spmd, &machine, procs, &params);
            let model = an::model::model_stats(&c.spmd, &machine, procs, &params);
            match (sim, model) {
                (Ok(s), Ok(m)) if an::autodist::stats_agree(&s, &m) => {
                    if procs == PROCS {
                        local += s.total_local();
                        remote += s.total_remote();
                        messages += s.total_messages();
                        bytes += s.total_transfer_bytes();
                        priced_time.push(s.time_us);
                    }
                }
                _ => p.wrong.push(format!(
                    "{}: model and simulator disagree at P={procs}",
                    input.label
                )),
            }
        }
        sim_us.push(time_us(SLOW_REPS, || {
            an::numa::simulate(&c.spmd, &machine, PROCS, &params)
        }));
        predict_us.push(time_us(REPS, || {
            an::numa::predict(&c.spmd, &machine, PROCS, &params)
        }));
        p.calibrate(kernel_started.elapsed().as_secs_f64());
    }
    p.put("model.price_us", mean(&model_us), "us");
    p.put(
        "model.vs_sim_ratio",
        mean(&sim_us) / mean(&model_at_procs_us),
        "ratio",
    );
    p.put("numa.simulate_us", mean(&sim_us), "us");
    p.put("numa.predict_us", mean(&predict_us), "us");
    p.put("numa.local_accesses", local as f64, "count");
    p.put("numa.remote_accesses", remote as f64, "count");
    p.put("numa.messages", messages as f64, "count");
    p.put("numa.transfer_bytes", bytes as f64, "bytes");
    // The run time of the generated code, as priced: simulated
    // completion time on the GP-1000 at PROCS with block transfers on.
    // Simulated microseconds are exact, so they get a unit of their own
    // that the interference correction leaves alone.
    if !priced_time.is_empty() {
        p.put("numa.priced_time_us", geomean(&priced_time), "sim_us");
    }
    p.put(
        "numa.remote_access_share",
        remote as f64 / (local + remote).max(1) as f64,
        "ratio",
    );
    model_at_procs_us
}

/// The distribution search on every corpus kernel: model-priced and
/// simulator-priced at two jobs, and model-priced at one job (the
/// additive base for `other_share` and the parallel speed-up).
fn probe_search(
    corpus: &[Input],
    compiled: &[(Compiled, f64)],
    price_us: &[f64],
    p: &mut Probes,
) -> Result<(), String> {
    let machine = MachineConfig::butterfly_gp1000();
    let (mut model_s, mut sim_s, mut serial_s, mut explained_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut candidates, mut validated, mut hits, mut misses) = (0usize, 0usize, 0u64, 0u64);
    for ((input, (c, warm_compile_us)), price) in corpus.iter().zip(compiled).zip(price_us) {
        let timed = |opts: &AutoDistOptions| {
            let started = Instant::now();
            let report = search_report(&c.program, &machine, opts)
                .map_err(|e| format!("probe: search of {}: {e}", input.label))?;
            Ok::<_, String>((started.elapsed().as_secs_f64(), report))
        };
        let (model, report) = timed(&search_options())?;
        p.calibrate(model);
        let (sim, sim_report) = timed(&AutoDistOptions {
            price: Pricing::Sim,
            ..search_options()
        })?;
        p.calibrate(sim);
        let (serial, serial_report) = timed(&AutoDistOptions {
            jobs: 1,
            ..search_options()
        })?;
        p.calibrate(serial);
        println!(
            "search_us  {:<16} model {:>10.0}  sim {:>10.0}  model at one job {:>10.0}  ({} candidates)",
            input.label,
            model * 1e6,
            sim * 1e6,
            serial * 1e6,
            report.evaluated
        );
        if report.mismatches != 0 || report.skipped != 0 {
            p.wrong.push(format!(
                "{}: search skipped {} and mismatched {}",
                input.label, report.skipped, report.mismatches
            ));
        }
        if report.ranking != sim_report.ranking {
            // Equal up to float accumulation order is the contract; the
            // winner must be the same assignment.
            let same_winner = report.ranking.first().map(|r| &r.assignment)
                == sim_report.ranking.first().map(|r| &r.assignment);
            if !same_winner {
                p.wrong.push(format!(
                    "{}: model-priced and simulator-priced searches pick different winners",
                    input.label
                ));
            }
        }
        model_s += model;
        sim_s += sim;
        serial_s += serial;
        explained_s += report.evaluated as f64 * (warm_compile_us + price) / 1e6;
        candidates += report.evaluated;
        validated += report.validated;
        // With two jobs the workers race for who fills a memo entry
        // first, so only the one-job search's counts repeat exactly.
        hits += serial_report.cache.hits;
        misses += serial_report.cache.misses;
    }
    let per_candidate_us = |seconds: f64| seconds * 1e6 / candidates.max(1) as f64;
    p.put("autodist.search_us", per_candidate_us(model_s), "us");
    p.put("autodist.search_sim_us", per_candidate_us(sim_s), "us");
    p.put("autodist.candidates", candidates as f64, "count");
    p.put("autodist.validated", validated as f64, "count");
    p.put("autodist.cache_hits", hits as f64, "count");
    p.put("autodist.cache_misses", misses as f64, "count");
    // What candidates x (warm compile + model price) does not explain of
    // the one-job search: top-k validation, ranking, winner rebuilds.
    p.put(
        "autodist.other_share",
        1.0 - explained_s / serial_s,
        "ratio",
    );
    p.put("par.speedup_j2", serial_s / model_s, "ratio");
    debug_assert_eq!(LOAD_THREADS, 2, "par.speedup_j2 names two jobs");
    Ok(())
}

/// The verifier and the interpreter on the corpus at the
/// `check_corpus` sizes.
fn probe_verify(p: &mut Probes) -> Result<(), String> {
    let (mut check_us, mut interp_us) = (Vec::new(), Vec::new());
    let mut points = 0u64;
    for input in corpus_inputs(|_, _| true, CHECK_SCALE) {
        let kernel_started = Instant::now();
        let (c, _) =
            compile_one(&input.source).map_err(|e| format!("probe: {}: {e}", input.label))?;
        let started = Instant::now();
        let report = black_box(an::verify(&c));
        check_us.push(started.elapsed().as_secs_f64() * 1e6);
        if report.has_errors() {
            p.wrong.push(format!(
                "{}: verifier reported {:?} on a sound kernel",
                input.label,
                report.codes()
            ));
        }
        let Some(params) = report.checked_params else {
            p.wrong.push(format!(
                "{}: verifier skipped its concrete checks",
                input.label
            ));
            continue;
        };
        points += c
            .program
            .nest
            .iteration_count(&params)
            .map_err(|e| format!("probe: {}: {e}", input.label))?;
        interp_us.push(time_us(SLOW_REPS, || {
            (
                an::ir::interp::run_seeded(&c.program, &params, 1),
                an::ir::interp::run_seeded(&c.transformed.program, &params, 1),
            )
        }));
        p.calibrate(kernel_started.elapsed().as_secs_f64());
    }
    p.put("verify.check_us", mean(&check_us), "us");
    p.put("verify.checked_points", points as f64, "count");
    p.put("ir.interp_us", mean(&interp_us), "us");
    // Both nests are interpreted, so each point is visited twice.
    p.put(
        "ir.points_per_s",
        2.0 * points as f64 / (interp_us.iter().sum::<f64>() / 1e6),
        "1/s",
    );
    Ok(())
}

/// A directory under the benchmark's output directory, removed when
/// dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(env: &Env, tag: &str) -> Result<ScratchDir, String> {
        let dir = env.out_dir.join(format!("{tag}.{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        // A Unix socket path holds about a hundred bytes: name it from
        // the working directory when the directory is below it.
        let short = std::env::current_dir()
            .ok()
            .and_then(|cwd| dir.strip_prefix(cwd).map(Path::to_path_buf).ok())
            .unwrap_or(dir);
        Ok(ScratchDir(short))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The serve layer piece by piece: frame and JSON parsing, the daemon
/// core in process (hit and miss), the disk store, then a real daemon
/// over a Unix socket and over TCP, and a one-shot `anc` process.
fn probe_serve(env: &Env, corpus: &[Input], p: &mut Probes) -> Result<(), String> {
    use an::serve::proto::{parse_request, Emit, DEFAULT_MAX_FRAME_BYTES};
    let frames: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, input)| compile_frame(i as u64, &input.source))
        .collect();
    let per_frame =
        |f: &dyn Fn(&str) -> f64| mean(&frames.iter().map(|x| f(x)).collect::<Vec<_>>());
    p.put(
        "serve.proto_parse_us",
        per_frame(&|frame| time_us(REPS, || parse_request(frame, DEFAULT_MAX_FRAME_BYTES))),
        "us",
    );
    p.put(
        "serve.json_parse_us",
        per_frame(&|frame| time_us(REPS, || json::parse(frame))),
        "us",
    );

    let wait = Duration::from_secs(30);
    let server = an::serve::Server::start(an::serve::ServeConfig {
        workers: LOAD_THREADS,
        ..an::serve::ServeConfig::default()
    });
    let mut miss_us = Vec::new();
    for (frame, input) in frames.iter().zip(corpus) {
        let started = Instant::now();
        let line = server.request_sync(frame, wait);
        miss_us.push(started.elapsed().as_secs_f64() * 1e6);
        if !line.contains("\"ok\":true") || !line.contains("\"cached\":false") {
            p.wrong
                .push(format!("{}: in-process miss answered {line}", input.label));
        }
    }
    // A hit's answer carries no timing digits, so its length is exact.
    let response_bytes: usize = frames
        .iter()
        .map(|frame| server.request_sync(frame, wait).len())
        .sum();
    let hit_us = per_frame(&|frame| time_us(REPS, || server.request_sync(frame, wait)));
    server.join();
    p.put("serve.core_miss_us", mean(&miss_us), "us");
    p.put("serve.core_hit_us", hit_us, "us");
    p.put("serve.response_bytes", response_bytes as f64, "bytes");

    let scratch = ScratchDir::new(env, "probe")?;
    let store = an::serve::store::CacheStore::open(&scratch.0.join("store"))
        .map_err(|e| format!("cannot open a cache store under {:?}: {e}", scratch.0))?;
    let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
    for (i, input) in corpus.iter().enumerate() {
        let (_, text) = compile_one(&input.source)?;
        let artifacts = vec![(Emit::Spmd, text)];
        put_us.push(time_us(SLOW_REPS, || {
            store.store_artifacts(i as u64, &artifacts)
        }));
        get_us.push(time_us(REPS, || store.load_artifacts(i as u64)));
        if store.load_artifacts(i as u64) != an::serve::store::Loaded::Hit(artifacts) {
            p.wrong.push(format!(
                "{}: the disk store did not return what was stored",
                input.label
            ));
        }
    }
    p.put("serve.store_put_us", mean(&put_us), "us");
    p.put("serve.store_get_us", mean(&get_us), "us");

    // One daemon on both transports, the cache filled over the Unix
    // socket, then every source requested once more over each.
    let daemon = Daemon::spawn(&env.anc, Some(scratch.0.join("sock")))?;
    let quote = |e: String| format!("{e}; daemon stderr: {:?}", daemon.stderr());
    let socket = daemon
        .unix
        .clone()
        .expect("spawned with a socket directory");
    let mut unix = Client::unix(&socket).map_err(quote)?;
    let mut tcp = Client::tcp(daemon.tcp).map_err(quote)?;
    let mut off = Recorder::new(false);
    for frame in &frames {
        unix.request(frame, &mut off).map_err(quote)?;
    }
    let (mut unix_us, mut tcp_us) = (Vec::new(), Vec::new());
    for (frame, input) in frames.iter().zip(corpus) {
        let mut hit = |client: &mut Client, samples: &mut Vec<f64>| -> Result<(), String> {
            let started = Instant::now();
            let line = client.request(frame, &mut off).map_err(quote)?;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
            if !line.contains("\"cached\":true") {
                p.wrong
                    .push(format!("{}: the warm daemon answered {line}", input.label));
            }
            Ok(())
        };
        for _ in 0..SLOW_REPS {
            hit(&mut unix, &mut unix_us)?;
        }
        hit(&mut tcp, &mut tcp_us)?;
    }
    let status = daemon.status().map_err(quote)?;
    let counter = |group: &str, key: &str| {
        status
            .get(group)
            .and_then(|g| g.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("the daemon's status has no {group}.{key}"))
    };
    let (hits, misses) = (counter("cache", "hits")?, counter("cache", "misses")?);
    if counter("faults", "overloaded")? + counter("conns", "shed")? != 0 {
        p.wrong
            .push("the daemon shed load under two connections".to_string());
    }
    drop(daemon);
    p.put("serve.unix_hit_us", median(&unix_us), "us");
    p.put("serve.tcp_hit_us", median(&tcp_us), "us");
    // The share of a TCP hit that is not the daemon core answering.
    p.put("serve.net_share", 1.0 - hit_us / median(&tcp_us), "ratio");
    p.put(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );

    // Process start to exit of one-shot `anc <kernel.an>`.
    let mut oneshot_us = Vec::new();
    for input in corpus {
        let file = scratch.0.join(format!("{}.an", input.label));
        std::fs::write(&file, &input.source).map_err(|e| format!("cannot write {file:?}: {e}"))?;
        let started = Instant::now();
        let out = std::process::Command::new(&env.anc)
            .arg(&file)
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", env.anc.display()))?;
        oneshot_us.push(started.elapsed().as_secs_f64() * 1e6);
        if !out.status.success() {
            p.wrong.push(format!(
                "{}: one-shot anc exited with {}",
                input.label, out.status
            ));
        }
    }
    p.put("cli.oneshot_p50_us", median(&oneshot_us), "us");
    Ok(())
}
