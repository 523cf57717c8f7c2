//! The compile front door every source-reading subcommand goes
//! through (read → pre-normalize → bind `--param` → compile, and the
//! trace write-out), and `anc <file>` itself: compile one kernel and
//! print what the pipeline derived.

use crate::cli::{price_word, Args};
use crate::{failed, Stop};
use access_normalization::autodist::{search_report, AutoDistOptions, Pricing};
use access_normalization::codegen::emit::emit_spmd;
use access_normalization::codegen::emit_c::emit_c;
use access_normalization::codegen::ownership::{emit_ownership, generate_ownership};
use access_normalization::codegen::stride::{innermost_strides, summarize};
use access_normalization::codegen::SpmdOptions;
use access_normalization::core::{NormalizeOptions, OrderingHeuristic};
use access_normalization::ir::pretty;
use access_normalization::lang::SpanMap;
use access_normalization::linalg::CacheStats;
use access_normalization::numa::{simulate, simulate_traced};
use access_normalization::obs::{self, Tracer};
use access_normalization::{compile_program_with, parse_normalized_with_spans};
use access_normalization::{CompileBudget, CompileOptions, Compiled, PipelineCtx};
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

/// Reads the program source from a path or stdin (`-`). An unreadable
/// input is a usage error, not a compile failure.
pub fn read_source(args: &Args, input: &str) -> Result<String, Stop> {
    if input == "-" {
        let mut s = String::new();
        let read = std::io::stdin().read_to_string(&mut s);
        read.map(|_| s).map_err(|_| args.usage("cannot read stdin"))
    } else {
        std::fs::read_to_string(input).map_err(|e| args.usage(format!("cannot read {input}: {e}")))
    }
}

/// What the front door hands a subcommand.
pub struct Built {
    pub compiled: Compiled,
    /// Source spans of the normalized AST, for diagnostics.
    pub spans: SpanMap,
    /// Every parameter's value: its default unless `--param` bound it.
    pub param_values: Vec<i64>,
    /// Memo-table counters of this compile.
    pub cache: CacheStats,
}

/// The one path from an input name to compiled artifacts.
///
/// `--param` names are resolved against the parsed program before the
/// compile, so a misspelt one is a usage error before anything reaches
/// stdout. With `rebind` the bound values also replace the program's
/// declared defaults, which is what the verifier's concrete oracles
/// and the chaos replay read; the compile driver leaves them alone
/// because `--emit ir` and `--emit c` print them.
pub fn build(
    args: &Args,
    input: &str,
    opts: &CompileOptions,
    params: &[(String, i64)],
    rebind: bool,
) -> Result<Built, Stop> {
    let src = read_source(args, input)?;
    let (mut program, spans, _lint) = parse_normalized_with_spans(&src, opts).map_err(failed)?;
    let bindings: Vec<(&str, i64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let bound = program.bind_params(&bindings);
    let param_values = bound.map_err(|e| args.usage(format!("{input}: {e}")))?;
    if rebind {
        for (param, v) in program.params.iter_mut().zip(&param_values) {
            param.default = *v;
        }
    }
    let ctx = PipelineCtx::new();
    let compiled = compile_program_with(&program, opts, &ctx).map_err(failed)?;
    Ok(Built {
        compiled,
        spans,
        param_values,
        cache: ctx.stats(),
    })
}

/// A traced run: where `--trace[=FILE]` sends the rendered trace
/// (`None`: stderr, never stdout — machine-readable output owns
/// stdout), how `--trace-format` renders it, and the tracer the
/// pipeline records on.
pub struct Trace {
    file: Option<String>,
    render: fn(&obs::Trace) -> String,
    pub tracer: Arc<Tracer>,
}

/// The run's [`Trace`]; `None` when it is not traced (a bad
/// `--trace-format` is a usage error either way).
pub fn tracing(args: &Args) -> Result<Option<Trace>, Stop> {
    let tree: fn(&obs::Trace) -> String = obs::render_tree;
    let formats = [
        ("tree", tree),
        ("jsonl", obs::render_jsonl),
        ("chrome", obs::render_chrome),
    ];
    let render = args.choice("--trace-format", &formats)?.unwrap_or(tree);
    Ok(args.trace_file().map(|file| Trace {
        file: file.map(str::to_string),
        render,
        tracer: Arc::new(Tracer::new()),
    }))
}

/// Renders a finished trace to stderr or the `--trace=FILE` path.
pub fn write_trace(trace: &Option<Trace>) -> Result<(), Stop> {
    let Some(trace) = trace else {
        return Ok(());
    };
    let mut rendered = (trace.render)(&trace.tracer.snapshot());
    if !rendered.ends_with('\n') {
        rendered.push('\n');
    }
    match &trace.file {
        None => eprint!("{rendered}"),
        Some(path) => {
            obs::write_atomic(std::path::Path::new(path), &rendered)
                .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote trace to {path}");
        }
    }
    Ok(())
}

const EMIT_KINDS: [&str; 9] = [
    "all",
    "ir",
    "matrix",
    "transform",
    "transformed",
    "spmd",
    "deps",
    "c",
    "ownership",
];

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let emit = args.choice("--emit", &EMIT_KINDS.map(|k| (k, k)))?;
    let emit = emit.unwrap_or("all");
    let orderings = [
        ("distribution", OrderingHeuristic::DistributionFirst),
        ("program", OrderingHeuristic::ProgramOrder),
        ("contiguity", OrderingHeuristic::InnermostContiguity),
    ];
    let ordering = args.choice("--ordering", &orderings)?;
    let simulate_procs = args.procs_list("--simulate", &[])?;
    let machine = args.machine()?;
    let params = args.bindings()?;
    let autodist = args.procs("--autodist")?;
    let price = args.pricing()?;
    let jobs = args.jobs()?;
    let verify = args.on("--verify");
    let trace = tracing(args)?;
    let tracer = trace.as_ref().map(|t| t.tracer.clone());
    let ceiling = CompileBudget::default();
    let budget = CompileBudget {
        deadline_ms: args.number("--deadline-ms")?,
        max_fm_constraints: args.number_or("--max-fm-constraints", ceiling.max_fm_constraints)?,
        max_loop_depth: args.number_or("--max-depth", ceiling.max_loop_depth)?,
        max_search_candidates: args.number_or("--max-candidates", ceiling.max_search_candidates)?,
    };
    let opts = CompileOptions {
        normalize: NormalizeOptions {
            ordering: ordering.unwrap_or(OrderingHeuristic::DistributionFirst),
            ..Default::default()
        },
        spmd: SpmdOptions {
            block_transfers: !args.on("--no-transfers"),
        },
        skip_transform: args.on("--naive"),
        verify,
        skip_prenormalize: args.on("--no-prenormalize"),
        budget,
        tracer: tracer.clone(),
    };
    let built = build(args, args.input(), &opts, &params, false)?;
    let (compiled, param_values) = (&built.compiled, &built.param_values);
    let spmd = &compiled.spmd;

    let emit_all = emit == "all";
    if emit_all || emit == "ir" {
        println!("== input program ==");
        println!("{}", pretty::print_program(&compiled.program));
    }
    if emit_all || emit == "matrix" {
        println!("== data access matrix ==");
        println!("{}\n", compiled.normalized.access_matrix.matrix);
        println!("== dependence matrix ==");
        println!("{}\n", compiled.normalized.dependences.matrix);
        for dv in &compiled.normalized.dependences.directions {
            println!("direction: {dv}");
        }
    }
    if emit_all || emit == "transform" {
        println!("== transformation matrix ==");
        println!("{}", compiled.normalized.transform);
        println!(
            "normalized {} of {} subscripts\n",
            compiled.normalized.normalized_count(),
            compiled.normalized.subscripts.len()
        );
    }
    if emit_all || emit == "transformed" {
        println!("== transformed nest ==");
        println!("{}", pretty::print_nest(&compiled.transformed.program));
    }
    if emit_all || emit == "spmd" {
        println!("== SPMD node program ==");
        println!("{}", emit_spmd(spmd));
    }
    if args.on("--explain") {
        println!(
            "{}",
            access_normalization::core::explain(&compiled.program, &compiled.normalized)
        );
    }
    if emit == "deps" {
        println!(
            "{}",
            access_normalization::deps::graph::to_dot(
                &compiled.program,
                &compiled.normalized.dependences
            )
        );
    }
    if emit == "c" {
        let defaults = compiled.program.default_param_values();
        println!("{}", emit_c(&compiled.transformed.program, &defaults, 42));
    }
    if emit == "ownership" {
        println!("== ownership-rule node program ==");
        println!("{}", emit_ownership(&generate_ownership(&compiled.program)));
    }

    if args.on("--strides") {
        println!("== innermost-loop strides (transformed) ==");
        let strides = innermost_strides(&compiled.transformed.program, param_values);
        for s in &strides {
            println!(
                "  {:<28} {:<6} stride {:>6}",
                pretty::render_ref(&compiled.transformed.program, &s.reference),
                if s.is_write { "store" } else { "load" },
                s.stride
            );
        }
        let sum = summarize(&strides);
        println!(
            "  unit {}  invariant {}  strided {}\n",
            sum.unit, sum.invariant, sum.strided
        );
    }

    if let Some(procs) = autodist {
        let opts = AutoDistOptions {
            procs,
            allow_replication: false,
            compile: CompileOptions {
                tracer: tracer.clone(),
                budget,
                ..CompileOptions::default()
            },
            jobs,
            top_k: 5,
            verify,
            price,
        };
        let report = search_report(&compiled.program, &machine, &opts).map_err(failed)?;
        println!(
            "== distribution search (P = {procs}, {}-priced, {} workers) ==",
            price_word(price),
            report.jobs
        );
        println!(
            "{:<40} {:>14} {:>9}",
            "assignment", "predicted µs", "remote%"
        );
        for c in &report.candidates {
            let names: Vec<String> = compiled
                .program
                .arrays
                .iter()
                .zip(&c.assignment)
                .map(|(a, d)| format!("{}:{}", a.name, d))
                .collect();
            println!(
                "{:<40} {:>14.0} {:>8.1}%",
                names.join(" "),
                c.predicted_time_us,
                100.0 * c.predicted_remote
            );
        }
        println!(
            "evaluated {} candidates ({} skipped, {} rejected by verifier), \
             pipeline cache {}",
            report.evaluated, report.skipped, report.rejected, report.cache
        );
        if price == Pricing::Model {
            println!(
                "model validation: {} finalists re-checked against the simulator, \
                 {} mismatches",
                report.validated, report.mismatches
            );
            if report.mismatches > 0 {
                return Err(failed("analytic model diverged from the simulator"));
            }
        }
    }

    if !simulate_procs.is_empty() {
        println!("== simulation on {} ==", machine.name);
        println!(
            "{:>5} {:>14} {:>9} {:>10} {:>10} {:>8}",
            "P", "time (µs)", "speedup", "remote%", "messages", "imbal"
        );
        let base = simulate(spmd, &machine, 1, param_values).map_err(failed)?;
        for &p in &simulate_procs {
            let s = simulate_traced(spmd, &machine, p, param_values, tracer.as_deref())
                .map_err(failed)?;
            println!(
                "{:>5} {:>14.0} {:>9.2} {:>9.1}% {:>10} {:>8.2}",
                p,
                s.time_us,
                base.time_us / s.time_us,
                100.0 * s.remote_fraction(),
                s.total(|p| p.messages),
                s.imbalance()
            );
        }
    }
    write_trace(&trace)?;
    Ok(ExitCode::SUCCESS)
}
