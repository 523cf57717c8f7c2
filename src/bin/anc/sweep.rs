//! `anc sweep` — one compile priced over a machines × processors ×
//! parameters grid.

use crate::cli::Args;
use crate::compile::{build, tracing, write_trace};
use crate::{failed, Stop};
use access_normalization::autodist::Pricing;
use access_normalization::codegen::SpmdOptions;
use access_normalization::model::model_stats;
use access_normalization::numa::{simulate, sweep, SweepConfig};
use access_normalization::CompileOptions;
use std::fmt::Write as _;
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let procs = args.procs_list("--procs", &[1, 2, 4, 8, 16, 28])?;
    let machines = args.machines()?;
    let mut param_sets = Vec::new();
    for list in args.values("--params") {
        let vector: Result<Vec<i64>, _> = list.split(',').map(|v| v.trim().parse()).collect();
        let bad = |_| args.bad("--params", list, "integers V1,V2,..");
        param_sets.push(vector.map_err(bad)?);
    }
    let jobs = args.jobs()?;
    let price = args.pricing()?;
    let json = args.value("--json");
    let trace = tracing(args)?;
    let tracer = trace.as_ref().map(|t| t.tracer.clone());
    let opts = CompileOptions {
        spmd: SpmdOptions {
            block_transfers: !args.on("--no-transfers"),
        },
        skip_transform: args.on("--naive"),
        verify: args.on("--verify"),
        tracer: tracer.clone(),
        ..CompileOptions::default()
    };
    let built = build(args, args.input(), &opts, &[], false)?;
    if param_sets.is_empty() {
        param_sets.push(built.param_values);
    }
    let cfg = SweepConfig {
        procs,
        param_sets,
        jobs,
        tracer,
    };
    let spmd = &built.compiled.spmd;
    let mut report = match price {
        Pricing::Model => sweep(&machines, &cfg, |m, p, ps| model_stats(spmd, m, p, ps)),
        Pricing::Sim => sweep(&machines, &cfg, |m, p, ps| simulate(spmd, m, p, ps)),
    }
    .map_err(failed)?;
    report.norm_cache = Some(built.cache);

    let list = |params: &[i64]| {
        let words: Vec<String> = params.iter().map(|v| v.to_string()).collect();
        words.join(",")
    };
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== sweep: {} points, {} workers, {} µs wall ==",
        report.points.len(),
        report.jobs,
        report.wall_us
    );
    let _ = writeln!(
        table,
        "{:<10} {:>5} {:<16} {:>14} {:>9} {:>10} {:>8}",
        "machine", "P", "params", "time (µs)", "remote%", "messages", "imbal"
    );
    for pt in &report.points {
        let _ = writeln!(
            table,
            "{:<10} {:>5} {:<16} {:>14.0} {:>8.1}% {:>10} {:>8.2}",
            pt.machine,
            pt.procs,
            list(&pt.params),
            pt.stats.time_us,
            100.0 * pt.stats.remote_fraction(),
            pt.stats.total(|p| p.messages),
            pt.stats.imbalance()
        );
    }
    if let Some(best) = report.best() {
        let _ = writeln!(
            table,
            "best: {} P={} params=[{}] at {:.0} µs",
            best.machine,
            best.procs,
            list(&best.params),
            best.stats.time_us
        );
    }
    // The table goes to stdout normally, but `--json -` claims stdout
    // for the machine-readable report and demotes the table to stderr.
    if json == Some("-") {
        eprint!("{table}");
        println!("{}", report.to_json());
    } else {
        print!("{table}");
        if let Some(path) = json {
            access_normalization::obs::write_atomic(std::path::Path::new(path), &report.to_json())
                .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
    }
    write_trace(&trace)?;
    Ok(ExitCode::SUCCESS)
}
