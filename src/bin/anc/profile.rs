//! `anc profile` — one traced compile + simulation, reported as the
//! span tree of every pipeline phase (access matrix → basis → legal →
//! padding → restructure → codegen → simulate → model) with logical
//! timestamps and every counter the stages recorded; `--out FILE` also
//! writes the JSON report there.

use crate::cli::Args;
use crate::compile::build;
use crate::{failed, Stop};
use access_normalization::model::model_stats_traced;
use access_normalization::numa::simulate_traced;
use access_normalization::obs::{json_escape, write_atomic, PhaseSummary, Tracer};
use access_normalization::CompileOptions;
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let json = args.on("--json");
    let wall = args.on("--wall");
    let top: Option<usize> = args.number("--top")?;
    let procs = args.procs("--procs")?.unwrap_or(4);
    let machine = args.machine()?;
    let params = args.bindings()?;
    let out = args.value("--out");
    let input = args.input();

    // Logical clocks by default: the profile is then byte-identical
    // across runs, so CI can diff two invocations.
    let tracer = std::sync::Arc::new(if wall {
        Tracer::with_wall_clock()
    } else {
        Tracer::new()
    });
    let opts = CompileOptions {
        tracer: Some(tracer.clone()),
        ..CompileOptions::default()
    };
    let built = build(args, input, &opts, &params, true)?;
    let (spmd, param_values) = (&built.compiled.spmd, &built.param_values);
    let stats =
        simulate_traced(spmd, &machine, procs, param_values, Some(&tracer)).map_err(failed)?;
    // Analytic-model phase: priced after the simulator so the profile
    // carries a `model` span row (the `model_us` phase) whose counters
    // can be diffed against the simulator's — they must agree exactly.
    model_stats_traced(spmd, &machine, procs, param_values, Some(&tracer)).map_err(failed)?;

    let trace = tracer.snapshot();
    let phases = trace.phases();
    let mut report = String::from("{\n");
    report.push_str(&format!(
        "  \"kernel\": \"{}\",\n  \"procs\": {procs},\n  \"machine\": \"{}\",\n",
        json_escape(input),
        machine.name
    ));
    report.push_str(&format!(
        "  \"time_us\": {:.3},\n  \"events\": {},\n  \"phases\": [",
        stats.time_us,
        trace.events.len()
    ));
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        report.push_str(&format!(
            "\n    {{\"phase\": \"{}\", \"depth\": {}, \"start\": {}, \"end\": {}{}}}",
            json_escape(&p.phase),
            p.depth,
            p.start,
            p.end.map_or("null".to_string(), |e| e.to_string()),
            p.wall_us
                .map_or(String::new(), |w| format!(", \"wall_us\": {w}"))
        ));
    }
    report.push_str("\n  ],\n  \"counters\": {");
    for (i, (name, value)) in trace.counters.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        report.push_str(&format!("\n    \"{}\": {value}", json_escape(name)));
    }
    report.push_str("\n  }\n}");

    if json {
        println!("{report}");
    } else {
        println!("== profile: {input} (P={procs}, {}) ==", machine.name);
        println!(
            "{:<34} {:>8} {:>8} {:>8} {:>10}",
            "phase", "start", "end", "events", "wall (µs)"
        );
        for p in &phases {
            let label = format!("{}{}", "  ".repeat(p.depth), p.phase);
            let end = p.end.map_or("-".to_string(), |e| e.to_string());
            let span_events = p.end.map_or(0, |e| e - p.start);
            let wall = p.wall_us.map_or("-".to_string(), |w| w.to_string());
            println!(
                "{label:<34} {:>8} {end:>8} {span_events:>8} {wall:>10}",
                p.start
            );
        }
        if let Some(n) = top {
            // A span's self cost is its total minus its direct
            // children's totals: wall time with `--wall`, logical event
            // count otherwise.
            let cost = |p: &PhaseSummary| {
                p.wall_us
                    .unwrap_or_else(|| p.end.map_or(0, |e| e - p.start))
            };
            let idx_of: std::collections::HashMap<_, _> = phases
                .iter()
                .enumerate()
                .map(|(i, p)| (p.span, i))
                .collect();
            let mut rows: Vec<(u64, u64, usize)> =
                phases.iter().map(|p| (cost(p), cost(p), 0)).collect();
            for (i, p) in phases.iter().enumerate() {
                rows[i].2 = i;
                if let Some(&pi) = idx_of.get(&p.parent) {
                    rows[pi].0 = rows[pi].0.saturating_sub(cost(p));
                }
            }
            rows.sort_by_key(|&(self_cost, _, i)| (std::cmp::Reverse(self_cost), i));
            let unit = if wall { "wall (µs)" } else { "events" };
            println!("top {n} spans by self cost:");
            println!(
                "{:<34} {:>12} {:>12}",
                "span",
                format!("self {unit}"),
                "total"
            );
            for &(self_cost, total, i) in rows.iter().take(n) {
                println!("{:<34} {self_cost:>12} {total:>12}", phases[i].phase);
            }
        }
        if !trace.counters.is_empty() {
            println!("counters:");
            for (name, value) in &trace.counters {
                println!("  {name:<40} {value:>12}");
            }
        }
        println!(
            "simulated P={procs}: {:.0} µs, {:.1}% remote, {} message(s)",
            stats.time_us,
            100.0 * stats.remote_fraction(),
            stats.total(|p| p.messages)
        );
    }

    if let Some(path) = out {
        let file = std::path::Path::new(path);
        if let Some(dir) = file.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| failed(format!("cannot create {}: {e}", dir.display())))?;
        }
        write_atomic(file, &format!("{report}\n"))
            .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
