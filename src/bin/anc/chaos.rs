//! `anc chaos` — verify recovery soundness under every fault scenario
//! (AN05xx: the degraded execution must end with array state bitwise
//! identical to the fault-free interpreter's), then price each
//! scenario's degraded run.

use crate::cli::Args;
use crate::compile::{build, tracing, write_trace};
use crate::{failed, Stop};
use access_normalization::numa::{simulate_chaos, Scenario};
use access_normalization::verify_mod::{ChaosOptions, VerifyOptions};
use access_normalization::{verify_options_for, verify_with, CompileOptions};
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let seed = args.seed(1)?;
    let scenarios = match args.value("--scenario") {
        None | Some("all") => Scenario::all().to_vec(),
        Some(s) => {
            let unknown = || args.usage(format!("unknown scenario '{s}' for --scenario"));
            vec![Scenario::parse(s).ok_or_else(unknown)?]
        }
    };
    let procs = args.procs_list("--procs", &[3, 4])?;
    let machine = args.machine()?;
    let params = args.bindings()?;
    let json = args.on("--json");
    let trace = tracing(args)?;
    let tracer = trace.as_ref().map(|t| t.tracer.clone());
    let opts = CompileOptions {
        skip_transform: args.on("--naive"),
        tracer: tracer.clone(),
        ..CompileOptions::default()
    };
    let built = build(args, args.input(), &opts, &params, true)?;
    let (compiled, param_values) = (&built.compiled, &built.param_values);
    let (spmd, tracer) = (&compiled.spmd, tracer.as_deref());

    // Soundness first: every scenario must recover bitwise-identical
    // state before its cost numbers mean anything.
    let verify_opts = VerifyOptions {
        chaos: Some(ChaosOptions {
            seed,
            scenarios: scenarios.clone(),
            procs: procs.clone(),
        }),
        ..verify_options_for(&opts)
    };
    let report = verify_with(compiled, &verify_opts);
    if report.has_errors() {
        eprint!("{}", report.render_human());
        return Ok(ExitCode::FAILURE);
    }

    let mut runs = Vec::new();
    for &p in &procs {
        for &sc in &scenarios {
            let run = simulate_chaos(spmd, &machine, p, param_values, sc, seed, tracer)
                .map_err(|e| failed(format!("scenario {sc} at P={p}: {e}")))?;
            runs.push((p, run));
        }
    }

    let params: Vec<String> = param_values.iter().map(|v| v.to_string()).collect();
    if json {
        // Deterministic by construction: no wall-clock or host fields,
        // and every number comes from the seeded simulation.
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seed\": {seed},\n  \"machine\": \"{}\",\n  \"params\": [{}],\n",
            machine.name,
            params.join(", ")
        ));
        out.push_str("  \"runs\": [");
        for (i, (p, r)) in runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let f = &r.stats.faults;
            out.push_str(&format!(
                "\n    {{\"scenario\": \"{}\", \"procs\": {p}, \"time_us\": {:.3}, \
                 \"fault_free_us\": {:.3}, \"overhead\": {:.4}, \"retries\": {}, \
                 \"timeouts\": {}, \"replayed_iterations\": {}, \"redistributed_bytes\": {}, \
                 \"degraded_us\": {:.3}, \"failed_procs\": [{}]}}",
                r.scenario,
                r.stats.time_us,
                r.fault_free_us,
                r.overhead(),
                r.stats.total(|p| p.retries),
                r.stats.total(|p| p.timeouts),
                f.replayed_iterations,
                f.redistributed_bytes,
                r.degraded_us(),
                f.failed_procs
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"recovery_verified\": true,\n  \"verify_warnings\": {}\n}}",
            report.warning_count()
        ));
        println!("{out}");
    } else {
        println!(
            "== chaos: seed {seed} on {}, params [{}] ==",
            machine.name,
            params.join(",")
        );
        println!(
            "{:>5} {:<16} {:>14} {:>9} {:>8} {:>9} {:>9} {:>10} {:<8}",
            "P",
            "scenario",
            "time (µs)",
            "overhead",
            "retries",
            "timeouts",
            "replayed",
            "redist(B)",
            "dead"
        );
        for (p, r) in &runs {
            let f = &r.stats.faults;
            println!(
                "{:>5} {:<16} {:>14.0} {:>8.1}% {:>8} {:>9} {:>9} {:>10} {:<8}",
                p,
                r.scenario.name(),
                r.stats.time_us,
                100.0 * r.overhead(),
                r.stats.total(|p| p.retries),
                r.stats.total(|p| p.timeouts),
                f.replayed_iterations,
                f.redistributed_bytes,
                format!("{:?}", f.failed_procs)
            );
        }
        println!(
            "recovery verified: every scenario ends bitwise-identical to the \
             fault-free run ({} warning(s))",
            report.warning_count()
        );
    }
    write_trace(&trace)?;
    Ok(ExitCode::SUCCESS)
}
