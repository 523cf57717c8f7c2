//! Golden-trace and counter-assertion suite for the observability layer.
//!
//! Every kernel under `examples/kernels/` is compiled and simulated with
//! a tracer attached; the JSONL rendering must (a) match the checked-in
//! golden trace exactly and (b) survive wall-clock normalization
//! (`normalize_jsonl` strips the only non-deterministic field).
//!
//! Regenerate goldens after an intentional event-schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_golden
//! ```

use access_normalization::numa::{simulate_chaos, simulate_traced, MachineConfig, Scenario};
use access_normalization::obs::{normalize_jsonl, render_jsonl, EventKind, Tracer};
use access_normalization::{compile, CompileOptions, Compiled};
use std::sync::Arc;

const KERNELS: &[&str] = &["gemm", "syr2k", "fig1", "jacobi2d", "mvt", "decimate_messy"];
const PROCS: usize = 4;

fn kernel_source(name: &str) -> String {
    let path = format!("{}/examples/kernels/{name}.an", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// One traced compile + simulation; returns the artifacts and the
/// rendered JSONL trace.
fn traced_run(src: &str, wall: bool) -> (Compiled, String) {
    let tracer = Arc::new(if wall {
        Tracer::with_wall_clock()
    } else {
        Tracer::new()
    });
    let opts = CompileOptions {
        tracer: Some(tracer.clone()),
        ..CompileOptions::default()
    };
    let compiled = compile(src, &opts).expect("kernel must compile");
    let params = compiled.program.default_param_values();
    let machine = MachineConfig::butterfly_gp1000();
    simulate_traced(&compiled.spmd, &machine, PROCS, &params, Some(&tracer))
        .expect("simulation must succeed");
    let trace = tracer.snapshot();
    trace
        .check_well_formed()
        .expect("trace must be well formed");
    (compiled, render_jsonl(&trace))
}

#[test]
fn traces_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for name in KERNELS {
        let src = kernel_source(name);
        let (_, jsonl) = traced_run(&src, false);
        let golden_path = format!(
            "{}/tests/golden_traces/{name}.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        if update {
            std::fs::write(&golden_path, &jsonl).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("missing golden {golden_path} (run with UPDATE_GOLDEN=1): {e}")
        });
        assert_eq!(
            jsonl, golden,
            "{name}: trace drifted from golden; if intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}

#[test]
fn wall_clock_traces_normalize_to_the_logical_golden() {
    // A wall-clock tracer records non-deterministic `wall_us` fields;
    // the normalizer must strip exactly those, leaving the same bytes a
    // logical-clock run produces.
    for name in KERNELS {
        let src = kernel_source(name);
        let (_, logical) = traced_run(&src, false);
        let (_, wall) = traced_run(&src, true);
        assert_ne!(
            logical, wall,
            "{name}: wall-clock run recorded no timestamps"
        );
        assert_eq!(
            normalize_jsonl(&wall),
            logical,
            "{name}: normalization must strip only wall_us"
        );
    }
}

/// One traced compile + analytic-model pricing; returns the rendered
/// JSONL trace (the `model` span subtree rides the compile phases).
fn traced_model_run(src: &str) -> String {
    let tracer = Arc::new(Tracer::new());
    let opts = CompileOptions {
        tracer: Some(tracer.clone()),
        ..CompileOptions::default()
    };
    let compiled = compile(src, &opts).expect("kernel must compile");
    let params = compiled.program.default_param_values();
    let machine = MachineConfig::butterfly_gp1000();
    access_normalization::model::model_stats_traced(
        &compiled.spmd,
        &machine,
        PROCS,
        &params,
        Some(&tracer),
    )
    .expect("model must price the kernel");
    let trace = tracer.snapshot();
    trace
        .check_well_formed()
        .expect("trace must be well formed");
    render_jsonl(&trace)
}

#[test]
fn model_trace_matches_golden() {
    // The analytic model's span subtree (span `model` + `model.*`
    // counters) must match its checked-in golden, exactly like the
    // simulator traces.
    let trace = traced_model_run(&kernel_source("gemm"));
    assert!(trace.contains("\"model\""), "model span missing: {trace}");
    assert!(trace.contains("model.local_accesses"), "{trace}");
    let golden_path = format!(
        "{}/tests/golden_traces/gemm_model.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &trace).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_path} (run with UPDATE_GOLDEN=1): {e}"));
    assert_eq!(
        trace, golden,
        "gemm: model trace drifted from golden; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn gemm_wrapped_column_counters_match_prediction() {
    // GEMM with everything wrapped on the column dimension is the
    // paper's fully-local layout: after restructuring, every element
    // access is processor-local and the only traffic is the planned
    // block transfers. At N=128 and P=4 the simulator issues 12288
    // messages moving 12 MiB; cross-check the trace counters against
    // the independently summed SimStats.
    let src = kernel_source("gemm");
    let tracer = Arc::new(Tracer::new());
    let opts = CompileOptions {
        tracer: Some(tracer.clone()),
        ..CompileOptions::default()
    };
    let compiled = compile(&src, &opts).unwrap();
    let params = compiled.program.default_param_values();
    let machine = MachineConfig::butterfly_gp1000();
    let stats = simulate_traced(&compiled.spmd, &machine, PROCS, &params, Some(&tracer)).unwrap();

    let trace = tracer.snapshot();
    let counter = |name: &str| -> u64 {
        trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from {:?}", trace.counters))
    };
    // Zero element-wise remote reads: the layout is fully local.
    assert_eq!(counter("sim.remote_accesses"), 0);
    assert_eq!(counter("codegen.transfers"), 2, "one per read operand");
    // Block-transfer message count is exactly what the simulator saw.
    assert_eq!(counter("sim.messages"), stats.total_messages() as u64);
    assert_eq!(counter("sim.messages"), 12288);
    assert_eq!(counter("sim.transfer_bytes"), 12 * 1024 * 1024);
    // Per-proc TransferIssued events must sum to the same totals.
    let (mut messages, mut bytes) = (0u64, 0u64);
    for ev in &trace.events {
        if let EventKind::TransferIssued {
            messages: m,
            bytes: b,
            ..
        } = &ev.kind
        {
            messages += m;
            bytes += b;
        }
    }
    assert_eq!(messages, 12288);
    assert_eq!(bytes, 12 * 1024 * 1024);
}

#[test]
fn chaos_trace_retries_match_fault_stats() {
    let src = kernel_source("gemm");
    let tracer = Arc::new(Tracer::new());
    let opts = CompileOptions {
        tracer: Some(tracer.clone()),
        ..CompileOptions::default()
    };
    let compiled = compile(&src, &opts).unwrap();
    let params = compiled.program.default_param_values();
    let machine = MachineConfig::butterfly_gp1000();
    let run = simulate_chaos(
        &compiled.spmd,
        &machine,
        PROCS,
        &params,
        Scenario::FailStop,
        1,
        Some(&tracer),
    )
    .unwrap();
    let f = &run.stats.faults;
    let (f_retries, f_timeouts) = (run.stats.total_retries(), run.stats.total_timeouts());

    let trace = tracer.snapshot();
    trace.check_well_formed().unwrap();
    let mut armed = 0usize;
    let mut issued_retries = 0u64;
    let mut recovered = None;
    for ev in &trace.events {
        match &ev.kind {
            EventKind::FaultArmed { scenario, victims } => {
                armed += 1;
                assert_eq!(scenario, "failstop");
                assert_eq!(victims, &f.failed_procs);
            }
            EventKind::TransferIssued { retries, .. } => issued_retries += retries,
            EventKind::FaultRecovered {
                replayed,
                redistributed_bytes,
                retries,
                timeouts,
            } => recovered = Some((*replayed, *redistributed_bytes, *retries, *timeouts)),
            _ => {}
        }
    }
    assert_eq!(armed, 1, "exactly one fault armed per chaos run");
    assert_eq!(
        issued_retries, f_retries,
        "per-proc TransferIssued retries must sum to FaultStats.retries"
    );
    assert_eq!(
        recovered,
        Some((
            f.replayed_iterations,
            f.redistributed_bytes,
            f_retries,
            f_timeouts
        )),
        "FaultRecovered must mirror FaultStats"
    );
}
