//! Ablation A1: the subscript-ordering heuristic of §2.2.
//!
//! The data access matrix orders subscripts by importance
//! (distribution-dimension occurrences first). This ablation re-runs the
//! pipeline with plain program order and compares the resulting
//! transforms and simulated times — showing the heuristic is what makes
//! the *right* subscript land on the distributed outer loop.

use an_bench::verdict;
use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
use an_core::{normalize, NormalizeOptions, OrderingHeuristic};
use an_numa::{simulate, MachineConfig};

fn run(src: &str, params: &[i64], label: &str) {
    let program = an_lang::parse(src).expect("parse");
    let machine = MachineConfig::butterfly_gp1000();
    let procs = 16;
    println!("\n=== {label} (P = {procs}) ===");
    println!(
        "{:<20} {:>22} {:>10} {:>10}",
        "ordering", "T rows (outer first)", "remote%", "time µs"
    );
    let mut results = Vec::new();
    for (name, ordering) in [
        ("distribution-first", OrderingHeuristic::DistributionFirst),
        ("program-order", OrderingHeuristic::ProgramOrder),
    ] {
        let norm = normalize(
            &program,
            &NormalizeOptions {
                ordering,
                ..NormalizeOptions::default()
            },
        )
        .expect("normalize");
        let tp = apply_transform(&program, &norm.transform).expect("transform");
        let spmd = generate_spmd(&tp, Some(&norm.dependences), &SpmdOptions::default());
        let s = simulate(&spmd, &machine, procs, params).expect("simulate");
        let rows: Vec<String> = (0..norm.transform.rows())
            .map(|r| format!("{:?}", norm.transform.row(r)))
            .collect();
        println!(
            "{:<20} {:>22} {:>9.1}% {:>10.0}",
            name,
            rows.join(" "),
            100.0 * s.remote_fraction(),
            s.time_us
        );
        results.push(s);
    }
    verdict(
        &format!("{label}: the heuristic is at least as fast as program order"),
        results[0].time_us <= results[1].time_us * 1.001,
    );
}

fn main() -> std::process::ExitCode {
    run(&an_bench::gemm_source(128), &[128], "GEMM 128");
    run(
        &an_bench::syr2k_source(160, 40),
        &[160, 40],
        "banded SYR2K 160/40",
    );
    run(
        &an_bench::fig1_source(160, 40, 160),
        &[160, 40, 160],
        "Figure 1 kernel 160/40/160",
    );
    an_bench::exit_code()
}
