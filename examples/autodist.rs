//! Automatic data-distribution selection (paper §9 future work).
//!
//! The paper requires the programmer to pick data distributions and
//! speculates that the techniques could run "in reverse" to choose them.
//! This example does exactly that: enumerate per-array distributions,
//! run the forward pipeline on each, score with the analytic model, and
//! report the best layouts for GEMM.
//!
//! Run with: `cargo run --release --example autodist`

use access_normalization::autodist::{search_report, AutoDistOptions};
use access_normalization::numa::{simulate, MachineConfig};
use access_normalization::Error;

fn main() -> Result<(), Error> {
    // Start from a deliberately *bad* layout: wrapped rows everywhere.
    let src = "
        param N = 96;
        array C[N, N] distribute wrapped(0);
        array A[N, N] distribute wrapped(0);
        array B[N, N] distribute wrapped(0);
        for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
            C[i, j] = C[i, j] + A[i, k] * B[k, j];
        } } }
    ";
    let program = access_normalization::lang::parse(src)?;
    let machine = MachineConfig::butterfly_gp1000();
    let opts = AutoDistOptions {
        procs: 16,
        allow_replication: false,
        top_k: usize::MAX,
        ..AutoDistOptions::default()
    };

    println!(
        "searching distributions for GEMM (P = {}, model-scored)…",
        opts.procs
    );
    let candidates = search_report(&program, &machine, &opts)?.candidates;
    println!("{} candidates evaluated\n", candidates.len());

    println!(
        "{:<14} {:<14} {:<14} {:>14} {:>9}",
        "C", "A", "B", "predicted µs", "remote%"
    );
    for c in candidates.iter().take(8) {
        println!(
            "{:<14} {:<14} {:<14} {:>14.0} {:>8.1}%",
            c.assignment[0].to_string(),
            c.assignment[1].to_string(),
            c.assignment[2].to_string(),
            c.predicted_time_us,
            100.0 * c.predicted_remote
        );
    }
    let worst = candidates.last().unwrap();
    println!(
        "…\nworst: C={} A={} B={}  {:.0} µs  {:.1}% remote\n",
        worst.assignment[0],
        worst.assignment[1],
        worst.assignment[2],
        worst.predicted_time_us,
        100.0 * worst.predicted_remote
    );

    // Validate the winner with the exact simulator.
    let best = &candidates[0];
    let params = [96i64];
    let sim_best = simulate(&best.compiled.spmd, &machine, opts.procs, &params)?;
    let sim_worst = simulate(&worst.compiled.spmd, &machine, opts.procs, &params)?;
    println!(
        "simulator check: best {:.0} µs vs worst {:.0} µs ({:.1}x)",
        sim_best.time_us,
        sim_worst.time_us,
        sim_worst.time_us / sim_best.time_us
    );
    Ok(())
}
