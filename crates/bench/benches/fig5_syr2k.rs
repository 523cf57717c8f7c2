//! Figure 5 (paper §8.2): speedup of banded SYR2K on the BBN Butterfly
//! GP-1000 for the curves `syr2k` (naive), `syr2kT` (normalized) and
//! `syr2kB` (normalized + block transfers), P = 1..28.
//!
//! Expected shape: unlike GEMM, many remote accesses *remain* after
//! normalization (the Ab/Bb band reads), so block transfers are the
//! difference between modest and good scaling: `syr2kB >> syr2kT ≳
//! syr2k`.

use an_bench::{paper_variants, print_speedup_table, speedup_table, verdict, PAPER_PROCS};
use an_numa::MachineConfig;

fn main() -> std::process::ExitCode {
    let n: i64 = 400; // matrix order
    let b: i64 = 100; // band width
    let src = an_bench::syr2k_source(n, b);
    let (variants, norm) = paper_variants(&src, "syr2k");
    println!("banded SYR2K: N = {n}, b = {b}, packed wrapped-column arrays");
    println!("legalized transformation matrix (second basis row negated):");
    println!("{}", norm.transform);

    let machine = MachineConfig::butterfly_gp1000();
    let rows = speedup_table(&variants, &machine, &PAPER_PROCS, &[n, b]);
    print_speedup_table(
        "Figure 5: Speedup of banded SYR2K (BBN Butterfly GP-1000 model)",
        &["syr2k", "syr2kT", "syr2kB"],
        &rows,
    );

    if let Some(path) = an_bench::write_csv("fig5_syr2k", &["syr2k", "syr2kT", "syr2kB"], &rows) {
        println!("\n(csv written to {})", path.display());
    }

    let last = rows.last().unwrap();
    println!("\naccess statistics at P = 28:");
    for (label, (_, stats)) in ["syr2k", "syr2kT", "syr2kB"].iter().zip(&last.entries) {
        println!(
            "  {label:>7}: remote {:>5.1}%  messages {:>8}  transferred {:>12} bytes  imbalance {:.2}",
            100.0 * stats.remote_fraction(),
            stats.total_messages(),
            stats.total_transfer_bytes(),
            stats.imbalance()
        );
    }

    let s = |i: usize| last.entries[i].0;
    verdict("syr2kB >> syr2kT at P=28 (1.2x)", s(2) > 1.2 * s(1));
    verdict("syr2kT >= syr2k at P=28", s(1) >= s(0) * 0.95);
    verdict(
        "remote accesses remain after normalization (> 30%)",
        last.entries[1].1.remote_fraction() > 0.3,
    );
    verdict(
        "block transfers matter more than in GEMM",
        s(2) / s(1) > 1.2,
    );
    an_bench::exit_code()
}
