//! Figure 4 (paper §8.1): speedup of GEMM on the BBN Butterfly GP-1000
//! for the curves `gemm` (naive), `gemmT` (normalized) and `gemmB`
//! (normalized + block transfers), P = 1..28, 400×400 wrapped-column
//! arrays.
//!
//! Expected shape: `gemm` flattens out quickly; `gemmT` scales well;
//! `gemmB` is best but only modestly above `gemmT` because access
//! normalization already made 3 of the 4 references local.

use an_bench::{paper_variants, print_speedup_table, speedup_table, verdict, PAPER_PROCS};
use an_numa::MachineConfig;

fn main() -> std::process::ExitCode {
    let n: i64 = 400; // the paper's array size
    let src = an_bench::gemm_source(n);
    let (variants, norm) = paper_variants(&src, "gemm");
    println!("GEMM {n}x{n}, wrapped-column; transformation matrix:");
    println!("{}", norm.transform);

    let machine = MachineConfig::butterfly_gp1000();
    let rows = speedup_table(&variants, &machine, &PAPER_PROCS, &[n]);
    print_speedup_table(
        "Figure 4: Speedup of GEMM (BBN Butterfly GP-1000 model)",
        &["gemm", "gemmT", "gemmB"],
        &rows,
    );

    if let Some(path) = an_bench::write_csv("fig4_gemm", &["gemm", "gemmT", "gemmB"], &rows) {
        println!("\n(csv written to {})", path.display());
    }

    // Access statistics at P = 28 (the right edge of the figure).
    let last = rows.last().unwrap();
    println!("\naccess statistics at P = 28:");
    for (label, (_, stats)) in ["gemm", "gemmT", "gemmB"].iter().zip(&last.entries) {
        println!(
            "  {label:>6}: remote {:>5.1}%  messages {:>8}  transferred {:>12} bytes  imbalance {:.2}",
            100.0 * stats.remote_fraction(),
            stats.total_messages(),
            stats.total_transfer_bytes(),
            stats.imbalance()
        );
    }

    // The paper's qualitative claims.
    let s = |i: usize| last.entries[i].0;
    verdict("gemmB >= gemmT at P=28", s(2) >= s(1));
    verdict("gemmT >> gemm at P=28 (2x)", s(1) > 2.0 * s(0));
    verdict(
        "normalization eliminates most remote accesses",
        last.entries[1].1.remote_fraction() < 0.25 && last.entries[0].1.remote_fraction() > 0.9,
    );
    verdict(
        "block transfers contribute a smaller boost than normalization",
        (s(2) / s(1)) < (s(1) / s(0)),
    );
    an_bench::exit_code()
}
