//! Experiment E9: the ownership-rule baseline of §2.1 vs. access
//! normalization — the paper's motivating comparison.
//!
//! The FORTRAN-D ownership rule has every processor scan every iteration
//! "looking for work to do": correct, load-balanced over owned data, but
//! it pays guard evaluations on all processors for all iterations, makes
//! non-owned operand accesses one element at a time, and cannot batch
//! them into block transfers. Access normalization removes all three
//! costs.

use an_bench::{paper_variants, verdict};
use an_codegen::ownership::{emit_ownership, generate_ownership};
use an_numa::{simulate, simulate_ownership, MachineConfig};

fn run(label: &str, src: &str, params: &[i64]) -> (f64, f64, f64) {
    let program = an_lang::parse(src).expect("parse");
    let ownership = generate_ownership(&program);
    let (variants, _) = paper_variants(src, label);
    let machine = MachineConfig::butterfly_gp1000();

    // Sequential baseline: the naive SPMD program on one processor.
    let base = simulate(&variants[0].spmd, &machine, 1, params)
        .unwrap()
        .time_us;

    println!("\n=== {label} ===");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "P", "ownership", "naive-dist", "normalized", "norm+block"
    );
    let mut last = (0.0, 0.0, 0.0);
    for procs in [1usize, 4, 8, 16, 28] {
        let own = simulate_ownership(&ownership, &machine, procs, params).unwrap();
        let naive = simulate(&variants[0].spmd, &machine, procs, params).unwrap();
        let norm = simulate(&variants[1].spmd, &machine, procs, params).unwrap();
        let blk = simulate(&variants[2].spmd, &machine, procs, params).unwrap();
        println!(
            "{procs:>5} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            base / own.time_us,
            base / naive.time_us,
            base / norm.time_us,
            base / blk.time_us
        );
        last = (base / own.time_us, base / norm.time_us, base / blk.time_us);
    }
    last
}

fn main() -> std::process::ExitCode {
    // Show the generated ownership-rule code once.
    let p = an_lang::parse(&an_bench::fig1_source(8, 4, 8)).unwrap();
    println!("=== ownership-rule node program for Figure 1(a) (§2.1) ===");
    println!("{}", emit_ownership(&generate_ownership(&p)));

    let (own_f, norm_f, blk_f) = run(
        "Figure 1 kernel (N1=N2=160, b=40)",
        &an_bench::fig1_source(160, 40, 160),
        &[160, 40, 160],
    );
    let (own_g, norm_g, blk_g) = run("GEMM 96", &an_bench::gemm_source(96), &[96]);

    verdict(
        "normalization beats the ownership rule on the Figure 1 kernel",
        norm_f > own_f && blk_f > own_f,
    );
    verdict(
        "normalization beats the ownership rule on GEMM",
        norm_g > own_g && blk_g > own_g,
    );
    an_bench::exit_code()
}
