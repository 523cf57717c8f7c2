//! Experiment E1: the paper's Figure 1 — transformation and code
//! generation for the running example, plus a speedup sweep showing why
//! the restructuring matters.

use an_bench::{paper_variants, print_speedup_table, speedup_table, verdict, PAPER_PROCS};
use an_codegen::{apply_transform, emit::emit_spmd, generate_spmd, SpmdOptions};
use an_numa::MachineConfig;

fn main() -> std::process::ExitCode {
    // Paper-style sizes: a banded access pattern.
    let (n1, b, n2) = (400i64, 100, 400);
    let src = an_bench::fig1_source(n1, b, n2);
    let (program, norm) = an_bench::parse_and_normalize(&src);

    println!("=== Figure 1(a): source ===");
    println!("{}", an_ir::pretty::print_program(&program));
    println!(
        "=== data access matrix (§2.2) ===\n{}",
        norm.access_matrix.matrix
    );
    println!("\n=== transformation matrix (= the access matrix; it is invertible) ===");
    println!("{}", norm.transform);

    let tp = apply_transform(&program, &norm.transform).expect("transform");
    println!("\n=== Figure 1(c): transformed nest ===");
    println!("{}", an_ir::pretty::print_nest(&tp.program));

    let spmd = generate_spmd(&tp, Some(&norm.dependences), &SpmdOptions::default());
    println!("=== Figure 1(d): SPMD node program ===");
    println!("{}", emit_spmd(&spmd));

    // Semantic check at a reduced size (the interpreter walks every
    // iteration).
    let small = an_bench::fig1_source(16, 6, 16);
    let sp = an_lang::parse(&small).expect("parse");
    let snorm = an_core::normalize(&sp, &an_core::NormalizeOptions::default()).expect("normalize");
    let stp = apply_transform(&sp, &snorm.transform).expect("transform");
    let before = an_ir::interp::run_seeded(&sp, &[16, 6, 16], 1).expect("run");
    let after = an_ir::interp::run_seeded(&stp.program, &[16, 6, 16], 1).expect("run");
    verdict(
        "transformed program computes the same function",
        before.max_abs_diff(&after) == 0.0,
    );

    // Speedups.
    let (variants, _) = paper_variants(&src, "fig1");
    let machine = MachineConfig::butterfly_gp1000();
    let rows = speedup_table(&variants, &machine, &PAPER_PROCS, &[n1, b, n2]);
    print_speedup_table(
        "Figure 1 example: speedups (GP-1000 model)",
        &["fig1", "fig1T", "fig1B"],
        &rows,
    );
    let last = rows.last().unwrap();
    verdict(
        "no remote element accesses remain with block transfers",
        last.entries[2].1.total_remote() == 0,
    );
    verdict(
        "restructured code beats the naive distribution",
        last.entries[2].0 > 2.0 * last.entries[0].0,
    );
    an_bench::exit_code()
}
