//! Shared plumbing for the figure-regeneration benchmark harnesses.
//!
//! Each `[[bench]]` target with `harness = false` regenerates one table
//! or figure from the paper's evaluation (see `DESIGN.md` for the
//! experiment index) by compiling the kernel three ways — naive,
//! access-normalized, and access-normalized with block transfers — and
//! simulating each on a machine profile across processor counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use an_codegen::{apply_transform, generate_spmd, SpmdOptions, SpmdProgram};
use an_core::{normalize, NormalizeOptions, NormalizeResult};
use an_ir::Program;
use an_numa::{simulate, MachineConfig, SimStats};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// The paper's processor counts for Figures 4 and 5.
pub const PAPER_PROCS: [usize; 9] = [1, 2, 4, 8, 12, 16, 20, 24, 28];

/// Figure 1(a) source at the paper-style banded sizes.
pub fn fig1_source(n1: i64, b: i64, n2: i64) -> String {
    format!(
        "param N1 = {n1}; param b = {b}; param N2 = {n2};
         array A[N1, N1 + N2 + b] distribute wrapped(1);
         array B[N1, b] distribute wrapped(1);
         for i = 0, N1 - 1 {{ for j = i, i + b - 1 {{ for k = 0, N2 - 1 {{
             B[i, j - i] = B[i, j - i] + A[i, j + k];
         }} }} }}"
    )
}

/// GEMM source (paper §8.1; 400×400 wrapped-column in the paper).
pub fn gemm_source(n: i64) -> String {
    format!(
        "param N = {n};
         array C[N, N] distribute wrapped(1);
         array A[N, N] distribute wrapped(1);
         array B[N, N] distribute wrapped(1);
         for i = 0, N - 1 {{ for j = 0, N - 1 {{ for k = 0, N - 1 {{
             C[i, j] = C[i, j] + A[i, k] * B[k, j];
         }} }} }}"
    )
}

/// Banded SYR2K source (paper §8.2) in packed band storage.
pub fn syr2k_source(n: i64, b: i64) -> String {
    format!(
        "param N = {n}; param b = {b};
         coef alpha = 1.0; coef beta = 1.0;
         array Ab[N + 1, 2 * b + 1] distribute wrapped(1);
         array Bb[N + 1, 2 * b + 1] distribute wrapped(1);
         array Cb[N + 1, 2 * b + 1] distribute wrapped(1);
         for i = 1, N {{
           for j = i, min(i + 2 * b - 2, N) {{
             for k = max(i - b + 1, j - b + 1, 1), min(i + b - 1, j + b - 1, N) {{
               Cb[i, j - i + 1] = Cb[i, j - i + 1]
                 + alpha * Ab[k, i - k + b] * Bb[k, j - k + b]
                 + beta * Ab[k, j - k + b] * Bb[k, i - k + b];
             }}
           }}
         }}"
    )
}

/// One compiled variant of a kernel.
pub struct Variant {
    /// Curve label (`gemm`, `gemmT`, `gemmB`, …).
    pub label: String,
    /// The SPMD program to simulate.
    pub spmd: SpmdProgram,
}

/// Compiles the three paper variants of a kernel: naive outer-loop
/// distribution, access-normalized without block transfers (`…T`), and
/// access-normalized with block transfers (`…B`).
///
/// # Panics
///
/// Panics if the source fails to compile (benchmark sources are fixed).
pub fn paper_variants(src: &str, base_label: &str) -> (Vec<Variant>, NormalizeResult) {
    let program = an_lang::parse(src).expect("benchmark source must parse");
    let norm = normalize(&program, &NormalizeOptions::default()).expect("normalize");
    let identity = an_linalg::IMatrix::identity(program.nest.depth());
    let naive_t = apply_transform(&program, &identity).expect("identity transform");
    let trans = apply_transform(&program, &norm.transform).expect("normalized transform");
    let variants = vec![
        Variant {
            label: base_label.to_string(),
            spmd: generate_spmd(
                &naive_t,
                Some(&norm.dependences),
                &SpmdOptions {
                    block_transfers: false,
                },
            ),
        },
        Variant {
            label: format!("{base_label}T"),
            spmd: generate_spmd(
                &trans,
                Some(&norm.dependences),
                &SpmdOptions {
                    block_transfers: false,
                },
            ),
        },
        Variant {
            label: format!("{base_label}B"),
            spmd: generate_spmd(&trans, Some(&norm.dependences), &SpmdOptions::default()),
        },
    ];
    (variants, norm)
}

/// A speedup row: processor count and per-variant speedups.
pub struct SpeedupRow {
    /// Processor count.
    pub procs: usize,
    /// `(speedup, stats)` per variant, in variant order.
    pub entries: Vec<(f64, SimStats)>,
}

/// Simulates every variant across the processor counts and returns
/// speedup rows, normalizing each curve to the *naive* single-processor
/// time, which is how the paper plots Figures 4 and 5.
///
/// # Panics
///
/// Panics on simulation errors (benchmark configurations are fixed).
pub fn speedup_table(
    variants: &[Variant],
    machine: &MachineConfig,
    procs_list: &[usize],
    params: &[i64],
) -> Vec<SpeedupRow> {
    let base = simulate(&variants[0].spmd, machine, 1, params)
        .expect("baseline simulation")
        .time_us;
    procs_list
        .iter()
        .map(|&procs| {
            let entries = variants
                .iter()
                .map(|v| {
                    let s = simulate(&v.spmd, machine, procs, params).expect("simulation");
                    (base / s.time_us, s)
                })
                .collect();
            SpeedupRow { procs, entries }
        })
        .collect()
}

/// Writes a speedup table as CSV next to the target directory so plots
/// can be regenerated (`target/an-bench-results/<name>.csv`). Returns
/// the path written, or `None` if the filesystem refused.
pub fn write_csv(name: &str, labels: &[&str], rows: &[SpeedupRow]) -> Option<std::path::PathBuf> {
    // Anchor at the workspace target dir regardless of bench CWD.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let dir = root.join("target").join("an-bench-results");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.csv"));
    let mut text = String::from("P");
    for l in labels {
        text.push(',');
        text.push_str(l);
        text.push_str(",remote_frac_");
        text.push_str(l);
        text.push_str(",messages_");
        text.push_str(l);
    }
    text.push('\n');
    for row in rows {
        text.push_str(&row.procs.to_string());
        for (s, stats) in &row.entries {
            text.push_str(&format!(
                ",{s:.4},{:.4},{}",
                stats.remote_fraction(),
                stats.total_messages()
            ));
        }
        text.push('\n');
    }
    an_obs::write_atomic(&path, &text).ok()?;
    Some(path)
}

/// Prints a speedup table in the paper's figure layout.
pub fn print_speedup_table(title: &str, labels: &[&str], rows: &[SpeedupRow]) {
    println!("\n=== {title} ===");
    print!("{:>5}", "P");
    for l in labels {
        print!(" {l:>10}");
    }
    println!("   (speedup over 1-processor naive)");
    for row in rows {
        print!("{:>5}", row.procs);
        for (s, _) in &row.entries {
            print!(" {s:>10.2}");
        }
        println!();
    }
}

/// Set by the first `[FAIL]` verdict of the process; [`exit_code`] reads it.
static ANY_FAILED: AtomicBool = AtomicBool::new(false);

/// Checks the paper's qualitative claims for a two-curve comparison and
/// prints a PASS/FAIL verdict line (benches must not silently drift).
/// A failed claim does not stop the bench: the remaining verdicts still
/// print, and [`exit_code`] fails the process afterwards.
pub fn verdict(name: &str, ok: bool) {
    println!("[{}] {}", if ok { "PASS" } else { "FAIL" }, name);
    if !ok {
        ANY_FAILED.store(true, Ordering::Relaxed);
    }
}

/// What a bench's `main` returns once every verdict is printed: failure
/// if any of them was `[FAIL]`, so `cargo bench -p an-bench` gates on
/// the paper's claims.
pub fn exit_code() -> ExitCode {
    if ANY_FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Convenience: parse + normalize only.
pub fn parse_and_normalize(src: &str) -> (Program, NormalizeResult) {
    let program = an_lang::parse(src).expect("source must parse");
    let norm = normalize(&program, &NormalizeOptions::default()).expect("normalize");
    (program, norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_verdict_fails_the_bench_after_the_rest_have_printed() {
        let code = |c: ExitCode| format!("{c:?}");
        verdict("first claim holds", true);
        assert_eq!(code(exit_code()), code(ExitCode::SUCCESS));
        verdict("second claim does not", false);
        verdict("third claim holds", true);
        assert_eq!(code(exit_code()), code(ExitCode::FAILURE));
    }
}
