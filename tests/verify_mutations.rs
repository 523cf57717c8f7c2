//! Mutation harness for the independent verifier (`an-verify`).
//!
//! Two directions, both required:
//!
//! - **Sensitivity** — every seeded corruption of the compiled
//!   artifacts must be flagged with its expected `AN0xxx` code, through
//!   the library *and* through `anc check --mutate`.
//! - **Specificity** — the unmutated corpus (every kernel in
//!   `examples/kernels/` plus representative inline programs) must
//!   verify with zero diagnostics: no false positives, even under
//!   `--deny-warnings`.

use access_normalization::verify_mod::{apply_mutation, Code, ConcreteContext, Mutation};
use access_normalization::{compile, verify_options_for, verify_with, CompileOptions};
use std::process::Command;

fn anc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anc"))
}

fn kernel_paths() -> Vec<String> {
    let dir = format!("{}/examples/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".an"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no kernels under {dir}");
    paths
}

fn fig1_src() -> String {
    let path = format!("{}/examples/kernels/fig1.an", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap()
}

/// Inline programs exercising shapes the kernel corpus does not:
/// identity transforms, blocked distributions, replication.
const EXTRA_CORPUS: &[&str] = &[
    // Transpose-style access forcing a permuting transform.
    "param N = 8;
     array C[N, N] distribute wrapped(1);
     array A[N, N] distribute wrapped(1);
     for i = 0, N - 1 { for j = 0, N - 1 { C[i, j] = C[i, j] + A[j, i]; } }",
    // Blocked distribution, 1-D nest.
    "param N = 12;
     array A[N] distribute blocked(0);
     for i = 0, N - 1 { A[i] = A[i] * 2.0; }",
    // Replicated read-only operand.
    "param N = 8;
     array C[N, N] distribute wrapped(0);
     array W[N] distribute replicated;
     for i = 0, N - 1 { for j = 0, N - 1 { C[i, j] = C[i, j] + W[j]; } }",
];

#[test]
fn corpus_verifies_clean() {
    let opts = CompileOptions::default();
    let vopts = verify_options_for(&opts);
    for path in kernel_paths() {
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{path}: {e}"));
        let report = verify_with(&compiled, &vopts);
        assert!(
            report.is_clean(),
            "{path} not clean:\n{}",
            report.render_human()
        );
    }
    for (i, src) in EXTRA_CORPUS.iter().enumerate() {
        let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("extra[{i}]: {e}"));
        let report = verify_with(&compiled, &vopts);
        assert!(
            report.is_clean(),
            "extra[{i}] not clean:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn every_mutation_is_flagged_with_its_code() {
    let opts = CompileOptions::default();
    let vopts = verify_options_for(&opts);
    let compiled = compile(&fig1_src(), &opts).unwrap();
    for m in Mutation::all() {
        let ctx = ConcreteContext::build(
            &compiled.program,
            &compiled.transformed.program,
            vopts.max_points,
        );
        let (mtp, mspmd) = apply_mutation(
            &compiled.program,
            &compiled.transformed,
            &compiled.spmd,
            m,
            ctx.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        let report = access_normalization::verify_mod::verify_artifacts(
            &compiled.program,
            &mtp,
            &mspmd,
            &vopts,
        );
        assert!(report.has_errors(), "{} produced no error", m.name());
        assert!(
            report.codes().contains(&m.expected_code()),
            "{}: expected {} in {:?}\n{}",
            m.name(),
            m.expected_code(),
            report.codes(),
            report.render_human()
        );
    }
}

/// Kernel × mutation pairs the mutator cannot apply: cholesky's outer
/// assignment is round-robin (no ownership split to skew), decimate's
/// nests emit no block transfer to drop, and no single row flip of
/// decimate's or jacobi2d's transform reverses a realized distance.
const INAPPLICABLE: &[(&str, &str)] = &[
    ("cholesky", "skew-ownership"),
    ("decimate", "drop-transfer"),
    ("decimate_messy", "drop-transfer"),
    ("decimate", "flip-transform-sign"),
    ("decimate_messy", "flip-transform-sign"),
    ("jacobi2d", "flip-transform-sign"),
];

/// Applicable pairs flagged under other codes than the mutation's own.
/// None: `skew-ownership` shifts the claim past every subscript the body
/// uses along the owner's dimension (on seidel2d, whose stencil reads
/// `A[u + 1, ..]`, by 2), so `AN0302` fires on every kernel.
const FLAGGED_OTHERWISE: &[(&str, &str, &[Code])] = &[];

#[test]
fn every_mutation_is_flagged_on_every_kernel() {
    let opts = CompileOptions::default();
    let vopts = verify_options_for(&opts);
    let mut skipped = Vec::new();
    for path in kernel_paths() {
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{path}: {e}"));
        let kernel = std::path::Path::new(&path)
            .file_stem()
            .unwrap()
            .to_str()
            .unwrap();
        for m in Mutation::all() {
            let pair = (kernel, m.name());
            let ctx = ConcreteContext::build(
                &compiled.program,
                &compiled.transformed.program,
                vopts.max_points,
            );
            let mutated = apply_mutation(
                &compiled.program,
                &compiled.transformed,
                &compiled.spmd,
                m,
                ctx.as_ref(),
            );
            let (mtp, mspmd) = match mutated {
                Ok(artifacts) => artifacts,
                Err(e) => {
                    assert!(
                        INAPPLICABLE.contains(&pair),
                        "{pair:?} cannot be applied: {e}"
                    );
                    skipped.push((kernel.to_string(), m.name()));
                    continue;
                }
            };
            let report = access_normalization::verify_mod::verify_artifacts(
                &compiled.program,
                &mtp,
                &mspmd,
                &vopts,
            );
            let expected = match FLAGGED_OTHERWISE.iter().find(|(k, n, _)| (*k, *n) == pair) {
                Some(&(_, _, codes)) => codes.to_vec(),
                None => vec![m.expected_code()],
            };
            assert!(
                report.has_errors() && expected.iter().all(|c| report.codes().contains(c)),
                "{pair:?}: expected {expected:?} in {:?}\n{}",
                report.codes(),
                report.render_human()
            );
            if expected != [m.expected_code()] {
                assert!(
                    !report.codes().contains(&m.expected_code()),
                    "{pair:?} is now flagged with {}: drop it from FLAGGED_OTHERWISE",
                    m.expected_code()
                );
            }
        }
    }
    // A pair that became applicable must leave the list.
    skipped.sort();
    let mut listed: Vec<_> = (INAPPLICABLE.iter())
        .map(|&(kernel, m)| (kernel.to_string(), m))
        .collect();
    listed.sort();
    assert_eq!(skipped, listed);
}

#[test]
fn compile_with_verify_accepts_the_corpus() {
    let opts = CompileOptions {
        verify: true,
        ..CompileOptions::default()
    };
    for path in kernel_paths() {
        let src = std::fs::read_to_string(&path).unwrap();
        compile(&src, &opts).unwrap_or_else(|e| panic!("{path}: verify-mode compile: {e}"));
    }
}

#[test]
fn cli_check_passes_clean_kernels_with_deny_warnings() {
    for path in kernel_paths() {
        let out = anc()
            .args(["check", "--deny-warnings", &path])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(out.status.success(), "{path}: {stdout}");
        assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
    }
}

#[test]
fn cli_check_fails_on_each_mutation() {
    let fig1 = format!("{}/examples/kernels/fig1.an", env!("CARGO_MANIFEST_DIR"));
    for m in Mutation::all() {
        let out = anc()
            .args(["check", "--mutate", m.name(), &fig1])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            !out.status.success(),
            "--mutate {} exited 0:\n{stdout}",
            m.name()
        );
        assert!(
            stdout.contains(m.expected_code().as_str()),
            "--mutate {} output lacks {}:\n{stdout}",
            m.name(),
            m.expected_code()
        );
    }
}

#[test]
fn cli_check_json_is_machine_readable() {
    let fig1 = format!("{}/examples/kernels/fig1.an", env!("CARGO_MANIFEST_DIR"));
    let out = anc()
        .args(["check", "--json", "--mutate", "drop-transfer", &fig1])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("\"code\": \"AN0401\""), "{stdout}");
    assert!(stdout.contains("\"errors\": 1"), "{stdout}");
    // Spans from the surface program are attached.
    assert!(stdout.contains("\"line\":"), "{stdout}");
}
