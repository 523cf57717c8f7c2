//! Smoke tests of the `anc` CLI binary.

use std::process::Command;

fn anc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anc"))
}

fn kernel_path(name: &str) -> String {
    format!("{}/examples/kernels/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn emits_transform_for_gemm() {
    let out = anc()
        .args(["--emit", "transform", &kernel_path("gemm.an")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("transformation matrix"), "{stdout}");
    assert!(stdout.contains("normalized 3 of 3 subscripts"), "{stdout}");
}

#[test]
fn simulates_with_processor_list() {
    let out = anc()
        .args([
            "--emit",
            "transform",
            "--simulate",
            "1,4",
            "--param",
            "N=32",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("simulation on BBN Butterfly GP-1000"),
        "{stdout}"
    );
    assert!(stdout.contains("speedup"), "{stdout}");
}

#[test]
fn reads_stdin_and_reports_errors() {
    use std::io::Write as _;
    use std::process::Stdio;
    // Valid program via stdin.
    let mut child = anc()
        .args(["--emit", "ir", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"array A[4]; for i = 0, 3 { A[i] = 1.0; }")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());

    // Parse error: non-zero exit with a diagnostic on stderr.
    let mut child = anc()
        .args(["-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"for i = { garbage")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("anc:"), "{stderr}");
}

#[test]
fn emit_c_produces_compilable_source() {
    let out = anc()
        .args(["--emit", "c", &kernel_path("fig1.an")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("#include <stdio.h>"), "{stdout}");
    assert!(stdout.contains("int main(void)"), "{stdout}");
}

#[test]
fn strides_and_ordering_flags() {
    let out = anc()
        .args([
            "--emit",
            "transform",
            "--ordering",
            "contiguity",
            "--strides",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("innermost-loop strides"), "{stdout}");
}

#[test]
fn explain_narrates_pipeline() {
    let out = anc()
        .args(["--explain", "--emit", "transform", &kernel_path("syr2k.an")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== BasisMatrix (§5.1) =="), "{stdout}");
    assert!(stdout.contains("negated (loop reversal)"), "{stdout}");
    assert!(stdout.contains("normalized subscripts"), "{stdout}");
}

#[test]
fn deps_dot_output() {
    let out = anc()
        .args(["--emit", "deps", &kernel_path("fig1.an")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("digraph dependences"), "{stdout}");
    assert!(stdout.contains("[0, 0, 1]"), "{stdout}");
}

#[test]
fn autodist_reports_candidates() {
    let out = anc()
        .args([
            "--emit",
            "transform",
            "--autodist",
            "4",
            "--param",
            "N=24",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("distribution search"), "{stdout}");
    assert!(stdout.contains("C:"), "{stdout}");
}

#[test]
fn autodist_model_pricing_reports_validation() {
    let out = anc()
        .args([
            "--emit",
            "transform",
            "--autodist",
            "4",
            "--param",
            "N=24",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("model-priced"), "{stdout}");
    assert!(stdout.contains("0 mismatches"), "{stdout}");
}

#[test]
fn autodist_price_sim_escape_hatch() {
    let out = anc()
        .args([
            "--emit",
            "transform",
            "--autodist",
            "2",
            "--price",
            "sim",
            "--param",
            "N=12",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("sim-priced"), "{stdout}");
    assert!(!stdout.contains("model validation"), "{stdout}");
}

#[test]
fn sweep_has_no_fault_axis() {
    // A degraded price comes from `anc chaos` alone, which proves
    // recovery before it prices.
    for flag in ["--chaos", "--seed"] {
        let out = anc()
            .args(["sweep", flag, "2", &kernel_path("gemm.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr, format!("anc sweep: unknown option '{flag}'\n"));
    }
}

#[test]
fn chaos_and_profile_take_no_jobs() {
    // One pricing call runs serially; only `--autodist` and `sweep` fan
    // out over independent pricings and take `--jobs`.
    for cmd in ["chaos", "profile"] {
        let out = anc()
            .args([cmd, "--jobs", "1", &kernel_path("gemm.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr, format!("anc {cmd}: unknown option '--jobs'\n"));
    }
}

#[test]
fn sweep_pricings_agree_on_counts() {
    let run = |price: &str| {
        let out = anc()
            .args([
                "sweep",
                "--price",
                price,
                "--procs",
                "1,4",
                "--params",
                "12",
                "--json",
                "-",
                &kernel_path("gemm.an"),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let model = run("model");
    let sim = run("sim");
    // Integer counters are exact, so the JSON fields match; extract and
    // compare the messages/local/remote/transfer_bytes fragments.
    for key in [
        "\"local\":",
        "\"remote\":",
        "\"messages\":",
        "\"transfer_bytes\":",
    ] {
        let grab = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(key))
                .map(|l| {
                    let at = l.find(key).unwrap() + key.len();
                    l[at..].chars().take_while(|c| *c != ',').collect()
                })
                .collect()
        };
        assert_eq!(grab(&model), grab(&sim), "{key} diverged");
    }
}

#[test]
fn unpriceable_subscript_exits_1_with_one_line() {
    // Compiles and checks clean, but `A[i64::MAX * i, j]` cannot be
    // evaluated at `i = 2`: pricing must say so in one `anc: ...` line
    // (exit 1), not panic inside an evaluator (exit 3).
    let dir = std::env::temp_dir().join("anc-cli-unpriceable");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.an");
    std::fs::write(
        &path,
        "param N = 8; array A[N, N] distribute wrapped(0);
         for i = 1, N - 1 { for j = 1, N - 1 {
           A[i, j] = A[i - 1, j] + A[i, j - 1] + A[9223372036854775807 * i, j];
         } }",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    assert!(anc()
        .args(["check", path])
        .output()
        .unwrap()
        .status
        .success());
    for args in [vec![path, "--simulate", "4"], vec!["sweep", path]] {
        let out = anc().args(&args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("anc: ") && stderr.contains("subscript of array A"),
            "{args:?}: {stderr}"
        );
    }
}

/// A loop bound that leaves `i64` at the default `N = 4` (2⁶² · 4 = 2⁶⁴).
const BOUND_OVERFLOW: &str =
    "param N = 4; array A[N]; for i = 0, 4611686018427387904 * N { A[i] = A[i] + 1; }";

/// Writes `source` to a scratch file named `name` and returns its path.
fn scratch_source(name: &str, source: &str) -> String {
    let dir = std::env::temp_dir().join(format!("anc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path.to_str().unwrap().to_string()
}

/// Runs `anc args`, demands exit 1 with one `anc: ` line on stderr
/// containing `needle`, and returns that line.
fn rejected_in_one_line(args: &[&str], needle: &str) -> String {
    let out = anc().args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("anc: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
    stderr
}

#[test]
fn out_of_range_loop_bounds_exit_1_with_one_line() {
    // The bound itself, and its `step 2` twin that the pre-normalizer
    // rewrites and probes: both must be rejected before anything
    // evaluates the bound at the defaults, where it would panic (exit 3).
    let plain = scratch_source("bound.an", BOUND_OVERFLOW);
    let stepped = scratch_source(
        "bound_step.an",
        &BOUND_OVERFLOW.replace("* N {", "* N step 2 {"),
    );
    for path in [&plain, &stepped] {
        for args in [vec![path.as_str()], vec!["check", path], vec!["lint", path]] {
            rejected_in_one_line(&args, "bound of loop variable #0");
        }
    }
}

/// An array extent that leaves `i64` at the default `N = 4`.
const EXTENT_OVERFLOW: &str =
    "param N = 4; array A[4611686018427387904 * N] distribute blocked(0); \
     for i = 0, N - 1 { A[i] = A[i] + 1; }";

#[test]
fn out_of_range_array_extents_exit_1_with_one_line() {
    // Every command that compiles rejects it at the front end, before
    // the verifier, pricing or the interpreter evaluate the extent
    // (where it panicked, exit 3). `--param` can push an extent out of
    // range only at pricing time, which checks again.
    let path = scratch_source("extent.an", EXTENT_OVERFLOW);
    let path = path.as_str();
    for args in [
        vec![path],
        vec!["check", path],
        vec!["lint", path],
        vec![path, "--simulate", "4"],
        vec!["sweep", path],
        vec!["chaos", path],
        vec!["profile", path],
    ] {
        rejected_in_one_line(&args, "extent of array");
    }
    let fits = scratch_source("extent_n1.an", &EXTENT_OVERFLOW.replace("N = 4", "N = 1"));
    let fits = fits.as_str();
    for args in [
        vec![fits, "--simulate", "4", "--param", "N=4"],
        vec!["sweep", fits, "--params", "4", "--price", "sim"],
        vec!["sweep", fits, "--params", "4", "--price", "model"],
    ] {
        rejected_in_one_line(&args, "extent of array A");
    }
}

#[test]
fn pricing_never_splits_the_model_from_the_simulator() {
    // A wrapped read whose coefficient is near 2⁶²: priced, and priced
    // alike; only its residue mod P may enter the period scan.
    let wrapped = scratch_source(
        "wrapped.an",
        "param N = 4; array A[9223372036854775807] distribute wrapped(0);
         array B[N, 2] distribute wrapped(0);
         for i = 0, N - 1 { for j = 0, 1 { B[i, j] = A[4000000000000000001 * j] + 1; } }",
    );
    let sweep = |path: &str, price: &str| {
        let args = ["sweep", path, "--procs", "3,4,5,8", "--price", price];
        anc().args(args).output().unwrap()
    };
    let rows = |out: &std::process::Output| -> Vec<String> {
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout.lines().skip(1).map(str::to_string).collect()
    };
    let (model, sim) = (sweep(&wrapped, "model"), sweep(&wrapped, "sim"));
    assert!(model.status.success() && sim.status.success());
    assert_eq!(rows(&model), rows(&sim));
    assert!(
        rows(&model).iter().any(|r| r.contains("37.5%")),
        "{model:?}"
    );

    // A blocked read past the block-interval sentinels, where neither
    // evaluator's block arithmetic holds: both must reject it alike.
    let blocked = scratch_source(
        "blocked.an",
        "param N = 4; array A[100] distribute blocked(0);
         array B[N, 2] distribute wrapped(0);
         for i = 0, N - 1 { for j = 0, 1 { B[i, j] = A[7000000000000000000 + j] + 1; } }",
    );
    let model = rejected_in_one_line(
        &["sweep", &blocked, "--procs", "4", "--price", "model"],
        "subscript of array A",
    );
    let sim = rejected_in_one_line(
        &["sweep", &blocked, "--procs", "4", "--price", "sim"],
        "subscript of array A",
    );
    assert_eq!(model, sim);
    rejected_in_one_line(&[&blocked, "--simulate", "4"], "subscript of array A");
}

#[test]
fn serve_answers_out_of_range_bounds_an0703_and_quarantines_nothing() {
    serve_rejects_twice_as_an0703(BOUND_OVERFLOW);
}

#[test]
fn serve_answers_out_of_range_extents_an0703_and_quarantines_nothing() {
    serve_rejects_twice_as_an0703(EXTENT_OVERFLOW);
}

/// Compiles `source` twice over `anc serve --stdio`: both answers must
/// be `AN0703` (a compile error, not a panic), and nothing quarantined.
fn serve_rejects_twice_as_an0703(source: &str) {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let mut daemon = anc()
        .args(["serve", "--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = daemon.stdin.take().unwrap();
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let source = source.replace('"', "\\\"");
    let mut ask = |frame: String| {
        stdin.write_all(format!("{frame}\n").as_bytes()).unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        line
    };
    for id in [1, 2] {
        let answer = ask(format!(
            "{{\"id\":{id},\"verb\":\"compile\",\"source\":\"{source}\"}}"
        ));
        assert!(answer.contains("\"code\":\"AN0703\""), "{answer}");
    }
    let status = ask("{\"id\":3,\"verb\":\"status\"}".to_string());
    for field in ["\"compile\":2", "\"panics\":0", "\"quarantine\":[]"] {
        assert!(status.contains(field), "{field}: {status}");
    }
    ask("{\"id\":4,\"verb\":\"shutdown\"}".to_string());
    assert!(daemon.wait().unwrap().success());
}

#[test]
fn unknown_input_path_exits_2_with_one_line() {
    let out = anc().args(["/no/such/kernel.an"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("cannot read /no/such/kernel.an"),
        "{stderr}"
    );
}

#[test]
fn malformed_param_exits_2_with_one_line() {
    for bad in ["N", "N=", "N=abc", "=3"] {
        let out = anc()
            .args(["--param", bad, &kernel_path("gemm.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--param {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
        assert!(stderr.contains("malformed --param"), "{stderr}");
    }
}

#[test]
fn chaos_reports_recovery_for_every_scenario() {
    let out = anc()
        .args([
            "chaos",
            "--seed",
            "1",
            "--param",
            "N=12",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for scenario in [
        "failstop",
        "double-failstop",
        "drop",
        "delay",
        "spike",
        "mixed",
    ] {
        assert!(stdout.contains(scenario), "missing {scenario}: {stdout}");
    }
    assert!(stdout.contains("recovery verified"), "{stdout}");
}

#[test]
fn chaos_json_is_byte_identical_across_runs() {
    // `anc chaos` takes no `--jobs` (every pricing call is serial), so
    // this is a repeat-run check: the JSON has no wall-clock field.
    let run = || {
        let out = anc()
            .args([
                "chaos",
                "--seed",
                "5",
                "--json",
                "--param",
                "N=12",
                &kernel_path("gemm.an"),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    assert_eq!(run(), first, "same invocation must be reproducible");
    let text = String::from_utf8(first).unwrap();
    assert!(text.contains("\"recovery_verified\": true"), "{text}");
    assert!(text.contains("\"replayed_iterations\""), "{text}");
}

#[test]
fn chaos_rejects_unknown_scenario() {
    let out = anc()
        .args(["chaos", "--scenario", "meteor", &kernel_path("gemm.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown scenario 'meteor'"), "{stderr}");
}

#[test]
fn naive_and_no_transfer_flags() {
    let out = anc()
        .args([
            "--naive",
            "--no-transfers",
            "--emit",
            "spmd",
            "--simulate",
            "4",
            "--param",
            "N=24",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Naive: round-robin outer loop, no read statements.
    assert!(stdout.contains("step P"), "{stdout}");
    assert!(!stdout.contains("read "), "{stdout}");
}

#[test]
fn fuzz_subcommand_runs_clean_and_deterministic() {
    let run = || {
        let out = anc()
            .args(["fuzz", "--iters", "12", "--seed", "9"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "anc fuzz failed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    assert!(first.contains("12 iteration(s)"), "{first}");
    assert!(first.contains("0 panic(s)"), "{first}");
    assert!(first.contains("0 mismatch(es)"), "{first}");
    // Same seed, same report — the fuzzer is deterministic.
    assert_eq!(first, run());
}

#[test]
fn fuzz_rejects_malformed_flags() {
    let out = anc().args(["fuzz", "--seed", "banana"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = anc().args(["fuzz", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn profile_json_is_deterministic_and_covers_every_phase() {
    let dir = std::env::temp_dir().join("anc-cli-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |out: &str| {
        let out_path = dir.join(out);
        let o = anc()
            .args([
                "profile",
                "--json",
                "--out",
                out_path.to_str().unwrap(),
                &kernel_path("gemm.an"),
            ])
            .output()
            .unwrap();
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        (
            String::from_utf8(o.stdout).unwrap(),
            String::from_utf8(o.stderr).unwrap(),
            std::fs::read_to_string(&out_path).unwrap(),
        )
    };
    let (stdout1, stderr1, file1) = run("p1.json");
    let (stdout2, _, file2) = run("p2.json");

    // stdout is pure JSON; progress goes to stderr.
    assert!(stdout1.starts_with('{'), "{stdout1}");
    assert!(stderr1.contains("wrote "), "{stderr1}");
    // Byte-identical across repeat runs, and the file is the report.
    assert_eq!(stdout1, stdout2, "profile not reproducible");
    assert_eq!(file1, file2, "--out file not reproducible");
    assert_eq!(file1, stdout1, "--out file differs from stdout");
    // The span tree covers every pipeline phase.
    for phase in [
        "compile",
        "deps",
        "normalize",
        "access-matrix",
        "basis",
        "legal",
        "padding",
        "restructure",
        "codegen",
        "simulate",
    ] {
        assert!(
            stdout1.contains(&format!("\"phase\": \"{phase}\"")),
            "phase {phase} missing:\n{stdout1}"
        );
    }
    // Logical clocks only: no wall field may appear by default.
    assert!(!stdout1.contains("wall_us"), "{stdout1}");
}

#[test]
fn sweep_json_dash_keeps_stdout_pure() {
    let out = anc()
        .args([
            "sweep",
            "--procs",
            "1,4",
            "--params",
            "24",
            "--json",
            "-",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // stdout carries exactly the JSON report...
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(
        !stdout.contains("== sweep"),
        "table leaked to stdout: {stdout}"
    );
    // ...and the human table moved to stderr.
    assert!(stderr.contains("== sweep"), "{stderr}");
}

#[test]
fn chaos_json_with_trace_keeps_stdout_pure() {
    let out = anc()
        .args([
            "chaos",
            "--seed",
            "1",
            "--scenario",
            "failstop",
            "--procs",
            "3",
            "--param",
            "N=16",
            "--json",
            "--trace",
            "--trace-format",
            "jsonl",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(
        !stdout.contains("\"kind\""),
        "trace leaked to stdout: {stdout}"
    );
    // The JSONL trace landed on stderr, with chaos events present.
    assert!(stderr.contains("\"kind\":\"fault_armed\""), "{stderr}");
    assert!(stderr.contains("\"kind\":\"fault_recovered\""), "{stderr}");
}

#[test]
fn trace_file_flag_writes_a_chrome_trace() {
    let dir = std::env::temp_dir().join("anc-cli-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gemm-trace.json");
    let out = anc()
        .args([
            "--emit",
            "transform",
            &format!("--trace={}", path.display()),
            "--trace-format",
            "chrome",
            &kernel_path("gemm.an"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.contains("\"ph\":\"B\""), "{trace}");
    assert!(trace.contains("\"name\":\"compile\""), "{trace}");
}

#[test]
fn lint_clean_kernel_exits_0() {
    let out = anc()
        .args(["lint", &kernel_path("gemm.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn lint_messy_kernel_exits_0_but_deny_warnings_exits_1() {
    // Info findings alone do not fail a lint run...
    let out = anc()
        .args(["lint", &kernel_path("mvt_messy.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("AN0602"), "{stdout}");
    // ...but --deny-warnings makes any finding fatal.
    let out = anc()
        .args(["lint", "--deny-warnings", &kernel_path("mvt_messy.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_json_is_pure_and_deterministic() {
    let run = || {
        let out = anc()
            .args(["lint", "--json", &kernel_path("decimate_messy.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    assert!(first.trim_start().starts_with('{'), "{first}");
    assert!(first.contains("\"code\": \"AN0603\""), "{first}");
    assert_eq!(first, run(), "lint --json not reproducible");
}

#[test]
fn lint_fix_rewrites_file_to_canonical_form() {
    let dir = std::env::temp_dir().join("anc-cli-lint-fix");
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("decimate_messy.an");
    std::fs::copy(kernel_path("decimate_messy.an"), &target).unwrap();
    let target = target.to_str().unwrap().to_string();

    let out = anc().args(["lint", "--fix", &target]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("rewrote"), "{stderr}");
    let fixed = std::fs::read_to_string(&target).unwrap();
    assert!(
        !fixed.contains("step"),
        "step clause survived --fix: {fixed}"
    );

    // The fixed file is canonical: it now passes the strict gate.
    let out = anc()
        .args(["check", "--no-prenormalize", "--deny-warnings", &target])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "fixed file not canonical");

    // A second --fix is a no-op (no rewrite message).
    let out = anc().args(["lint", "--fix", &target]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("rewrote"), "{stderr}");
    assert_eq!(fixed, std::fs::read_to_string(&target).unwrap());
}

#[test]
fn lint_usage_errors_exit_2_with_one_line() {
    // --fix on stdin has no file to rewrite.
    let out = anc().args(["lint", "--fix", "-"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--fix cannot rewrite stdin"), "{stderr}");
    // Unknown flag.
    let out = anc()
        .args(["lint", "--bogus", &kernel_path("gemm.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn lint_reports_parse_errors_with_exit_1() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = anc()
        .args(["lint", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"for i = { garbage")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("anc:"), "{stderr}");
}

/// The exit-code contract (0 success, 1 compile/verify failure, 2
/// usage, 3 contained panic) — table-driven sweep of malformed flags
/// across every subcommand, including `serve`. Each case must exit 2
/// with exactly one line on stderr that names the offending flag (the
/// first `--flag` of the case), never 0/1 and never a panic.
#[test]
fn usage_errors_exit_2_across_every_subcommand() {
    let gemm = kernel_path("gemm.an");
    let cases: &[&[&str]] = &[
        // main driver
        &["--bogus"],
        &["--emit", "bogus"],
        &["--emit", "--no-input"],
        &["--jobs", "banana"],
        &["--ordering", "sideways"],
        &["--simulate", "banana"],
        &["--autodist", "banana"],
        &["--price", "banana"],
        &["--machine", "vax"],
        // check
        &["check", "--bogus"],
        &["check", "--mutate", "bogus"],
        // sweep
        &["sweep", "--procs", "banana"],
        &["sweep", "--bogus"],
        &["sweep", "--price", "banana"],
        &["sweep", "--machines", "vax"],
        &["sweep", "--params", "banana"],
        // chaos
        &["chaos", "--scenario", "meteor"],
        &["chaos", "--procs", "banana"],
        &["chaos", "--seed", "x"],
        // profile
        &["profile", "--bogus"],
        &["profile", "--top", "x"],
        // Bugfix pins: no processors is a usage error wherever
        // processors are counted. These used to exit 1 through the
        // simulator, and `--autodist 0` exited 0 having skipped every
        // candidate.
        &["--autodist", "0"],
        &["--simulate", "4,0"],
        &["sweep", "--procs", "0"],
        &["chaos", "--procs", "0"],
        &["profile", "--procs", "0"],
        // fuzz (takes no input file: `--no-input` keeps the kernel off)
        &["fuzz", "--iters", "x", "--no-input"],
        &["fuzz", "--bogus", "--no-input"],
        // lint
        &["lint", "--bogus"],
        // serve (takes no input file)
        &["serve", "--bogus", "--no-input"],
        &["serve", "--workers", "banana", "--no-input"],
        &["serve", "--queue", "x", "--no-input"],
        &["serve", "--stdio", "--socket", "/tmp/x.sock", "--no-input"],
        &["serve", "--max-frame-bytes", "big", "--no-input"],
        &["serve", "--retry-after-ms", "soon", "--no-input"],
        &["serve", "--deadline-ms", "later", "--no-input"],
    ];
    for case in cases {
        let mut cmd = anc();
        let takes_input = !case.contains(&"--no-input");
        cmd.args(case.iter().filter(|a| **a != "--no-input"));
        if takes_input {
            cmd.arg(&gemm);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case:?}: expected exit 2, got {:?}\nstderr: {stderr}",
            out.status.code(),
        );
        assert!(
            out.stdout.is_empty(),
            "{case:?}: usage errors print nothing"
        );
        let flag = case.iter().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(stderr.lines().count(), 1, "{case:?}: {stderr}");
        assert!(stderr.contains(flag), "{case:?}: {stderr} must name {flag}");
    }
    // No input at all is also a usage error.
    let out = anc().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&out.stderr).lines().count(), 1);
}

/// Bugfix pins: an unknown `--param` name is a usage error (exit 2, one
/// line), matching check/chaos/profile — it used to exit 1 through the
/// compile-failure path.
#[test]
fn unknown_param_binding_exits_2() {
    let out = anc()
        .args(["--param", "Q=3", &kernel_path("gemm.an")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("unknown parameter"), "{stderr}");
}

/// Bugfix pin: an unknown `--param` name is caught against the parsed
/// program before anything is printed — `--emit deps --param Q=3` used
/// to write the graph to stdout and only then exit 2.
#[test]
fn unknown_param_is_rejected_before_any_output() {
    for cmd in [
        &["--emit", "deps"][..],
        &["check"],
        &["chaos"],
        &["profile"],
    ] {
        let out = anc()
            .args(cmd)
            .args(["--param", "Q=3", &kernel_path("gemm.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd:?}");
        assert!(out.stdout.is_empty(), "{cmd:?} printed before failing");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr.lines().count(), 1, "{cmd:?}: {stderr}");
        assert!(stderr.contains("unknown parameter"), "{cmd:?}: {stderr}");
    }
}

/// The eight commands; the compile driver is the one without a name.
const COMMANDS: [&str; 8] = [
    "", "sweep", "check", "lint", "chaos", "profile", "fuzz", "serve",
];

/// Bugfix pin: every command rejects an unknown option as a usage error
/// instead of misreading it as an input file name ("cannot read
/// --bogus", which the compile driver, `sweep`, `chaos` and `profile`
/// used to answer).
#[test]
fn check_unknown_option_is_not_treated_as_a_file() {
    for name in COMMANDS {
        let out = anc()
            .args(name.split_whitespace())
            .args(["--bogus", &kernel_path("gemm.an")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "anc {name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let prog = format!("anc {name}");
        let expected = format!("{}: unknown option '--bogus'\n", prog.trim_end());
        assert_eq!(stderr, expected);
    }
}

/// `anc <cmd> --help` as the left column of its flag rows: `--flag`,
/// `--flag METAVAR` or `--flag[=FILE]`.
fn help_flags(name: &str) -> Vec<String> {
    let out = anc()
        .args(name.split_whitespace())
        .arg("--help")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "anc {name} --help");
    assert!(out.stderr.is_empty(), "anc {name} --help wrote to stderr");
    let help = String::from_utf8(out.stdout).unwrap();
    assert!(help.starts_with("usage: anc"), "{help}");
    let rows = help.lines().filter(|l| l.starts_with("  --"));
    rows.map(|l| l.trim().split("  ").next().unwrap().to_string())
        .collect()
}

/// `--help` is generated from the table the parser reads, so it cannot
/// drift from what is accepted: every valued flag it lists is known to
/// the parser (a missing operand is a one-line exit 2 naming the flag),
/// and every flag README.md shows on an `anc ...` line is listed.
#[test]
fn help_is_the_flag_table() {
    for name in COMMANDS {
        let flags = help_flags(name);
        assert!(!flags.is_empty(), "anc {name} --help lists no flags");
        for valued in flags.iter().filter(|f| f.contains(' ')) {
            let flag = valued.split(' ').next().unwrap();
            let out = anc()
                .args(name.split_whitespace())
                .arg(flag)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "anc {name} {flag}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(stderr.lines().count(), 1, "anc {name} {flag}: {stderr}");
            assert!(stderr.contains(flag), "anc {name} {flag}: {stderr}");
        }
    }

    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
    // Join `\`-continued lines, keep what is inside fenced blocks.
    let readme = readme.unwrap().replace("\\\n", " ");
    let fenced = readme.split("```").skip(1).step_by(2);
    let mut checked = 0;
    for line in fenced.flat_map(str::lines) {
        let line = line.trim_start_matches("$ ").split(" #").next().unwrap();
        let mut words = line.split_whitespace();
        if words.next() != Some("anc") {
            continue;
        }
        let words: Vec<&str> = words.collect();
        let name = words.first().filter(|w| COMMANDS.contains(w));
        let listed = help_flags(name.copied().unwrap_or(""));
        for flag in words.iter().filter(|w| w.starts_with("--")) {
            let flag = flag.split('=').next().unwrap();
            let known = |row: &String| row.split([' ', '[']).next() == Some(flag);
            assert!(listed.iter().any(known), "README: `{line}`: {flag}");
            checked += 1;
        }
    }
    assert!(checked >= 30, "README flag scan found only {checked} flags");
}
