//! Determinism contracts of the two fan-outs over independent pricings:
//! thread count must never change a result — not the ranking of a
//! distribution search, not a single bit of a sweep point.

use access_normalization::autodist::{search_report, AutoDistOptions};
use access_normalization::model::model_stats;
use access_normalization::numa::{simulate, sweep, MachineConfig, SweepConfig};
use access_normalization::{compile, CompileOptions};

const GEMM: &str = "param N = 40;
    array C[N, N] distribute wrapped(0);
    array A[N, N] distribute wrapped(0);
    array B[N, N] distribute wrapped(0);
    for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
        C[i, j] = C[i, j] + A[i, k] * B[k, j];
    } } }";

#[test]
fn search_ranking_is_independent_of_jobs() {
    let program = access_normalization::lang::parse(GEMM).unwrap();
    let machine = MachineConfig::butterfly_gp1000();
    let mk = |jobs| AutoDistOptions {
        procs: 8,
        allow_replication: true,
        jobs,
        top_k: 4,
        ..AutoDistOptions::default()
    };
    let serial = search_report(&program, &machine, &mk(1)).unwrap();
    assert!(!serial.ranking.is_empty());
    for jobs in [0usize, 2, 4, 7] {
        let par = search_report(&program, &machine, &mk(jobs)).unwrap();
        assert_eq!(par.ranking.len(), serial.ranking.len(), "jobs={jobs}");
        for (a, b) in par.ranking.iter().zip(&serial.ranking) {
            assert_eq!(a.assignment, b.assignment, "jobs={jobs}");
            assert_eq!(
                a.predicted_time_us.to_bits(),
                b.predicted_time_us.to_bits(),
                "jobs={jobs}: {} vs {}",
                a.predicted_time_us,
                b.predicted_time_us
            );
        }
        assert_eq!(par.skipped, serial.skipped);
        assert_eq!(par.evaluated, serial.evaluated);
        for (a, b) in par.candidates.iter().zip(&serial.candidates) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.compiled.spmd, b.compiled.spmd, "jobs={jobs}");
        }
    }
}

#[test]
fn sweep_reports_are_independent_of_jobs() {
    let machines = [
        MachineConfig::butterfly_gp1000(),
        MachineConfig::ipsc_i860(),
    ];
    let mk = |jobs| SweepConfig {
        procs: vec![1, 4, 9, 16],
        param_sets: vec![vec![40], vec![24]],
        jobs,
        tracer: None,
    };
    let compiled = compile(GEMM, &CompileOptions::default()).unwrap();
    let spmd = &compiled.spmd;
    let by_sim = |jobs| sweep(&machines, &mk(jobs), |m, p, ps| simulate(spmd, m, p, ps));
    let by_model = |jobs| sweep(&machines, &mk(jobs), |m, p, ps| model_stats(spmd, m, p, ps));
    let (sim, model) = (by_sim(1).unwrap(), by_model(1).unwrap());
    assert_eq!(sim.points.len(), 2 * 4 * 2);
    for jobs in [0usize, 3, 5] {
        assert_eq!(by_sim(jobs).unwrap().points, sim.points, "sim, jobs={jobs}");
        assert_eq!(
            by_model(jobs).unwrap().points,
            model.points,
            "model, jobs={jobs}"
        );
    }
}

/// Everything `--autodist` prints is a function of the input: apart
/// from the `N workers` token of the header, stdout is byte-identical
/// for any `--jobs` — the `pipeline cache H/L hits` line included, whose
/// counters must not depend on which worker won a race for a key.
#[test]
fn autodist_stdout_is_byte_identical_for_any_jobs() {
    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
            .args(["--autodist", "8", "--jobs", jobs])
            .arg(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/examples/kernels/syr2k.an"
            ))
            .output()
            .unwrap();
        assert!(out.status.success(), "jobs={jobs}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let workers = format!(", {jobs} workers) ==");
        assert_eq!(stdout.matches(&workers).count(), 1, "{stdout}");
        stdout.replacen(&workers, ", N workers) ==", 1)
    };
    let serial = run("1");
    assert!(serial.contains(", pipeline cache "), "{serial}");
    for attempt in 0..5 {
        assert_eq!(run("8"), serial, "--jobs 8, run {attempt}");
    }
}
