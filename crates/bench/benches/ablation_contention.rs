//! Experiment E8: the long-messages-vs-contention trade-off (paper §1,
//! citing Agarwal). Sweeps the contention model and the transfer size to
//! show (a) contention hurts per-element remote traffic far more than it
//! hurts block transfers, and (b) long messages stay profitable even
//! when per-byte contention inflation is turned on.

use an_bench::{paper_variants, verdict};
use an_numa::{simulate, ContentionModel, MachineConfig};

fn main() -> std::process::ExitCode {
    let n: i64 = 200;
    let b: i64 = 50;
    let src = an_bench::syr2k_source(n, b);
    let (variants, _) = paper_variants(&src, "syr2k");
    let params = [n, b];
    let procs = 16;

    println!("=== contention sweep: banded SYR2K, P = {procs}, N = {n}, b = {b} ===");
    println!(
        "{:>7} {:>7} {:>12} {:>12} {:>12}   {:>9}",
        "alpha", "beta", "syr2k", "syr2kT", "syr2kB", "B/T gain"
    );
    let mut gains = Vec::new();
    for (alpha, beta) in [(0.0, 0.0), (0.5, 0.05), (1.0, 0.1), (2.0, 0.25)] {
        let mut machine = MachineConfig::butterfly_gp1000();
        machine.contention = if alpha == 0.0 {
            ContentionModel::None
        } else {
            ContentionModel::Linear { alpha, beta }
        };
        let base = simulate(&variants[0].spmd, &machine, 1, &params)
            .unwrap()
            .time_us;
        let speed: Vec<f64> = variants
            .iter()
            .map(|v| base / simulate(&v.spmd, &machine, procs, &params).unwrap().time_us)
            .collect();
        let gain = speed[2] / speed[1];
        gains.push((alpha, gain));
        println!(
            "{alpha:>7.2} {beta:>7.2} {:>12.2} {:>12.2} {:>12.2}   {gain:>9.2}",
            speed[0], speed[1], speed[2]
        );
    }

    // Claims: block transfers help at every contention level, and help
    // *more* as contention grows (they shield the per-element traffic).
    verdict(
        "block transfers help at every contention level",
        gains.iter().all(|(_, g)| *g > 1.0),
    );
    verdict(
        "the block-transfer advantage grows with contention",
        gains.windows(2).all(|w| w[1].1 >= w[0].1 * 0.99),
    );

    // Secondary sweep: per-byte inflation alone (the Agarwal concern that
    // long messages increase latency) — the paper argues amortization
    // still wins on real machines.
    println!("\n=== per-byte inflation sweep (alpha = 0.5 fixed) ===");
    println!(
        "{:>7} {:>12} {:>12}   {:>9}",
        "beta", "syr2kT", "syr2kB", "B/T"
    );
    let mut still_wins = true;
    for beta in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let mut machine = MachineConfig::butterfly_gp1000();
        machine.contention = ContentionModel::Linear { alpha: 0.5, beta };
        let base = simulate(&variants[0].spmd, &machine, 1, &params)
            .unwrap()
            .time_us;
        let t = base
            / simulate(&variants[1].spmd, &machine, procs, &params)
                .unwrap()
                .time_us;
        let bb = base
            / simulate(&variants[2].spmd, &machine, procs, &params)
                .unwrap()
                .time_us;
        if bb < t {
            still_wins = false;
        }
        println!("{beta:>7.2} {t:>12.2} {bb:>12.2}   {:>9.2}", bb / t);
    }
    verdict(
        "long messages beat per-element access even with 2x per-byte inflation",
        still_wins,
    );
    an_bench::exit_code()
}
