//! Experiment E7: the machine constants of §1/§8 and the block-transfer
//! break-even analysis they imply.
//!
//! Regenerates the latency table (local 0.6 µs / remote 6.6 µs on the
//! GP-1000; 70 µs startup + 1 µs/double on the iPSC/i860) and prints the
//! message size at which one block transfer beats per-element remote
//! access — the quantitative basis of the paper's "use one long message"
//! argument.

use an_bench::verdict;
use an_numa::MachineConfig;

fn break_even_elements(m: &MachineConfig, procs: usize) -> i64 {
    // Smallest k with transfer_cost(k) < k * remote_effective.
    (1..100_000)
        .find(|&k| m.transfer_cost(k, procs) < k as f64 * m.remote_effective(procs))
        .unwrap_or(i64::MAX)
}

fn main() -> std::process::ExitCode {
    println!("=== machine profiles (paper §1 and §8) ===");
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>12}",
        "machine", "local µs", "remote µs", "startup µs", "µs/byte"
    );
    for m in [
        MachineConfig::butterfly_gp1000(),
        MachineConfig::ipsc_i860(),
    ] {
        println!(
            "{:<24} {:>10.2} {:>10.2} {:>12.2} {:>12.3}",
            m.name, m.local_access, m.remote_access, m.transfer_startup, m.transfer_per_byte
        );
    }

    println!("\n=== remote/local latency ratios ===");
    let gp = MachineConfig::butterfly_gp1000();
    let ipsc = MachineConfig::ipsc_i860();
    println!(
        "GP-1000: {:.1}x    iPSC/i860: {:.0}x",
        gp.remote_access / gp.local_access,
        ipsc.remote_access / ipsc.local_access
    );

    println!("\n=== block-transfer break-even (elements) ===");
    println!("{:<24} {:>8} {:>8} {:>8}", "machine", "P=2", "P=8", "P=28");
    for m in [&gp, &ipsc] {
        println!(
            "{:<24} {:>8} {:>8} {:>8}",
            m.name,
            break_even_elements(m, 2),
            break_even_elements(m, 8),
            break_even_elements(m, 28)
        );
    }

    // The paper's published constants.
    verdict("GP-1000 local = 0.6 µs", gp.local_access == 0.6);
    verdict(
        "GP-1000 remote = 6.6 µs (unloaded)",
        gp.remote_effective(1) == 6.6,
    );
    verdict(
        "GP-1000 transfer = 8 µs + 0.31 µs/byte",
        gp.transfer_startup == 8.0 && gp.transfer_per_byte == 0.31,
    );
    verdict(
        "iPSC startup 70 µs, 1 µs per double",
        ipsc.transfer_startup == 70.0 && (ipsc.transfer_per_byte * 8.0 - 1.0).abs() < 1e-12,
    );
    verdict(
        "a handful of elements amortize the GP-1000 startup",
        break_even_elements(&gp, 8) <= 8,
    );
    an_bench::exit_code()
}
