//! Machine cost models.

use crate::stats::ProcStats;

/// Network contention model: inflates remote latency as a function of
/// the processor count. The paper (Section 1, citing Agarwal) notes that
/// long messages can increase contention; the knob lets benches explore
/// that trade-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionModel {
    /// No contention: latencies are the unloaded values.
    None,
    /// Remote latency multiplied by `1 + alpha · (P − 1) / P`; block
    /// transfer per-byte time additionally multiplied by
    /// `1 + beta · (P − 1) / P` (long messages hold links longer).
    Linear {
        /// Remote-access inflation factor.
        alpha: f64,
        /// Block-transfer per-byte inflation factor.
        beta: f64,
    },
}

/// Cost parameters of a simulated NUMA machine. All times in
/// microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name.
    pub name: String,
    /// Cost of one local element access.
    pub local_access: f64,
    /// Cost of one remote element access (unloaded).
    pub remote_access: f64,
    /// Startup cost of one block transfer.
    pub transfer_startup: f64,
    /// Per-byte cost of a block transfer.
    pub transfer_per_byte: f64,
    /// Bytes per array element (8 for double precision).
    pub element_bytes: f64,
    /// Cost of one arithmetic operation in the loop body.
    pub compute_per_op: f64,
    /// Contention model.
    pub contention: ContentionModel,
}

impl MachineConfig {
    /// The BBN Butterfly GP-1000 profile from the paper's Section 8:
    /// 0.6 µs local, 6.6 µs remote, 8 µs + 0.31 µs/byte block transfers.
    ///
    /// The 6.6 µs remote figure is the *unloaded* latency ("in the
    /// absence of contention in the network", §8); with many processors
    /// issuing remote references the switch saturates, which the paper
    /// leans on in §1 (citing Agarwal). The default profile therefore
    /// carries a mild linear contention term; set
    /// [`ContentionModel::None`] to study the unloaded machine (the
    /// contention ablation bench does both).
    pub fn butterfly_gp1000() -> MachineConfig {
        MachineConfig {
            name: "BBN Butterfly GP-1000".to_string(),
            local_access: 0.6,
            remote_access: 6.6,
            transfer_startup: 8.0,
            transfer_per_byte: 0.31,
            element_bytes: 8.0,
            // MC68020-class node: a floating-point operation costs a few
            // microseconds, comparable to a handful of local accesses.
            compute_per_op: 2.0,
            contention: ContentionModel::Linear {
                alpha: 0.5,
                beta: 0.05,
            },
        }
    }

    /// The Intel iPSC/i860 profile from the paper's Section 1: 70 µs
    /// communication startup, then 1 µs per double between neighbors.
    /// A remote element access is a tiny message (startup-dominated).
    pub fn ipsc_i860() -> MachineConfig {
        MachineConfig {
            name: "Intel iPSC/i860".to_string(),
            local_access: 0.1,
            remote_access: 71.0,
            transfer_startup: 70.0,
            transfer_per_byte: 0.125, // 1 µs per 8-byte double
            element_bytes: 8.0,
            compute_per_op: 0.05,
            contention: ContentionModel::None,
        }
    }

    /// The effective remote access latency at `p` processors.
    pub fn remote_effective(&self, procs: usize) -> f64 {
        match self.contention {
            ContentionModel::None => self.remote_access,
            ContentionModel::Linear { alpha, .. } => {
                let load = (procs.saturating_sub(1)) as f64 / procs.max(1) as f64;
                self.remote_access * (1.0 + alpha * load)
            }
        }
    }

    /// The effective block-transfer time per byte at `p` processors.
    pub fn per_byte(&self, procs: usize) -> f64 {
        match self.contention {
            ContentionModel::None => self.transfer_per_byte,
            ContentionModel::Linear { beta, .. } => {
                let load = (procs.saturating_sub(1)) as f64 / procs.max(1) as f64;
                self.transfer_per_byte * (1.0 + beta * load)
            }
        }
    }

    /// The effective block-transfer cost for `elements` elements at `p`
    /// processors.
    pub fn transfer_cost(&self, elements: i64, procs: usize) -> f64 {
        self.transfer_startup + self.per_byte(procs) * self.element_bytes * elements.max(0) as f64
    }

    /// The fault-free busy time of one processor's counters at `procs`
    /// processors: the one place a count becomes microseconds. Both
    /// evaluators only count, so equal counters give bit-equal times.
    pub fn busy_us(&self, s: &ProcStats, procs: usize) -> f64 {
        s.ops as f64 * self.compute_per_op
            + s.local_accesses as f64 * self.local_access
            + s.remote_accesses as f64 * self.remote_effective(procs)
            + s.messages as f64 * self.transfer_startup
            + s.transfer_bytes as f64 * self.per_byte(procs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gp1000_constants() {
        let m = MachineConfig::butterfly_gp1000();
        assert_eq!(m.local_access, 0.6);
        assert_eq!(m.remote_access, 6.6);
        // Unloaded (one processor): 8 µs startup + 100 doubles * 8 bytes
        // * 0.31 µs/byte, and the paper's 6.6 µs remote latency.
        let c = m.transfer_cost(100, 1);
        assert!((c - (8.0 + 800.0 * 0.31)).abs() < 1e-9);
        assert_eq!(m.remote_effective(1), 6.6);
    }

    #[test]
    fn contention_inflates_remote() {
        let mut m = MachineConfig::butterfly_gp1000();
        m.contention = ContentionModel::Linear {
            alpha: 1.0,
            beta: 0.5,
        };
        assert_eq!(m.remote_effective(1), 6.6);
        assert!(m.remote_effective(16) > 6.6);
        assert!(m.transfer_cost(10, 16) > m.transfer_cost(10, 1));
    }

    #[test]
    fn transfer_amortizes_startup() {
        // One 100-element transfer beats 100 remote accesses on the
        // GP-1000 — the paper's block-transfer argument.
        let m = MachineConfig::butterfly_gp1000();
        let bulk = m.transfer_cost(100, 8);
        let individual = 100.0 * m.remote_effective(8);
        assert!(bulk < individual);
        // But a 1-element transfer does not.
        assert!(m.transfer_cost(1, 8) > m.remote_effective(8));
    }
}
