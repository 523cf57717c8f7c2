//! Simulation statistics.

/// Per-processor counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Element accesses satisfied locally.
    pub local_accesses: u64,
    /// Element accesses that went over the network individually.
    pub remote_accesses: u64,
    /// Block-transfer messages issued.
    pub messages: u64,
    /// Bytes moved by block transfers.
    pub transfer_bytes: u64,
    /// Iterations of the (distributed) outer loop executed.
    pub outer_iterations: u64,
    /// Transfer attempts repeated after a drop or timeout (always zero
    /// outside fault-injected runs).
    pub retries: u64,
    /// Transfer attempts that timed out waiting on the interconnect
    /// (always zero outside fault-injected runs).
    pub timeouts: u64,
    /// Arithmetic operations executed (an ownership guard counts as
    /// one).
    pub ops: u64,
    /// Busy time in microseconds: [`MachineConfig::busy_us`] of the
    /// counters above, plus a fault-injected run's recovery surcharges.
    ///
    /// [`MachineConfig::busy_us`]: crate::MachineConfig::busy_us
    pub busy_us: f64,
}

impl ProcStats {
    /// Adds every counter of `other` into `self` (used when merging the
    /// per-segment results of a degraded run back onto the original
    /// processor ids).
    pub fn absorb(&mut self, other: &ProcStats) {
        self.local_accesses += other.local_accesses;
        self.remote_accesses += other.remote_accesses;
        self.messages += other.messages;
        self.transfer_bytes += other.transfer_bytes;
        self.outer_iterations += other.outer_iterations;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.ops += other.ops;
        self.busy_us += other.busy_us;
    }
}

/// Recovery accounting for a fault-injected run that the per-processor
/// counters do not already hold (retries and timeouts are their sums:
/// [`SimStats::total_retries`], [`SimStats::total_timeouts`]). All
/// fields are zero or empty for a fault-free simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Outer-loop iterations replayed because their owner died before
    /// finishing them.
    pub replayed_iterations: u64,
    /// Bytes moved re-homing distributed arrays onto the survivors.
    pub redistributed_bytes: u64,
    /// Processors lost to fail-stop faults (original ids, ascending).
    pub failed_procs: Vec<usize>,
}

/// Whole-machine simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Number of processors simulated.
    pub procs: usize,
    /// Completion time in microseconds: the maximum processor busy time
    /// (barrier at the end), or the sum when the outer loop carries a
    /// dependence and iterations serialize.
    pub time_us: f64,
    /// Per-processor counters.
    pub per_proc: Vec<ProcStats>,
    /// Recovery accounting (all zero for fault-free runs).
    pub faults: FaultStats,
}

impl SimStats {
    /// Total local accesses across processors.
    pub fn total_local(&self) -> u64 {
        self.per_proc.iter().map(|p| p.local_accesses).sum()
    }

    /// Total remote accesses across processors.
    pub fn total_remote(&self) -> u64 {
        self.per_proc.iter().map(|p| p.remote_accesses).sum()
    }

    /// Total block-transfer messages across processors.
    pub fn total_messages(&self) -> u64 {
        self.per_proc.iter().map(|p| p.messages).sum()
    }

    /// Total bytes moved by block transfers.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.transfer_bytes).sum()
    }

    /// Transfer retries across processors (drops, delays and failure
    /// detection all contribute).
    pub fn total_retries(&self) -> u64 {
        self.per_proc.iter().map(|p| p.retries).sum()
    }

    /// Timed-out transfer attempts across processors.
    pub fn total_timeouts(&self) -> u64 {
        self.per_proc.iter().map(|p| p.timeouts).sum()
    }

    /// Fraction of element accesses that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_local() + self.total_remote();
        if total == 0 {
            0.0
        } else {
            self.total_remote() as f64 / total as f64
        }
    }

    /// Load imbalance: max busy time over mean busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self
            .per_proc
            .iter()
            .map(|p| p.busy_us)
            .fold(0.0f64, f64::max);
        let mean: f64 = self.per_proc.iter().map(|p| p.busy_us).sum::<f64>()
            / self.per_proc.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = SimStats {
            procs: 2,
            time_us: 10.0,
            per_proc: vec![
                ProcStats {
                    local_accesses: 8,
                    remote_accesses: 2,
                    messages: 1,
                    transfer_bytes: 64,
                    outer_iterations: 3,
                    retries: 0,
                    timeouts: 0,
                    ops: 0,
                    busy_us: 10.0,
                },
                ProcStats {
                    local_accesses: 6,
                    remote_accesses: 4,
                    messages: 0,
                    transfer_bytes: 0,
                    outer_iterations: 3,
                    retries: 0,
                    timeouts: 0,
                    ops: 0,
                    busy_us: 5.0,
                },
            ],
            faults: FaultStats::default(),
        };
        assert_eq!(s.total_local(), 14);
        assert_eq!(s.total_remote(), 6);
        assert_eq!(s.total_messages(), 1);
        assert_eq!(s.total_transfer_bytes(), 64);
        assert!((s.remote_fraction() - 0.3).abs() < 1e-12);
        assert!((s.imbalance() - 10.0 / 7.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats {
            procs: 0,
            time_us: 0.0,
            per_proc: vec![],
            faults: FaultStats::default(),
        };
        assert_eq!(s.remote_fraction(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = ProcStats {
            local_accesses: 1,
            remote_accesses: 2,
            messages: 3,
            transfer_bytes: 4,
            outer_iterations: 5,
            retries: 6,
            timeouts: 7,
            ops: 9,
            busy_us: 8.0,
        };
        a.absorb(&a.clone());
        assert_eq!(a.local_accesses, 2);
        assert_eq!(a.remote_accesses, 4);
        assert_eq!(a.messages, 6);
        assert_eq!(a.transfer_bytes, 8);
        assert_eq!(a.outer_iterations, 10);
        assert_eq!(a.retries, 12);
        assert_eq!(a.timeouts, 14);
        assert_eq!(a.ops, 18);
        assert_eq!(a.busy_us, 16.0);
    }
}
