//! Interference correction for CPU-bound timings.
//!
//! The sandbox is a small VM on a shared host. When a neighbour is busy
//! on the same core, instruction-dense code (allocation, the compiler)
//! runs up to 1.8x slower, in bursts that last from under a millisecond
//! to tens of seconds, while pointer chasing and dependent arithmetic
//! barely notice. What a later change must be compared against is the
//! time on the undisturbed machine.
//!
//! So a fixed reference loop of the same character (small allocations,
//! stores, frees) is timed after every operation of a CPU-bound
//! workload, for 2 % of the operation's own time, on the same thread.
//! A round's timings are multiplied by `nominal probe / mean probe of
//! the round`, where the nominal probe is the 5th percentile of all
//! probes of the run — the reference loop's cost when nothing
//! interferes. On a quiet machine the factor is within a few percent of
//! 1 and a reported microsecond is a wall microsecond; under
//! interference a round and its probes slow down together and the
//! factor takes the slowdown back out.
//!
//! Measured where the benchmark was defined, ten runs each, spread =
//! inter-quartile distance over median, in a noisy hour: `check_corpus`
//! `ops_per_s` 16 % uncorrected and 4 % corrected, `compile_corpus`
//! `op_p50_us` 4.4 % and 1.2 %, `search_deep` `ops_per_s` 11 % and
//! 11 % (a two-thread search is slowed by what happens on both cores
//! while it runs, which a probe after it only half sees). In a quiet
//! hour corrected and uncorrected spreads are the same 2-5 %. A
//! background sampler on a timer was tried instead: it tracks the
//! search better and everything else worse, and adds noise of its own
//! when the machine is quiet.

use crate::stats::quantile;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the reference loop per probe (about 80 µs in all).
const REPS: u32 = 40;
/// Probing after an operation goes on until it has taken this share of
/// the operation's own time, so long operations are sampled as densely
/// as short ones.
const PROBE_SHARE: f64 = 0.02;

#[derive(Debug, Default)]
pub struct Calibrator {
    /// Every probe of the run, in seconds per repetition.
    samples: Vec<f64>,
}

impl Calibrator {
    /// Times the reference loop once; seconds per repetition.
    fn probe(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..REPS {
            let rows: Vec<Vec<u64>> = (0..50).map(|i| vec![i; 20]).collect();
            black_box(rows);
        }
        let seconds = started.elapsed().as_secs_f64() / f64::from(REPS);
        self.samples.push(seconds);
        seconds
    }

    /// Probes after an operation that took `op_seconds`; returns the
    /// sum and the count of the probes taken.
    pub fn probe_after(&mut self, op_seconds: f64) -> (f64, usize) {
        let (mut sum, mut count, mut spent) = (0.0, 0, 0.0);
        while count == 0 || spent < op_seconds * PROBE_SHARE {
            let one = self.probe();
            sum += one;
            count += 1;
            spent += one * f64::from(REPS);
        }
        (sum, count)
    }

    /// The reference loop's undisturbed cost: the 5th percentile of the
    /// run's probes. (The minimum is an outlier of the allocator's own
    /// state, well below the typical quiet probe; the 5th percentile
    /// sits inside the quiet cluster as long as a twentieth of the run
    /// was quiet.)
    pub fn nominal(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(quantile(&sorted, 0.05))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_a_low_quantile_of_the_probes() {
        let mut c = Calibrator::default();
        assert_eq!(c.nominal(), None);
        c.samples = (1..=101).map(f64::from).collect();
        assert_eq!(c.nominal(), Some(6.0));
    }

    #[test]
    fn long_operations_get_more_probes() {
        let mut c = Calibrator::default();
        let (_, short) = c.probe_after(0.0);
        let (sum, long) = c.probe_after(0.05);
        assert_eq!(short, 1);
        assert!(long > 1 && sum > 0.0);
        assert_eq!(c.samples.len(), short + long);
    }
}
