//! Dependency-free structured parallelism for the access-normalization
//! toolchain.
//!
//! The distribution search and the sweep fan out over independent
//! pricings (distribution assignments, sweep grid points); one pricing
//! call runs serially. This crate provides the one primitive they need — an
//! order-preserving parallel map with an explicit job count — built on
//! [`std::thread::scope`], so it works in the dependency-free build this
//! workspace requires (no rayon available offline).
//!
//! Determinism contract: `par_map_indexed(n, jobs, f)` returns exactly
//! `(0..n).map(f).collect()` for every `jobs` value. Work is distributed
//! dynamically (an atomic cursor, so cheap and expensive items balance),
//! but results are written into their own index slot, so the output
//! order — and therefore any fold a caller performs over it — is
//! independent of scheduling.
//!
//! ```
//! let squares = an_par::par_map_indexed(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a user-facing job count: `0` means "use all available host
/// parallelism", anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// The number of threads, the caller included, worth running for `n`
/// items under a requested job count (never more threads than items).
fn effective_jobs(jobs: usize, n: usize) -> usize {
    resolve_jobs(jobs).min(n).max(1)
}

/// Maps `f` over `0..n` with up to `jobs` threads (0 = auto), the
/// calling one among them, returning results in index order.
///
/// Items are claimed dynamically from a shared atomic cursor, so uneven
/// per-item costs still balance. The output is identical — element for
/// element — to the serial `(0..n).map(f).collect()`.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
    };
    // The calling thread claims items too: `jobs − 1` spawns, not `jobs`.
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(claim);
        }
        claim();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed")
        })
        .collect()
}

/// Maps `f` over a slice with up to `jobs` threads (0 = auto), returning
/// results in input order. See [`par_map_indexed`] for the determinism
/// contract.
pub fn par_map<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(items.len(), jobs, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn matches_serial_for_every_job_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            assert_eq!(par_map_indexed(37, jobs, |i| i * 3 + 1), expected);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 9), vec![9]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indexed(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn slice_variant_preserves_order() {
        let items = vec!["a", "bb", "ccc"];
        assert_eq!(par_map(&items, 2, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
