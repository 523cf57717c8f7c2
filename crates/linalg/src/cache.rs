//! Content-keyed memoization for the expensive exact-arithmetic kernels.
//!
//! Candidate search in `an-autodist` and grid sweeps in `an-numa` run the
//! normalization pipeline many times over programs that differ only in
//! their distribution annotations, so the integer-linear-algebra heavy
//! steps — basis extraction over the access matrix, the `LegalInvt`
//! projection, Fourier–Motzkin bound derivation — see the *same* matrix
//! inputs over and over. [`MemoCache`] is a small thread-safe map from
//! input contents to computed results, with hit/miss counters so callers
//! can report cache effectiveness ([`CacheStats`]).
//!
//! Keys hash with [`FxHasher`], a multiplicative word-at-a-time hasher in
//! the style of the `fxhash`/`rustc-hash` crates (vendored here: the
//! workspace builds offline). It is not DoS-resistant, which is fine —
//! keys are matrices produced by the compiler itself, never attacker
//! chosen — and it is several times faster than SipHash on the short
//! integer sequences `Matrix::hash` emits.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A fast, non-cryptographic hasher for compiler-internal keys
/// (multiplicative mixing, as in `rustc-hash`).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-backed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hit/miss counters of a [`MemoCache`] (or several, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache, or computed only to find another
    /// thread's value already stored.
    pub hits: u64,
    /// Lookups that computed and stored the result: one per distinct key.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} hits ({:.1}%)",
            self.hits,
            self.lookups(),
            self.hit_rate() * 100.0
        )
    }
}

/// A thread-safe memoization table from key contents to computed values.
///
/// Sharing is by `&MemoCache` (interior mutability): thread one through a
/// parallel search and every worker benefits from every other worker's
/// computations. The map lock is *not* held while the compute closure
/// runs, so concurrent misses on different keys do not serialize; two
/// threads racing on the *same* key may both compute, and the first
/// insertion wins (results must be deterministic functions of the key,
/// so either copy is correct) and is the one counted as the miss.
pub struct MemoCache<K, V> {
    map: Mutex<FxHashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        MemoCache {
            map: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<K, V> MemoCache<K, V> {
    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<K: Hash + Eq, V: Clone> MemoCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `key`, computing and storing it with
    /// `compute` on a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.get_or_insert_traced(key, None, "", compute)
    }

    /// [`MemoCache::get_or_insert_with`], additionally emitting a
    /// `CacheHit`/`CacheMiss` event labelled `label` on `tracer`.
    ///
    /// Only pass a tracer from single-threaded (coordinator) lookups:
    /// two workers racing the same key *both* emit `CacheMiss` (only the
    /// counters settle a race, see `concurrent_use_is_consistent`),
    /// which would make traced event streams scheduler-dependent.
    pub fn get_or_insert_traced(
        &self,
        key: K,
        tracer: Option<&an_obs::Tracer>,
        label: &str,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.map.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = tracer {
                t.emit(an_obs::EventKind::CacheHit {
                    cache: label.to_string(),
                });
            }
            return v.clone();
        }
        // Compute outside the lock: misses on distinct keys overlap.
        if let Some(t) = tracer {
            t.emit(an_obs::EventKind::CacheMiss {
                cache: label.to_string(),
            });
        }
        let v = compute();
        // Counted when the insert lands, not before computing: of the
        // workers racing one key only the one whose value is stored had
        // the miss, and a lost race is the hit it would have been a
        // moment later. So hits = lookups − distinct keys on every
        // schedule, and what callers print does not depend on `--jobs`.
        match self.map.lock().expect("cache poisoned").entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(v.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Entry::Occupied(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        v
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IMatrix;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: MemoCache<i64, i64> = MemoCache::new();
        assert_eq!(cache.get_or_insert_with(3, || 9), 9);
        assert_eq!(cache.get_or_insert_with(3, || unreachable!()), 9);
        assert_eq!(cache.get_or_insert_with(4, || 16), 16);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(cache.len(), 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_keys_distinguish_contents() {
        let cache: MemoCache<IMatrix, i64> = MemoCache::new();
        let a = IMatrix::from_rows(&[&[1, 0], &[0, 1]]);
        let b = IMatrix::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(cache.get_or_insert_with(a.clone(), || 1), 1);
        assert_eq!(cache.get_or_insert_with(b, || 2), 2);
        assert_eq!(cache.get_or_insert_with(a, || unreachable!()), 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..100u64 {
                        assert_eq!(cache.get_or_insert_with(k, || k * k), k * k);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
        // Racing threads may each compute the same key, but only the
        // insert that lands counts as a miss: one per distinct key.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (300, 100));
    }

    #[test]
    fn stats_sum() {
        let a = CacheStats { hits: 3, misses: 1 };
        let b = CacheStats { hits: 1, misses: 5 };
        assert_eq!(a + b, CacheStats { hits: 4, misses: 6 });
        assert_eq!(format!("{a}"), "3/4 hits (75.0%)");
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
