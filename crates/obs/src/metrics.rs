//! Monotonic counters and fixed-bucket histograms.
//!
//! Both are commutative sums, so their final values do not depend on
//! the order in which parallel sections update them — the one form of
//! instrumentation that is safe to touch from worker threads without
//! breaking the `--jobs` determinism contract. Snapshots render sorted
//! by name.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Histogram bucket upper bounds (inclusive), fixed for every
/// histogram so traces from different runs and machines are
/// comparable. A final implicit overflow bucket catches values above
/// the last bound.
pub const BUCKET_BOUNDS: [u64; 14] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536, 1048576,
];

/// Immutable view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `counts[i]` pairs with `BUCKET_BOUNDS[i]`,
    /// and the final element is the overflow bucket.
    pub counts: Vec<u64>,
    /// Number of observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`q` in `0.0..=1.0`):
    /// the smallest bucket bound whose cumulative count covers
    /// `q * total` observations. Values landing in the overflow bucket
    /// report `2 * BUCKET_BOUNDS.last()` — a saturation marker, not a
    /// measurement. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            if cumulative >= target {
                return match BUCKET_BOUNDS.get(i) {
                    Some(&bound) => bound,
                    None => BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] * 2,
                };
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] * 2
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Registry of named counters and histograms. Embedded in every
/// [`crate::Tracer`]; snapshot alongside the event log.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        // Look up by `&str` first: the common repeat-update case must
        // not allocate a fresh key String on every call.
        if let Some(v) = inner.counters.get_mut(name) {
            *v += delta;
        } else {
            inner.counters.insert(name.to_string(), delta);
        }
    }

    /// Increment counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Record one observation of `value` in histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        if !inner.histograms.contains_key(name) {
            inner.histograms.insert(
                name.to_string(),
                HistogramSnapshot {
                    counts: vec![0; BUCKET_BOUNDS.len() + 1],
                    total: 0,
                    sum: 0,
                },
            );
        }
        let h = inner.histograms.get_mut(name).expect("just inserted");
        let bucket = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        h.counts[bucket] += 1;
        h.total += 1;
        h.sum += value;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics lock");
        inner
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let inner = self.inner.lock().expect("metrics lock");
        inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let m = Metrics::new();
        m.add("b.second", 2);
        m.inc("a.first");
        m.inc("a.first");
        assert_eq!(m.counter("a.first"), 2);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<_> = m.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a.first", "b.second"]);
    }

    #[test]
    fn histogram_buckets_values() {
        let m = Metrics::new();
        m.observe("h", 0);
        m.observe("h", 1); // bucket 0 (<= 1)
        m.observe("h", 3); // bucket 2 (<= 4)
        m.observe("h", 2_000_000); // overflow bucket
        let hs = m.histograms();
        assert_eq!(hs.len(), 1);
        let h = &hs[0].1;
        assert_eq!(h.total, 4);
        assert_eq!(h.sum, 2_000_004);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[BUCKET_BOUNDS.len()], 1);
    }

    #[test]
    fn quantiles_walk_bucket_bounds() {
        let m = Metrics::new();
        for v in 1..=100u64 {
            m.observe("lat", v);
        }
        let h = &m.histograms()[0].1;
        // 1..=100: half the observations are <= 64, so p50 lands on
        // the 64 bound; p99 needs 99 observations, covered by 128.
        assert_eq!(h.quantile(0.5), 64);
        assert_eq!(h.quantile(0.99), 128);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 128);

        let empty = HistogramSnapshot {
            counts: vec![0; BUCKET_BOUNDS.len() + 1],
            total: 0,
            sum: 0,
        };
        assert_eq!(empty.quantile(0.5), 0);

        let m2 = Metrics::new();
        m2.observe("big", 5_000_000);
        let h2 = &m2.histograms()[0].1;
        assert_eq!(h2.quantile(0.5), 2 * BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
    }

    #[test]
    fn order_independent_sums() {
        let a = Metrics::new();
        let b = Metrics::new();
        for v in [5u64, 9, 1, 300] {
            a.observe("h", v);
            a.add("c", v);
        }
        for v in [300u64, 1, 9, 5] {
            b.observe("h", v);
            b.add("c", v);
        }
        assert_eq!(a.histograms(), b.histograms());
        assert_eq!(a.counters(), b.counters());
    }
}
