//! Log-bucketed histogram with bracketed quantile queries.
//!
//! Values are `u64` (cycles, hops, message counts). Buckets are
//! log-linear: values below 8 get exact unit buckets; above that each
//! power-of-two octave is split into 8 equal sub-buckets (3 significant
//! bits), so the relative bucket width never exceeds 12.5%. The whole
//! `u64` range fits in 496 fixed buckets — recording is O(1), no
//! allocation, no samples kept.
//!
//! Quantile queries return the bucket that contains the requested order
//! statistic. [`Histogram::quantile_bounds`] returns the bucket edges
//! (clamped to the observed min/max), so the true order statistic is
//! **always** inside the returned interval — the property test in the
//! workspace `tests/properties.rs` proves this against exact order
//! statistics. [`Histogram::quantile`] returns the upper edge: a
//! conservative (never under-reporting) latency estimate.

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS; // 8 sub-buckets per octave
const NUM_BUCKETS: usize = SUB as usize + 61 * SUB as usize; // 496

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        SUB as usize + octave * SUB as usize + sub
    }
}

fn bucket_bounds(i: usize) -> (u64, u64) {
    let s = SUB as usize;
    if i < s {
        (i as u64, i as u64)
    } else {
        let octave =
            u32::try_from((i - s) / s).expect("invariant: bucket count is a small constant");
        let sub = ((i - s) % s) as u64;
        let base = 1u64 << (octave + SUB_BITS);
        let width = 1u64 << octave;
        let lo = base + sub * width;
        (lo, lo + (width - 1))
    }
}

/// The standard latency summary: median, tail quantiles, max.
///
/// `p50`/`p95`/`p99` are conservative upper estimates (the upper edge of
/// the bucket holding the order statistic, clamped to the observed max);
/// `max` is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median (upper bucket edge).
    pub p50: u64,
    /// 95th percentile (upper bucket edge).
    pub p95: u64,
    /// 99th percentile (upper bucket edge).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, 0.0 if empty.
    // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
            0.0
        } else {
            // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
            self.sum as f64 / self.count as f64
        }
    }

    /// Bracketing interval `(lo, hi)` for the `q`-quantile
    /// (`0.0 < q <= 1.0`): the true order statistic of rank
    /// `ceil(q * count)` lies in `lo..=hi`. `None` if empty.
    // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
        let q = q.clamp(0.0, 1.0);
        // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        // Unreachable: seen reaches self.count.
        Some((self.min, self.max))
    }

    /// Conservative upper estimate of the `q`-quantile (upper edge of
    /// the bracketing bucket). `None` if empty.
    // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// The standard p50/p95/p99/max summary. `None` if empty.
    pub fn quantiles(&self) -> Option<Quantiles> {
        Some(Quantiles {
            // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
            p50: self.quantile(0.50)?,
            // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
            p95: self.quantile(0.95)?,
            // analyze: allow(float-determinism, quantile math over exact integer buckets; display only)
            p99: self.quantile(0.99)?,
            max: self.max()?,
        })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut prev = 0usize;
        for v in 0..10_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
        // Spot-check the extremes.
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert!(lo <= hi);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile_bounds(0.5), Some((2, 2)));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn quantiles_bracket_true_order_statistics() {
        // Deterministic xorshift so the test runs without external deps;
        // the workspace-level proptest covers arbitrary sample sets.
        let mut x = 0x243F6A8885A308D3u64;
        let mut samples = Vec::new();
        let mut h = Histogram::new();
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_003;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: {truth} not in [{lo}, {hi}]"
            );
            // Log-linear buckets: relative width <= 12.5%.
            assert!((hi - lo) as f64 <= 0.125 * lo.max(1) as f64 + 1.0);
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
            all.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantiles(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn max_is_exact_in_summary() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        h.record(3);
        let q = h.quantiles().unwrap();
        assert_eq!(q.max, 1_000_000);
        assert!(q.p50 >= 3);
    }
}
