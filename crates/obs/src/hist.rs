//! HDR-style log-linear histogram over `u64` values.
//!
//! Layout for `sub_bits = B`:
//!
//! * values `v < 2^B` land in exact unit buckets `[0, 2^B)`;
//! * for `k ≥ 0`, the range `[2^(B+k), 2^(B+k+1))` is split into
//!   `2^(B-1)` sub-buckets of width `2^(k+1)`.
//!
//! Every bucket's width is at most `2^(1-B)` of its lower bound, so a
//! quantile query — which returns the containing bucket's inclusive upper
//! bound — never under-reports and over-reports by at most that relative
//! error (plus nothing at all in the exact region). Two histograms with the
//! same `sub_bits` merge by adding slot counts, which preserves quantile
//! error bounds exactly; this is what lets per-replica phase timers be
//! combined into one cluster-wide distribution.

/// Default sub-bucket resolution: 1/64 (≈1.6%) relative quantile error.
pub const DEFAULT_SUB_BITS: u32 = 7;

/// A mergeable log-linear histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

// A summary, not the raw slot array — the latter is thousands of mostly
// zero counts and drowns any assertion message embedding a histogram.
impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.50))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

impl Histogram {
    /// A histogram at the default resolution (`DEFAULT_SUB_BITS`).
    pub fn new() -> Histogram {
        Histogram::with_sub_bits(DEFAULT_SUB_BITS)
    }

    /// A histogram with `2^(sub_bits-1)` sub-buckets per power of two.
    /// `sub_bits` must be in `2..=16` (memory is `O(2^sub_bits)` slots).
    pub fn with_sub_bits(sub_bits: u32) -> Histogram {
        assert!((2..=16).contains(&sub_bits), "sub_bits out of range");
        let sub = 1usize << sub_bits;
        let slots = sub + (64 - sub_bits as usize) * (sub / 2);
        Histogram {
            sub_bits,
            counts: vec![0; slots],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The resolution this histogram was built with.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// Worst-case relative over-estimate of a quantile query: `2^(1-sub_bits)`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << (self.sub_bits - 1)) as f64
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact; the sum is kept at full width).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Records one sample. O(1).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`. O(1).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.index_of(v);
        self.counts[i] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128 * n as u128;
    }

    /// Adds every sample of `other` into `self`. Both histograms must share
    /// the same `sub_bits`.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge histograms of different resolution"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// The value at quantile `q ∈ [0, 1]`: the inclusive upper bound of the
    /// bucket containing the sample of rank `ceil(q · count)` (rank 1 for
    /// `q = 0`). Returns 0 when empty. The result is ≥ the true order
    /// statistic and ≤ `true · (1 + relative_error_bound())`; for values in
    /// the top power-of-two range the bound saturates at `u64::MAX`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Never report a bound outside the observed range.
                return self.slot_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Iterates non-empty buckets as `(inclusive upper bound, count)`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.slot_upper(i), c))
    }

    fn index_of(&self, v: u64) -> usize {
        let b = self.sub_bits;
        let sub = 1u64 << b;
        if v < sub {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as u64; // e >= b
        let k = e - b as u64;
        let half = sub / 2;
        let offset = (v - (1u64 << e)) >> (k + 1);
        (sub + k * half + offset) as usize
    }

    fn slot_upper(&self, i: usize) -> u64 {
        let b = self.sub_bits;
        let sub = 1usize << b;
        if i < sub {
            return i as u64; // exact region: bucket == value
        }
        let half = (sub / 2) as u64;
        let k = (i - sub) as u64 / half;
        let off = (i - sub) as u64 % half;
        let base = 1u128 << (b as u64 + k);
        let upper = base + ((off as u128 + 1) << (k + 1)) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.value_at_quantile(1.0), 0);
    }

    #[test]
    fn single_value_every_quantile_is_that_value() {
        let mut h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), 42);
        }
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = Histogram::new();
        for v in 0..128 {
            h.record(v);
        }
        // Unit buckets below 2^7: quantiles are exact order statistics.
        assert_eq!(h.value_at_quantile(0.5), 63);
        assert_eq!(h.value_at_quantile(1.0), 127);
        assert_eq!(h.value_at_quantile(0.0), 0);
    }

    #[test]
    fn saturating_record_near_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // The top bucket's upper bound saturates instead of wrapping, and the
        // query clamps to the observed max.
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        assert!(h.value_at_quantile(0.01) >= 1u64 << 63);
    }

    #[test]
    fn quantile_bound_holds_for_log_region() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| 1_000 + i * 977).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let eps = h.relative_error_bound();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = h.value_at_quantile(q);
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(
                got as f64 <= exact as f64 * (1.0 + eps) + 1.0,
                "q={q}: {got} exceeds error bound over {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut all = Histogram::new();
        let mut parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for i in 0..10_000u64 {
            let v = i.wrapping_mul(2_654_435_761) % 5_000_000;
            all.record(v);
            parts[(i % 4) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
    }

    #[test]
    #[should_panic(expected = "different resolution")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = Histogram::with_sub_bits(7);
        let b = Histogram::with_sub_bits(8);
        a.merge(&b);
    }
}
