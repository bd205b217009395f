//! Log-linear latency histogram.
//!
//! The evaluation (§6) reports average, standard deviation, 99th percentile
//! and maximum of change-notification latency. This histogram records values
//! in microseconds into log-linear buckets (16 linear sub-buckets per power
//! of two), giving ≤ ~6% relative quantile error over a 1 µs – 100 s range
//! with a few KiB of memory — the same trade-off HdrHistogram makes.

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 16
const MAX_EXP: u32 = 37; // covers > 100 s in microseconds
const BUCKETS: usize = ((MAX_EXP as usize) + 1) * SUB_BUCKETS;

/// Fixed-memory histogram of `u64` samples (microseconds by convention).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    sum_sq: f64,
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
        Self { counts: vec![0; BUCKETS], count: 0, sum: 0.0, sum_sq: 0.0, min: u64::MAX, max: 0 }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // floor(log2(value)) >= 4
        let exp = exp.min(MAX_EXP);
        let shifted = (value >> (exp - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
        (exp - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS + shifted
    }

    /// Representative (upper-bound) value of a bucket.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let tier = (index / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << tier;
        let step = base >> SUB_BUCKET_BITS;
        base + sub * step + step - 1
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.count += n;
        let v = value as f64;
        self.sum += v * n as f64;
        self.sum_sq += v * v * n as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact, tracked outside the buckets) —
    /// the `_sum` series of the Prometheus histogram exposition.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact, tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Population standard deviation (exact).
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.count as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Maximum recorded value (exact).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Minimum recorded value (exact).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Quantile estimate, `q` in `[0, 1]` (e.g. `0.99` for the p99).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Iterator over `(bucket_upper_bound, count)` for non-empty buckets —
    /// used to print the latency-distribution figures (Fig. 6c/6d).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (Self::bucket_value(i), c))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean_us", &self.mean())
            .field("p99_us", &self.quantile(0.99))
            .field("max_us", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000), (0.999, 99_900)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.07, "q={q}: got {got}, want ~{expect} (err {err:.3})");
        }
    }

    #[test]
    fn mean_and_stddev_exact() {
        let mut h = Histogram::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            h.record(v);
        }
        assert!((h.mean() - 5.0).abs() < 1e-9);
        assert!((h.stddev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_clamp_into_last_tier() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn bucket_value_bounds_bucket_index() {
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 123_456_789] {
            let idx = Histogram::bucket_index(v);
            let upper = Histogram::bucket_value(idx);
            assert!(upper >= v, "v={v} idx={idx} upper={upper}");
            // Relative error bound ~ 1/16.
            assert!((upper - v) as f64 <= (v as f64 / 16.0) + 1.0, "v={v} upper={upper}");
        }
    }
}
