//! Empirical cumulative distribution functions and top-α thresholds.
//!
//! Definitions 2 and 3 declare a scanner aggressive when a statistic
//! (packets per event, distinct ports per day) exceeds the empirical
//! (1 − α)-quantile of that statistic's distribution, with α = 10⁻⁴.

/// An ECDF over `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    /// Sorted samples.
    sorted: Vec<u64>,
}

impl Ecdf {
    /// Build from any sample collection.
    pub fn from_samples(mut samples: Vec<u64>) -> Ecdf {
        samples.sort_unstable();
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples ≤ x.
    pub fn cdf(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1): smallest sample value v such that at
    /// least a `q` fraction of samples are ≤ v.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The top-α threshold: the (1 − α)-quantile. A sample is "top-α" when
    /// it strictly exceeds this value.
    pub(crate) fn top_alpha_threshold(&self, alpha: f64) -> Option<u64> {
        self.quantile(1.0 - alpha)
    }

    /// Count of samples strictly above `x`.
    pub fn count_above(&self, x: u64) -> usize {
        self.sorted.len() - self.sorted.partition_point(|&s| s <= x)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let e = Ecdf::from_samples(vec![1, 2, 2, 3, 10]);
        assert_eq!(e.len(), 5);
        assert!((e.cdf(0) - 0.0).abs() < 1e-12);
        assert!((e.cdf(1) - 0.2).abs() < 1e-12);
        assert!((e.cdf(2) - 0.6).abs() < 1e-12);
        assert!((e.cdf(10) - 1.0).abs() < 1e-12);
        assert!((e.cdf(11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::from_samples((1..=100).collect());
        assert_eq!(e.quantile(0.0), Some(1));
        assert_eq!(e.quantile(0.5), Some(50));
        assert_eq!(e.quantile(1.0), Some(100));
        assert_eq!(e.quantile(0.999), Some(100));
        assert_eq!(e.quantile(0.01), Some(1));
    }

    #[test]
    fn top_alpha_semantics() {
        // 10,000 samples 1..=10000; α = 1e-3 → threshold at the 99.9th
        // percentile; exactly 10 samples strictly above 9990.
        let e = Ecdf::from_samples((1..=10_000).collect());
        let t = e.top_alpha_threshold(1e-3).unwrap();
        assert_eq!(t, 9990);
        assert_eq!(e.count_above(t), 10);
    }

    #[test]
    fn quantile_monotone() {
        let e = Ecdf::from_samples(vec![5, 1, 9, 9, 2, 7, 3, 3, 3, 8]);
        let mut prev = 0;
        for i in 0..=100 {
            let q = e.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantile not monotone at {i}");
            prev = q;
        }
    }

    #[test]
    fn empty_ecdf() {
        let e = Ecdf::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.cdf(5), 0.0);
        assert_eq!(e.count_above(0), 0);
    }

    #[test]
    fn max_is_the_largest_sample() {
        assert_eq!(Ecdf::from_samples(vec![4, 6, 2]).max(), Some(6));
        assert_eq!(Ecdf::from_samples(vec![]).max(), None);
    }

    #[test]
    fn duplicates_heavy_distribution() {
        // 9,999 ones and a single 1000 — the threshold must be 1 and the
        // single outlier the only sample above it.
        let mut v = vec![1u64; 9999];
        v.push(1000);
        let e = Ecdf::from_samples(v);
        let t = e.top_alpha_threshold(1e-4).unwrap();
        assert_eq!(t, 1);
        assert_eq!(e.count_above(t), 1);
    }
}
