//! Empirical cumulative distribution functions and top-α thresholds.
//!
//! Definitions 2 and 3 declare a scanner aggressive when a statistic
//! (packets per event, distinct ports per day) exceeds the empirical
//! (1 − α)-quantile of that statistic's distribution, with α = 10⁻⁴.
//!
//! An [`Ecdf`] is a value→count histogram, not a sample vector: one
//! `(value, samples ≤ value)` step per distinct value. Both statistics
//! are small integers with heavy ties, so a run's D2 and D3
//! distributions take a few thousand steps however many events feed
//! them, and every answer is the one the sorted samples would give.

use ah_net::hash::FastMap;

/// An ECDF over `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    /// Distinct sample values, ascending, each with the number of
    /// samples at or below it; the last count is the sample count.
    steps: Vec<(u64, usize)>,
}

impl Ecdf {
    /// Build from a stream of samples, holding one count per distinct
    /// value. The counts go through a hash map; sorting the steps by
    /// value removes its iteration order.
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Ecdf {
        let mut counts: FastMap<u64, usize> = FastMap::default();
        for v in values {
            *counts.entry(v).or_default() += 1;
        }
        Ecdf::from_counts(counts)
    }

    /// Build from a value→count map of the samples.
    pub(crate) fn from_counts(counts: FastMap<u64, usize>) -> Ecdf {
        let mut steps: Vec<(u64, usize)> = counts.into_iter().collect();
        steps.sort_unstable();
        let mut at_most = 0;
        for (_, n) in &mut steps {
            at_most += *n;
            *n = at_most;
        }
        Ecdf { steps }
    }

    /// Build from any sample collection.
    pub fn from_samples(samples: Vec<u64>) -> Ecdf {
        Ecdf::from_values(samples)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.steps.last().map_or(0, |&(_, n)| n)
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of samples ≤ x.
    fn at_most(&self, x: u64) -> usize {
        match self.steps.partition_point(|&(v, _)| v <= x) {
            0 => 0,
            i => self.steps[i - 1].1,
        }
    }

    /// F(x): fraction of samples ≤ x.
    pub fn cdf(&self, x: u64) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.at_most(x) as f64 / self.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1): smallest sample value v such that at
    /// least a `q` fraction of samples are ≤ v.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.steps.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        // The first step whose count reaches the rank; the last step's
        // count is n, so there is one.
        Some(self.steps[self.steps.partition_point(|&(_, at_most)| at_most < rank)].0)
    }

    /// The top-α threshold: the (1 − α)-quantile. A sample is "top-α" when
    /// it strictly exceeds this value.
    pub(crate) fn top_alpha_threshold(&self, alpha: f64) -> Option<u64> {
        self.quantile(1.0 - alpha)
    }

    /// Count of samples strictly above `x`.
    pub fn count_above(&self, x: u64) -> usize {
        self.len() - self.at_most(x)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.steps.last().map(|&(v, _)| v)
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
    fn size_is_bounded_by_distinct_values() {
        let e = Ecdf::from_values((0..100_000u64).map(|i| i % 3));
        assert_eq!((e.len(), e.steps.len()), (100_000, 3));
        assert_eq!(e.steps, [(0, 33_334), (1, 66_667), (2, 100_000)]);
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
