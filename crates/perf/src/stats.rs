//! Order statistics over a handful of repeats, and the rule that turns
//! two sets of repeats into `ok` / `regressed` / `unresolved`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the pipeline's
//! driver computes spreads with — the two must agree on what "spread"
//! means.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, bytes).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `values`; `None` when there are none. A single sample
    /// is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let n = v.len();
        // statistics.quantiles, method="exclusive": the i-th of 4 cut
        // points sits at position i*(n+1)/4 (1-based), interpolated
        // linearly and clamped to the data.
        let cut = |i: usize| {
            if n == 1 {
                return min;
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Some(Summary { n, min, q1: cut(1), median, q3: cut(3), max })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The `p`-th percentile (0–100) by nearest rank; `None` on no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// How much worse a median may get before it is a regression: by more
/// than `rel` of the baseline median **and** by more than `abs_floor`
/// in the metric's own unit (the floor keeps a 0.01 s set-up from
/// "regressing" by 20% of nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline median.
    pub rel: f64,
    /// Absolute floor, in the metric's unit.
    pub abs_floor: f64,
}

/// Outcome of comparing one metric on one workload across two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound and the runs are tight enough
    /// to say so.
    Ok,
    /// The new median is worse than the baseline by more than the bound.
    Regressed,
    /// One side's run-to-run spread is wider than the bound, so the
    /// comparison cannot be resolved either way.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for the report.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `new` against `base` for a metric whose good direction is
/// `better`, under `bound`.
///
/// A spread wider than the bound on either side makes the row
/// `unresolved` rather than `ok` or `regressed` — unless every new run
/// reads better than every baseline run, which no amount of spread can
/// turn into a regression.
pub fn verdict(base: &Summary, new: &Summary, better: Better, bound: Bound) -> Verdict {
    let all_better = match better {
        Better::Higher => new.min > base.max,
        Better::Lower => new.max < base.min,
    };
    if all_better {
        return Verdict::Ok;
    }
    let too_wide = |s: &Summary| s.spread() > bound.rel && (s.q3 - s.q1).abs() > bound.abs_floor;
    if too_wide(base) || too_wide(new) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => base.median - new.median,
        Better::Lower => new.median - base.median,
    };
    if worse_by > bound.rel * base.median.abs() && worse_by > bound.abs_floor {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(s(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(s(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
        assert_eq!(s(&[7.0]).median, 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let a = s(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((a.q1, a.median, a.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let b = s(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((b.q1, b.median, b.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let c = s(&[10.0, 20.0]);
        assert_eq!((c.q1, c.q3), (7.5, 22.5));
        assert_eq!((a.min, a.max, a.n), (1.0, 5.0, 5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(s(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread(), 1.0);
        assert_eq!(s(&[2.0]).spread(), 0.0);
        assert_eq!(s(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    const TEN: Bound = Bound { rel: 0.10, abs_floor: 0.0 };

    #[test]
    fn bound_separates_ok_from_regressed_in_both_directions() {
        let base = s(&[100.0, 100.5, 101.0]);
        assert_eq!(verdict(&base, &s(&[108.0, 108.5, 109.0]), Better::Lower, TEN), Verdict::Ok);
        assert_eq!(
            verdict(&base, &s(&[112.0, 112.5, 113.0]), Better::Lower, TEN),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &s(&[88.0, 88.5, 89.0]), Better::Higher, TEN),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &s(&[92.0, 92.5, 93.0]), Better::Higher, TEN), Verdict::Ok);
        // Improvements are never regressions.
        assert_eq!(verdict(&base, &s(&[50.0, 50.5, 51.0]), Better::Lower, TEN), Verdict::Ok);
    }

    #[test]
    fn absolute_floor_must_also_be_exceeded() {
        let setup = Bound { rel: 0.15, abs_floor: 0.25 };
        // +100% of a 0.01 s set-up is under the 0.25 s floor.
        let tiny = verdict(&s(&[0.01, 0.0101]), &s(&[0.02, 0.0201]), Better::Lower, setup);
        assert_eq!(tiny, Verdict::Ok);
        // +0.3 s on 8 s is over the floor but under 15%.
        assert_eq!(verdict(&s(&[8.0, 8.01]), &s(&[8.3, 8.31]), Better::Lower, setup), Verdict::Ok);
        // +2 s on 8 s is over both.
        assert_eq!(
            verdict(&s(&[8.0, 8.01]), &s(&[10.0, 10.01]), Better::Lower, setup),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = s(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let tight = s(&[100.0, 100.5, 101.0]);
        assert_eq!(verdict(&tight, &noisy, Better::Lower, TEN), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &tight, Better::Lower, TEN), Verdict::Unresolved);
        // A median far past the bound is still unresolved when noisy…
        let worse = s(&[130.0, 150.0, 170.0, 140.0, 160.0]);
        assert_eq!(verdict(&tight, &worse, Better::Lower, TEN), Verdict::Unresolved);
        // …but a noisy set that beats every baseline run is plainly ok.
        let faster = s(&[40.0, 50.0, 60.0, 45.0, 55.0]);
        assert_eq!(verdict(&tight, &faster, Better::Lower, TEN), Verdict::Ok);
    }

    #[test]
    fn zero_bound_flags_any_increase_of_an_exact_count() {
        let zero = Bound { rel: 0.0, abs_floor: 0.0 };
        assert_eq!(verdict(&s(&[0.0]), &s(&[0.0]), Better::Lower, zero), Verdict::Ok);
        assert_eq!(verdict(&s(&[0.0]), &s(&[0.125]), Better::Lower, zero), Verdict::Regressed);
    }
}
