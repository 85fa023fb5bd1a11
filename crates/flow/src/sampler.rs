//! Deterministic 1:N systematic packet sampling.
//!
//! The paper's flow data is collected at 1:1000. Routers implement this
//! as systematic count-based sampling: every N-th packet is selected.
//! Reported totals multiply sampled counts back by N — that inverse
//! estimator is unbiased for flows that are large relative to N and the
//! source of the small-flow quantization the paper validates against
//! unsampled taps (our `sampling_ablation` bench measures exactly this).

/// Systematic 1:N sampler: one word, the position in the current cycle.
///
/// The rate is not stored: every sampler of a border router runs at the
/// router's rate, so [`Sampler::sample`] takes it from the caller.
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Packets offered since the last selection, in `0..rate`.
    pos: u64,
}

impl Sampler {
    /// A sampler for 1:`rate` sampling (`rate = 1` selects everything).
    ///
    /// `phase` staggers the first selected packet (routers don't all pick
    /// packet 0); it is reduced modulo `rate`.
    pub fn new(rate: u64, phase: u64) -> Sampler {
        assert!(rate >= 1, "sampling rate must be >= 1");
        Sampler { pos: phase % rate }
    }

    /// Offer one packet at the sampler's 1:`rate`; returns true when it is
    /// selected.
    pub fn sample(&mut self, rate: u64) -> bool {
        self.pos += 1;
        if self.pos >= rate {
            self.pos = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `n` packets a fresh 1:`rate` sampler at `phase` picks.
    fn picked(rate: u64, phase: u64, n: u64) -> u64 {
        let mut s = Sampler::new(rate, phase);
        (0..n).map(|_| u64::from(s.sample(rate))).sum()
    }

    #[test]
    fn one_in_one_selects_all() {
        assert_eq!(picked(1, 0, 100), 100);
    }

    #[test]
    fn exact_fraction_selected() {
        assert_eq!(picked(10, 0, 1000), 100);
    }

    #[test]
    fn selection_is_evenly_spaced() {
        let mut s = Sampler::new(4, 0);
        let picks: Vec<bool> = (0..12).map(|_| s.sample(4)).collect();
        assert_eq!(
            picks,
            vec![false, false, false, true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn phase_shifts_first_selection() {
        let mut s = Sampler::new(4, 3);
        let picks: Vec<bool> = (0..8).map(|_| s.sample(4)).collect();
        assert_eq!(picks, vec![true, false, false, false, true, false, false, false]);
    }

    #[test]
    fn phase_wraps_modulo_rate() {
        let mut a = Sampler::new(4, 7);
        let mut b = Sampler::new(4, 3);
        for _ in 0..16 {
            assert_eq!(a.sample(4), b.sample(4));
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_rate_rejected() {
        let _ = Sampler::new(0, 0);
    }

    #[test]
    fn estimator_is_unbiased_over_rate_multiples() {
        // For any stream length that is a multiple of the rate, the
        // inverse estimate is exact regardless of phase.
        for phase in 0..5 {
            assert_eq!(picked(5, phase, 2000) * 5, 2000);
        }
    }

    #[test]
    fn sampler_is_one_word() {
        assert_eq!(std::mem::size_of::<Sampler>(), 8);
    }
}
