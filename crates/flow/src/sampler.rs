//! Deterministic 1:N systematic packet sampling.
//!
//! The paper's flow data is collected at 1:1000. Routers implement this
//! as systematic count-based sampling: every N-th packet is selected.
//! Reported totals multiply sampled counts back by N — that inverse
//! estimator is unbiased for flows that are large relative to N and the
//! source of the small-flow quantization the paper validates against
//! unsampled taps (our `sampling_ablation` bench measures exactly this).

/// Systematic 1:N sampler.
#[derive(Debug, Clone)]
pub struct Sampler {
    rate: u64,
    counter: u64,
    selected: u64,
    seen: u64,
}

impl Sampler {
    /// A 1:`rate` sampler. `rate = 1` selects everything.
    ///
    /// `phase` staggers the first selected packet (routers don't all pick
    /// packet 0); it is reduced modulo `rate`.
    pub fn new(rate: u64, phase: u64) -> Sampler {
        assert!(rate >= 1, "sampling rate must be >= 1");
        Sampler { rate, counter: phase % rate, selected: 0, seen: 0 }
    }

    /// Offer one packet; returns true when it is selected.
    pub fn sample(&mut self) -> bool {
        self.seen += 1;
        self.counter += 1;
        if self.counter >= self.rate {
            self.counter = 0;
            self.selected += 1;
            true
        } else {
            false
        }
    }

    /// Packets offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Packets selected so far.
    pub fn selected(&self) -> u64 {
        self.selected
    }

    /// The inverse estimator: scale a sampled count back to a wire count.
    pub fn estimate(&self, sampled: u64) -> u64 {
        sampled * self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_one_selects_all() {
        let mut s = Sampler::new(1, 0);
        for _ in 0..100 {
            assert!(s.sample());
        }
        assert_eq!(s.selected(), 100);
    }

    #[test]
    fn exact_fraction_selected() {
        let mut s = Sampler::new(10, 0);
        let picked = (0..1000).filter(|_| s.sample()).count();
        assert_eq!(picked, 100);
        assert_eq!(s.seen(), 1000);
        assert_eq!(s.estimate(s.selected()), 1000);
    }

    #[test]
    fn selection_is_evenly_spaced() {
        let mut s = Sampler::new(4, 0);
        let picks: Vec<bool> = (0..12).map(|_| s.sample()).collect();
        assert_eq!(
            picks,
            vec![false, false, false, true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn phase_shifts_first_selection() {
        let mut s = Sampler::new(4, 3);
        let picks: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(picks, vec![true, false, false, false, true, false, false, false]);
    }

    #[test]
    fn phase_wraps_modulo_rate() {
        let mut a = Sampler::new(4, 7);
        let mut b = Sampler::new(4, 3);
        for _ in 0..16 {
            assert_eq!(a.sample(), b.sample());
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
        // estimate is exact regardless of phase.
        for phase in 0..5 {
            let mut s = Sampler::new(5, phase);
            for _ in 0..2000 {
                s.sample();
            }
            assert_eq!(s.estimate(s.selected()), 2000);
        }
    }
}
