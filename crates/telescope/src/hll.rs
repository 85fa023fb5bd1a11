//! HyperLogLog distinct-counting sketch.
//!
//! The event aggregator defaults to *exact* adaptive sets
//! ([`crate::dstset::DstSet`]) for per-event destination dispersion. A
//! telescope with a much larger dark space (ORION's 475k, or a /8) may
//! prefer constant-memory sketches; this module provides the standard
//! HLL estimator (Flajolet et al. 2007, with the small-range linear
//! counting correction) so the exact-vs-sketch trade-off can be measured
//! (see the `ablation` bench and DESIGN.md §5).

/// A HyperLogLog sketch with `2^P` registers.
///
/// `P = 12` (4096 registers, 4 KiB) gives a relative standard error of
/// about `1.04 / sqrt(4096)` ≈ 1.6%.
#[derive(Debug, Clone)]
pub struct HyperLogLog<const P: u8 = 12> {
    registers: Vec<u8>,
}

fn hash64(x: u64) -> u64 {
    // One splitmix64 step from `x` — well-mixed for sequential ids.
    ah_net::hash::mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

impl<const P: u8> HyperLogLog<P> {
    const M: usize = 1 << P;

    /// An empty sketch with `2^P` registers.
    pub fn new() -> Self {
        assert!((4..=18).contains(&P), "register exponent out of range");
        HyperLogLog { registers: vec![0u8; Self::M] }
    }

    /// Alpha bias-correction constant for m registers.
    fn alpha() -> f64 {
        match Self::M {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            m => 0.7213 / (1.0 + 1.079 / m as f64),
        }
    }

    /// Insert one item.
    pub fn insert(&mut self, item: u64) {
        let h = hash64(item);
        let idx = (h >> (64 - P)) as usize;
        let rest = h << P;
        // Rank: position of the leftmost 1-bit in the remaining bits.
        let rank = (rest.leading_zeros() as u8).min(64 - P) + 1;
        if self.registers[idx] < rank {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        let m = Self::M as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = Self::alpha() * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting over empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another sketch (union semantics).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Memory footprint of the registers in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

impl<const P: u8> Default for HyperLogLog<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_error(est: f64, truth: u64) -> f64 {
        (est - truth as f64).abs() / truth as f64
    }

    #[test]
    fn empty_estimates_zero() {
        let h: HyperLogLog = HyperLogLog::new();
        assert!(h.estimate() < 1.0);
    }

    #[test]
    fn small_cardinalities_are_nearly_exact() {
        let mut h: HyperLogLog = HyperLogLog::new();
        for i in 0..100u64 {
            h.insert(i);
        }
        assert!(relative_error(h.estimate(), 100) < 0.05, "est {}", h.estimate());
    }

    #[test]
    fn register_choice_is_unchanged_over_the_shared_mixer() {
        // (item, register, rank) under the written-out splitmix64 body
        // this module had before it called `ah_net::hash::mix64`.
        for (item, register, rank) in [
            (0, 3618, 5),
            (1, 2320, 1),
            (2, 2421, 1),
            (1000, 961, 1),
            (0xdead_beef, 1197, 1),
            (u64::MAX, 3661, 1),
        ] {
            let mut h: HyperLogLog = HyperLogLog::new();
            h.insert(item);
            let set: Vec<(usize, u8)> =
                h.registers.iter().copied().enumerate().filter(|&(_, r)| r != 0).collect();
            assert_eq!(set, [(register, rank)], "item {item:#x}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h: HyperLogLog = HyperLogLog::new();
        for _ in 0..50 {
            for i in 0..500u64 {
                h.insert(i);
            }
        }
        assert!(relative_error(h.estimate(), 500) < 0.05, "est {}", h.estimate());
    }

    #[test]
    fn large_cardinalities_within_error_bound() {
        let mut h: HyperLogLog = HyperLogLog::new();
        let n = 200_000u64;
        for i in 0..n {
            h.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        // 1.04/sqrt(4096) ≈ 1.6% std error; allow 4 sigma.
        assert!(relative_error(h.estimate(), n) < 0.065, "est {}", h.estimate());
    }

    #[test]
    fn merge_equals_union() {
        let mut a: HyperLogLog = HyperLogLog::new();
        let mut b: HyperLogLog = HyperLogLog::new();
        for i in 0..10_000u64 {
            a.insert(i);
        }
        for i in 5_000..15_000u64 {
            b.insert(i);
        }
        a.merge(&b);
        assert!(relative_error(a.estimate(), 15_000) < 0.06, "est {}", a.estimate());
    }

    #[test]
    fn memory_is_constant() {
        let mut h: HyperLogLog = HyperLogLog::new();
        let m0 = h.memory_bytes();
        for i in 0..100_000u64 {
            h.insert(i);
        }
        assert_eq!(h.memory_bytes(), m0);
        assert_eq!(m0, 4096);
    }

    #[test]
    fn smaller_precision_usable() {
        let mut h: HyperLogLog<8> = HyperLogLog::new();
        for i in 0..50_000u64 {
            h.insert(i);
        }
        // 1.04/sqrt(256) ≈ 6.5%; allow 4 sigma.
        assert!(relative_error(h.estimate(), 50_000) < 0.26, "est {}", h.estimate());
    }

    #[test]
    fn dispersion_decision_agreement_with_exact() {
        // The question the telescope actually asks: is coverage >= 10%
        // of a 16,384-address dark space? Compare HLL vs exact over a
        // range of true coverages.
        for &truth in &[500u64, 1000, 1600, 1700, 3000, 16_000] {
            let mut h: HyperLogLog = HyperLogLog::new();
            for i in 0..truth {
                h.insert(i.wrapping_mul(0x2545_f491_4f6c_dd1d));
            }
            let exact = truth as f64 / 16_384.0 >= 0.10;
            let sketch = h.estimate() / 16_384.0 >= 0.10;
            // Only the boundary cases (within ±5% of the cut) may
            // disagree; these truths are chosen away from it except
            // 1600/1700 which sit near 1638.
            if !(1500..1800).contains(&truth) {
                assert_eq!(exact, sketch, "truth {truth}");
            }
        }
    }
}
