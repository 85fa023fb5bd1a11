//! Deterministic pseudo-randomness for the simulator.
//!
//! Experiments must be exactly reproducible from a seed across platforms
//! and Rust versions, so the simulator uses its own xoshiro256**
//! implementation (seeded via splitmix64) rather than depending on any
//! external RNG's stability guarantees. The distributions implemented are
//! exactly the ones the actors need.

use ah_net::hash::mix64;

/// splitmix64 step — used for seeding and cheap stateless hashing.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// Stateless 64-bit mix of a key — handy for deterministic per-entity
/// parameters ("what is bot #i's rate?") without carrying RNG state.
pub fn hash64(key: u64) -> u64 {
    let mut s = key;
    splitmix64(&mut s)
}

/// xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed deterministically from a single u64.
    pub fn new(seed: u64) -> Rng64 {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng64 { s }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`; panics on `n == 0`, in release builds too
    /// (the early accept below would otherwise return 0 where the
    /// unconditional `% n` trapped). Lemire's unbiased
    /// multiply-shift rejection: a draw is rejected when the low half of
    /// `x · n` falls below the threshold `2^64 mod n`. A remainder is
    /// `< n`, so `lo >= n` accepts without computing it and the 64-bit
    /// division only runs on the `n / 2^64` of draws with `lo < n` —
    /// every call returns what the unconditional modulus would have, and
    /// consumes the same draws.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng64::below(0)");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected: retry (vanishingly rare for small n).
        }
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with mean `mean` (inter-arrival times of Poisson
    /// processes). Always > 0.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Bounded Pareto (power-law) sample in `[lo, hi]` with shape `alpha`.
    /// Used for heavy-tailed flow sizes and per-scanner rates.
    pub(crate) fn pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        debug_assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Pick one element uniformly.
    pub(crate) fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Weighted pick: returns an index with probability proportional to
    /// `weights[i]`.
    pub(crate) fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0);
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "Rng64::below(0)")]
    fn below_zero_traps() {
        Rng64::new(1).below(0);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(43);
        assert_ne!(Rng64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear in 1000 draws");
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng64::new(2);
        for _ in 0..1000 {
            let x = r.range(100, 110);
            assert!((100..110).contains(&x));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Rng64::new(4);
        let mean = 5.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let got = sum / n as f64;
        assert!((4.7..5.3).contains(&got), "sample mean {got}");
    }

    #[test]
    fn exp_is_positive() {
        let mut r = Rng64::new(5);
        for _ in 0..1000 {
            assert!(r.exp(1.0) > 0.0);
        }
    }

    #[test]
    fn pareto_bounds() {
        let mut r = Rng64::new(6);
        for _ in 0..5000 {
            let x = r.pareto(1.0, 1000.0, 1.2);
            assert!((1.0..=1000.0 + 1e-9).contains(&x), "{x}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // Median should be near lo while max approaches hi.
        let mut r = Rng64::new(7);
        let mut xs: Vec<f64> = (0..5000).map(|_| r.pareto(1.0, 1000.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[2500] < 10.0, "median {}", xs[2500]);
        assert!(xs[4999] > 100.0, "max {}", xs[4999]);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(8);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = Rng64::new(9);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5, "{counts:?}");
    }

    #[test]
    fn hash64_is_stable() {
        assert_eq!(hash64(12345), hash64(12345));
        assert_ne!(hash64(12345), hash64(12346));
    }

    #[test]
    fn hash64_keeps_its_values_over_the_shared_mixer() {
        // Values of the written-out splitmix64 body this function had
        // before it called `ah_net::hash::mix64`.
        for (key, want) in [
            (0, 0xe220_a839_7b1d_cdaf),
            (1, 0x910a_2dec_8902_5cc1),
            (2, 0x9758_35de_1c97_56ce),
            (42, 0xbdd7_3226_2feb_6e95),
            (12345, 0x2211_8258_a9d1_11a0),
            (0xffff_ffff, 0x73b1_3ba2_aff1_81c0),
            (0xdead_beef_cafe_f00d, 0x901d_4f65_2fb4_72cb),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
        ] {
            assert_eq!(hash64(key), want, "hash64({key:#x})");
        }
        // splitmix64 is the same function stepped: seed 0's stream.
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn choice_picks_members() {
        let mut r = Rng64::new(11);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choice(&items)));
        }
    }
}
