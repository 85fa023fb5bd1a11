//! Keyed bijections over `[0, n)` — the simulator's stand-in for ZMap's
//! multiplicative-cyclic-group address permutation.
//!
//! ZMap iterates targets in a random permutation of the address space so
//! that probes never revisit an address and spread load. We reproduce the
//! observable property (a full-coverage, duplicate-free, pseudo-random
//! visiting order) with a 4-round Feistel network over the smallest even
//! bit-width covering `n`, plus cycle-walking to stay inside `[0, n)` —
//! the standard format-preserving-permutation construction.

use crate::rng::hash64;

/// A keyed permutation of `[0, n)`.
#[derive(Debug, Clone)]
pub struct Permutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl Permutation {
    /// A permutation of `[0, n)` keyed by `key`. `n` must be ≥ 1.
    pub fn new(n: u64, key: u64) -> Permutation {
        assert!(n >= 1, "empty domain");
        // Smallest even bit-width whose 2^bits >= n.
        let mut bits = 64 - (n - 1).leading_zeros();
        if bits == 0 {
            bits = 2;
        }
        if bits % 2 == 1 {
            bits += 1;
        }
        let keys = [
            hash64(key ^ 0xa5a5_0001),
            hash64(key ^ 0xa5a5_0002),
            hash64(key ^ 0xa5a5_0003),
            hash64(key ^ 0xa5a5_0004),
        ];
        Permutation { n, half_bits: bits / 2, keys }
    }

    /// Domain size.
    pub(crate) fn len(&self) -> u64 {
        self.n
    }

    fn round(&self, k: u64, x: u64) -> u64 {
        hash64(k ^ x) & ((1u64 << self.half_bits) - 1)
    }

    fn feistel(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for k in self.keys {
            let next = left ^ self.round(k, right);
            left = right;
            right = next;
        }
        (left << self.half_bits) | right
    }

    /// The image of `i` under the permutation. `i` must be `< len()`.
    ///
    /// Cycle-walks: applies the Feistel network until the value falls in
    /// `[0, n)` — guaranteed to terminate because the network permutes
    /// the covering power-of-two domain.
    pub fn apply(&self, i: u64) -> u64 {
        debug_assert!(i < self.n);
        let mut x = self.feistel(i);
        while x >= self.n {
            x = self.feistel(x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_bijection_small() {
        for n in [1u64, 2, 3, 10, 255, 256, 1000] {
            let p = Permutation::new(n, 0xfeed);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let y = p.apply(i);
                assert!(y < n, "out of range: {y} >= {n}");
                assert!(!seen[y as usize], "duplicate image {y} (n={n})");
                seen[y as usize] = true;
            }
            assert!(seen.iter().all(|&b| b), "not surjective for n={n}");
        }
    }

    #[test]
    fn different_keys_give_different_orders() {
        let n = 1000;
        let a = Permutation::new(n, 1);
        let b = Permutation::new(n, 2);
        let same = (0..n).filter(|&i| a.apply(i) == b.apply(i)).count();
        // A couple of coincidences are fine; identical orders are not.
        assert!(same < n as usize / 10, "{same} collisions");
    }

    #[test]
    fn order_looks_shuffled() {
        let n = 4096;
        let p = Permutation::new(n, 7);
        // Count ascending adjacent pairs; a sorted order would have n-1,
        // a random one about half.
        let asc = (0..n - 1).filter(|&i| p.apply(i) < p.apply(i + 1)).count() as f64;
        let frac = asc / (n - 1) as f64;
        assert!((0.40..0.60).contains(&frac), "ascending fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let a = Permutation::new(500, 99);
        let b = Permutation::new(500, 99);
        for i in 0..500 {
            assert_eq!(a.apply(i), b.apply(i));
        }
    }

    #[test]
    fn domain_of_one() {
        let p = Permutation::new(1, 5);
        assert_eq!(p.apply(0), 0);
        assert_eq!(p.len(), 1);
    }
}
