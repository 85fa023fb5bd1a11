//! Memory-adaptive exact distinct-counting set over dense `u32` ids.
//!
//! Per-event destination-dispersion tracking needs an exact "how many
//! distinct dark IPs did this source touch" counter. Most events touch a
//! handful of destinations; aggressive ones touch hundreds of thousands.
//! A fixed bitmap per event would cost `dark_size / 8` bytes for *every*
//! concurrent event, so the set upgrades its representation as it grows:
//!
//! 1. sorted inline vector (≤ 32 entries, binary-searched),
//! 2. hash set (≤ `BITMAP_THRESHOLD` entries),
//! 3. fixed bitmap over the id universe (exact, O(1) inserts).

use ah_net::hash::FastSet;

/// Upgrade point from hash set to bitmap.
const VEC_MAX: usize = 32;
/// Upgrade point from hash set to bitmap (entries).
const BITMAP_THRESHOLD: usize = 4096;

/// Exact distinct-counting set over ids in `0..universe`.
#[derive(Debug, Clone)]
pub struct DstSet {
    universe: u32,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Vec(Vec<u32>),
    Hash(FastSet<u32>),
    Bitmap { words: Vec<u64>, count: u32 },
}

impl DstSet {
    /// An empty set over `0..universe`.
    pub fn new(universe: u32) -> DstSet {
        DstSet { universe, repr: Repr::Vec(Vec::new()) }
    }

    /// Insert an id; returns true when newly added.
    ///
    /// # Panics
    /// Debug-asserts `id < universe`; in release, out-of-universe ids
    /// would corrupt bitmap mode, so they are clamped into range.
    pub fn insert(&mut self, id: u32) -> bool {
        debug_assert!(id < self.universe, "id {id} outside universe {}", self.universe);
        let id = id.min(self.universe.saturating_sub(1));
        match &mut self.repr {
            Repr::Vec(v) => match v.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, id);
                    if v.len() > VEC_MAX {
                        let set: FastSet<u32> = v.drain(..).collect();
                        self.repr = Repr::Hash(set);
                    }
                    true
                }
            },
            Repr::Hash(set) => {
                let added = set.insert(id);
                if added && set.len() > BITMAP_THRESHOLD {
                    let words = vec![0u64; (self.universe as usize).div_ceil(64)];
                    let mut bm = Repr::Bitmap { words, count: 0 };
                    if let Repr::Bitmap { words, count } = &mut bm {
                        for &x in set.iter() {
                            let (w, b) = (x as usize / 64, x % 64);
                            if words[w] & (1 << b) == 0 {
                                words[w] |= 1 << b;
                                *count += 1;
                            }
                        }
                    }
                    self.repr = bm;
                }
                added
            }
            Repr::Bitmap { words, count } => {
                let (w, b) = (id as usize / 64, id % 64);
                if words[w] & (1 << b) == 0 {
                    words[w] |= 1 << b;
                    *count += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        match &self.repr {
            Repr::Vec(v) => v.binary_search(&id).is_ok(),
            Repr::Hash(set) => set.contains(&id),
            Repr::Bitmap { words, .. } => {
                let (w, b) = (id as usize / 64, id % 64);
                words.get(w).is_some_and(|x| x & (1 << b) != 0)
            }
        }
    }

    /// Exact number of distinct ids inserted.
    pub fn count(&self) -> u32 {
        match &self.repr {
            Repr::Vec(v) => v.len() as u32,
            Repr::Hash(set) => set.len() as u32,
            Repr::Bitmap { count, .. } => *count,
        }
    }

    /// Size of the id universe.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Fraction of the universe covered, in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.universe == 0 {
            0.0
        } else {
            f64::from(self.count()) / f64::from(self.universe)
        }
    }

    /// Union another set into this one (exact, order-insensitive).
    ///
    /// Fast-paths the bitmap×bitmap case with word-wise OR; all other
    /// representation pairs fall back to element-wise insertion (which
    /// also performs any representation upgrades the growth triggers).
    pub fn union_with(&mut self, other: &DstSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch in union");
        if let (Repr::Bitmap { words, count }, Repr::Bitmap { words: ow, .. }) =
            (&mut self.repr, &other.repr)
        {
            let mut total = 0u32;
            for (a, b) in words.iter_mut().zip(ow.iter()) {
                *a |= *b;
                total += a.count_ones();
            }
            *count = total;
            return;
        }
        match &other.repr {
            Repr::Vec(v) => {
                for &id in v {
                    self.insert(id);
                }
            }
            Repr::Hash(set) => {
                for &id in set {
                    self.insert(id);
                }
            }
            Repr::Bitmap { words, .. } => {
                for (w, word) in words.iter().enumerate() {
                    let mut bits = *word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        self.insert(w as u32 * 64 + b);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Which representation is currently in use (for tests/benches).
    pub fn repr_name(&self) -> &'static str {
        match self.repr {
            Repr::Vec(_) => "vec",
            Repr::Hash(_) => "hash",
            Repr::Bitmap { .. } => "bitmap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedupes() {
        let mut s = DstSet::new(1000);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.count(), 2);
        assert!(s.contains(5));
        assert!(!s.contains(6));
    }

    #[test]
    fn upgrades_vec_to_hash_to_bitmap() {
        let mut s = DstSet::new(100_000);
        assert_eq!(s.repr_name(), "vec");
        for i in 0..40 {
            s.insert(i * 3);
        }
        assert_eq!(s.repr_name(), "hash");
        assert_eq!(s.count(), 40);
        for i in 0..5000u32 {
            s.insert(i * 7 % 100_000);
        }
        assert_eq!(s.repr_name(), "bitmap");
        // Count must survive all upgrades exactly.
        let mut naive = std::collections::HashSet::new();
        for i in 0..40u32 {
            naive.insert(i * 3);
        }
        for i in 0..5000u32 {
            naive.insert(i * 7 % 100_000);
        }
        assert_eq!(s.count() as usize, naive.len());
        for &x in &naive {
            assert!(s.contains(x));
        }
    }

    #[test]
    fn coverage_fraction() {
        let mut s = DstSet::new(100);
        for i in 0..10 {
            s.insert(i);
        }
        assert!((s.coverage() - 0.10).abs() < 1e-12);
        assert_eq!(s.universe(), 100);
    }

    #[test]
    fn full_universe_coverage() {
        let mut s = DstSet::new(5000);
        for i in 0..5000 {
            s.insert(i);
        }
        assert_eq!(s.count(), 5000);
        assert!((s.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(s.repr_name(), "bitmap");
    }

    #[test]
    fn empty_universe() {
        let s = DstSet::new(0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.count(), 0);
    }
}
