//! Memory-adaptive exact distinct-counting set over dense `u32` ids.
//!
//! Per-event destination-dispersion tracking needs an exact "how many
//! distinct dark IPs did this source touch" counter. Most events touch a
//! handful of destinations; aggressive ones touch hundreds of thousands.
//! A fixed bitmap per event would cost `dark_size / 8` bytes for *every*
//! concurrent event, so the set upgrades its representation as it grows:
//!
//! 1. sorted inline vector (≤ 32 entries, binary-searched),
//! 2. hash set,
//! 3. fixed bitmap over the id universe (exact, O(1) inserts).
//!
//! The bitmap is the fastest form and its size is fixed by the universe,
//! so the set moves to it — from either other form — as soon as it is no
//! bigger than what the ids already cost elsewhere: when
//! `universe / 8 <= len * 8` (a hash-set entry costs about 8 bytes with
//! its control byte and load factor). On a 16,384-address dark space that
//! is at 256 destinations, on a 1,024-address one at 16, straight from
//! the vector. For a universe so large that this point is far away (a /8
//! needs 262,144 ids) the set still switches past `BITMAP_THRESHOLD`
//! entries, where the hash set's probing costs more than the bytes save.

use ah_net::hash::FastSet;

/// Largest sorted-vector form.
const VEC_MAX: usize = 32;
/// Entries past which any universe's set becomes a bitmap.
const BITMAP_THRESHOLD: usize = 4096;

/// Whether a set of `len` ids over `0..universe` belongs in a bitmap.
fn wants_bitmap(universe: u32, len: usize) -> bool {
    len > BITMAP_THRESHOLD || universe as usize / 8 <= len * 8
}

/// The bitmap form of the distinct, in-universe `ids`. At least one
/// word, so the id 0 that a universe of 0 clamps to still has a bit.
fn bitmap_of(universe: u32, ids: impl ExactSizeIterator<Item = u32>) -> Repr {
    let count = ids.len() as u32;
    let mut words = vec![0u64; (universe as usize).div_ceil(64).max(1)];
    for id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    Repr::Bitmap { words, count }
}

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
                    if wants_bitmap(self.universe, v.len()) {
                        self.repr = bitmap_of(self.universe, v.iter().copied());
                    } else if v.len() > VEC_MAX {
                        self.repr = Repr::Hash(v.drain(..).collect());
                    }
                    true
                }
            },
            Repr::Hash(set) => {
                let added = set.insert(id);
                if added && wants_bitmap(self.universe, set.len()) {
                    self.repr = bitmap_of(self.universe, set.iter().copied());
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
    #[cfg(test)]
    pub(crate) fn universe(&self) -> u32 {
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

    /// Insert `0..n` and return the representation after each insert.
    fn reprs(universe: u32, n: u32) -> Vec<&'static str> {
        let mut s = DstSet::new(universe);
        (0..n)
            .map(|id| {
                s.insert(id);
                s.repr_name()
            })
            .collect()
    }

    #[test]
    fn representation_follows_the_universe_size() {
        // 1,024 ids: the 128-byte bitmap wins at 16 entries, before the
        // vector is full; the hash form is never used.
        let r = reprs(1024, 64);
        assert!(r[..15].iter().all(|&n| n == "vec"), "{r:?}");
        assert!(r[15..].iter().all(|&n| n == "bitmap"), "{r:?}");
        // 16,384 ids: vector to 32, hash to 255, the 2 KB bitmap from 256.
        let r = reprs(16_384, 300);
        assert!(r[..32].iter().all(|&n| n == "vec"));
        assert!(r[32..255].iter().all(|&n| n == "hash"));
        assert!(r[255..].iter().all(|&n| n == "bitmap"));
        // A /8: the size rule is 262,144 entries away, so the entry
        // ceiling decides.
        let r = reprs(1 << 24, 4200);
        assert!(r[..32].iter().all(|&n| n == "vec"));
        assert!(r[32..4096].iter().all(|&n| n == "hash"));
        assert!(r[4096..].iter().all(|&n| n == "bitmap"));
    }

    /// Heap bytes behind the current form. The hash form is `std`'s
    /// SwissTable: a power-of-two bucket count at 7/8 load, one `u32` and
    /// one control byte per bucket plus a 16-byte control tail.
    fn heap_bytes(s: &DstSet) -> usize {
        match &s.repr {
            Repr::Vec(v) => v.capacity() * 4,
            Repr::Hash(set) => (set.capacity() * 8 / 7).next_power_of_two() * 5 + 16,
            Repr::Bitmap { words, .. } => words.len() * 8,
        }
    }

    #[test]
    fn never_much_bigger_than_the_bitmap() {
        for universe in [65u32, 1024, 4160, 16_384, 1 << 16, 1 << 20] {
            let bitmap = (universe as usize).div_ceil(64) * 8;
            let mut s = DstSet::new(universe);
            for id in 0..universe.min(6000) {
                s.insert(id);
                if s.count() as usize > VEC_MAX {
                    let bytes = heap_bytes(&s);
                    assert!(
                        bytes <= 2 * bitmap,
                        "universe {universe}: {} ids in {bytes} B of {}, bitmap is {bitmap} B",
                        s.count(),
                        s.repr_name()
                    );
                }
            }
            assert_eq!(s.repr_name(), "bitmap");
        }
    }

    #[test]
    fn tiny_universes_do_not_index_past_the_bitmap() {
        for universe in [1u32, 2, 63, 64, 65] {
            let mut s = DstSet::new(universe);
            for id in 0..universe {
                assert!(s.insert(id));
            }
            assert_eq!(s.count(), universe);
            assert!(s.contains(universe - 1) && !s.contains(universe) && !s.contains(u32::MAX));
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
        let mut s = DstSet::new(0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.count(), 0);
        assert!(!s.contains(0));
        // No id is inside an empty universe. Without the debug assertion
        // a stray one is clamped to 0, and the one-word bitmap holds it.
        if !cfg!(debug_assertions) {
            assert!(s.insert(9));
            assert!(!s.insert(3));
            assert_eq!((s.count(), s.repr_name()), (1, "bitmap"));
        }
    }
}
