//! Keyed non-cryptographic hashing for the private per-packet maps.
//!
//! Every vantage point keeps a few maps that are probed once per packet
//! (active events, flow-cache entries, per-source samplers, unique-source
//! sets) under 4–13-byte keys. `std`'s default cryptographic hasher
//! costs more there than the table probe it feeds. [`FastHasher`] is a
//! multiply-fold per written word with the splitmix64 finalizer
//! ([`mix64`]) in `finish`; [`FastMap`]/[`FastSet`] are `std`'s own
//! tables (already open-addressed) over it.
//!
//! The keys of those maps are attacker-chosen source addresses, so the
//! hash stays *keyed*: [`FastState`] draws one 64-bit key per process
//! from [`RandomState`] — the same source of unpredictability `std`'s
//! default gives each map — and there is no way to fix that key outside
//! this module's own tests. What a sender cannot learn, it cannot aim
//! collisions at; what changes every process, no result may depend on:
//! iteration order of a [`FastMap`] is as unspecified as a `HashMap`'s.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The splitmix64 output finalizer: a bijective avalanche of 64 bits.
///
/// The one copy of the mixer behind `ah_simnet::rng::{splitmix64,
/// hash64}`, the flow samplers' phase, ah-trace's journey sampler,
/// ah-mutate's `--sample` draw and [`FastHasher::finish`].
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a offset basis; the state every rolling FNV-1a hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a rolling 64-bit FNV-1a state: the one *unkeyed* byte
/// hash (WAL packet hash, output fingerprint, mutant ids, `stream_golden`),
/// for values that must be equal across processes.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Odd multiplier of the per-word fold (2⁶⁴ / φ).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The process's hash key, drawn once from `std`'s `RandomState`.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// [`BuildHasher`] for [`FastMap`]/[`FastSet`]: carries the per-process
/// key, so every map in one process hashes alike and no two processes do.
#[derive(Clone, Copy)]
pub struct FastState {
    key: u64,
}

impl FastState {
    /// A state with a chosen key — tests only; product code has no way
    /// to pick the key.
    #[cfg(test)]
    fn with_key(key: u64) -> FastState {
        FastState { key }
    }
}

impl Default for FastState {
    fn default() -> FastState {
        FastState { key: process_key() }
    }
}

impl fmt::Debug for FastState {
    /// Never prints the key.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastState").finish_non_exhaustive()
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.key }
    }
}

/// The hasher [`FastState`] builds: starts from the key, folds each
/// written word in with one widening multiply, finishes with [`mix64`].
/// Not `Debug`: a fresh hasher's state is the key.
#[derive(Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    /// `state ← hi ⊕ lo` of the 128-bit product `(state ⊕ word) · FOLD`.
    #[inline]
    fn fold(&mut self, word: u64) {
        let m = u128::from(self.state ^ word) * u128::from(FOLD);
        self.state = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    /// SwissTable takes the low bits for the bucket and the top seven
    /// for the control byte; the finalizer makes both depend on every
    /// input bit.
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    /// Byte-string fallback (the hot keys are all fixed-width integers
    /// and never come here): eight bytes per fold, then the length, so
    /// zero padding cannot make two writes collide.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// `std`'s `HashMap` over [`FastState`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// `std`'s `HashSet` over [`FastState`]. Build with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr4;
    use crate::packet::ScanClass;

    #[test]
    fn mix64_matches_the_splitmix64_reference_stream() {
        // First outputs of splitmix64 from seed 0 (Vigna's reference).
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        assert_eq!(mix64(GOLDEN), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(GOLDEN.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(GOLDEN.wrapping_mul(3)), 0x06c4_5d18_8009_454f);
        assert_eq!(mix64(0), 0);
    }

    fn addrs() -> impl Iterator<Item = Ipv4Addr4> {
        (0..10_000u32).map(|i| Ipv4Addr4(0x0a00_0000 + i * 7919))
    }

    #[test]
    fn the_key_enters_the_hash() {
        let (a, b) = (FastState::with_key(1), FastState::with_key(2));
        let differ = addrs().filter(|x| a.hash_one(x) != b.hash_one(x)).count();
        assert!(differ >= 9_900, "only {differ} of 10000 hashes depend on the key");
        let again = FastState::with_key(1);
        assert!(addrs().all(|x| a.hash_one(x) == again.hash_one(x)));
    }

    #[test]
    fn process_key_is_drawn_once() {
        let (a, b) = (FastState::default(), FastState::default());
        assert!(addrs().all(|x| a.hash_one(x) == b.hash_one(x)));
    }

    /// Bucket loads of the low and the high seven bits of `hashes` —
    /// the bits SwissTable probes with.
    fn assert_both_ends_spread(hashes: impl Iterator<Item = u64>, what: &str) {
        let (mut low, mut high) = ([0u32; 128], [0u32; 128]);
        let mut n = 0u32;
        for h in hashes {
            low[(h & 127) as usize] += 1;
            high[(h >> 57) as usize] += 1;
            n += 1;
        }
        let mean = f64::from(n) / 128.0;
        for (end, loads) in [("low", low), ("high", high)] {
            assert!(loads.iter().all(|&c| c > 0), "{what}: a {end}-bits bucket is empty");
            let max = f64::from(*loads.iter().max().expect("128 buckets"));
            assert!(max / mean <= 1.5, "{what}: {end}-bits max/mean load {}", max / mean);
        }
    }

    #[test]
    fn consecutive_sources_spread_under_the_process_key() {
        // A /16 of consecutive addresses is what a sweep's sources (and
        // a router's sampler keys) look like.
        let s = FastState::default();
        let slash16 = (0..1u32 << 16).map(|i| Ipv4Addr4(0xc633_0000 | i));
        assert_both_ends_spread(slash16.map(|a| s.hash_one(a)), "consecutive /16");
        let raw = (0..1u32 << 16).map(|i| 0xc633_0000 | i);
        assert_both_ends_spread(raw.map(|a| s.hash_one(a)), "consecutive u32");
    }

    #[test]
    fn keys_differing_only_in_port_spread_under_the_process_key() {
        // One source walking every port (a vertical sweep) is the event
        // aggregator's worst-shaped key set; `(src, dst_port, class)` is
        // `EventKey` field for field (ah-telescope checks they hash alike).
        let s = FastState::default();
        let keys = (0..=u16::MAX).map(|port| (Ipv4Addr4(0x0a00_0001), port, ScanClass::TcpSyn));
        assert_both_ends_spread(keys.map(|k| s.hash_one(k)), "port-only event keys");
    }

    #[test]
    fn byte_strings_are_length_delimited() {
        let s = FastState::with_key(7);
        assert_ne!(s.hash_one([1u8, 0].as_slice()), s.hash_one([1u8].as_slice()));
        assert_ne!(s.hash_one("ab"), s.hash_one("ab\0"));
        assert_eq!(s.hash_one("ab"), s.hash_one(String::from("ab")));
    }

    #[test]
    fn maps_build_from_default_and_debug_hides_the_key() {
        let mut m: FastMap<Ipv4Addr4, u32> = FastMap::default();
        for (i, a) in addrs().enumerate() {
            m.insert(a, i as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&Ipv4Addr4(0x0a00_0000 + 7919)), Some(&1));
        let mut set: FastSet<u16> = FastSet::default();
        assert!(set.insert(445) && !set.insert(445));
        assert_eq!(format!("{:?}", FastState::with_key(0xdead_beef)), "FastState { .. }");
    }
}
