//! CIDR prefixes and fast prefix sets.
//!
//! The telescope needs a membership test ("is this destination inside the
//! dark space?") on every captured packet, and the intel registry needs
//! longest-prefix matching for IP → AS attribution. Both are built here on
//! a sorted-range representation: prefixes become disjoint `[start, end]`
//! ranges, membership is a binary search, and longest-prefix match is a
//! per-length probe over a hash of masked addresses.

use crate::error::{NetError, Result};
use crate::hash::FastMap;
use crate::ipv4::Ipv4Addr4;
use std::fmt;
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network address, host bits zeroed.
    network: Ipv4Addr4,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Prefix {
    /// Construct, zeroing any host bits in `addr`.
    pub fn new(addr: Ipv4Addr4, len: u8) -> Result<Prefix> {
        if len > 32 {
            return Err(NetError::BadPrefixLen(len));
        }
        Ok(Prefix { network: Ipv4Addr4(addr.to_u32() & Self::mask(len)), len })
    }

    /// The netmask for a prefix length.
    pub(crate) fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// First address in the prefix.
    pub fn first(&self) -> Ipv4Addr4 {
        self.network
    }

    /// Last address in the prefix.
    pub fn last(&self) -> Ipv4Addr4 {
        Ipv4Addr4(self.network.to_u32() | !Self::mask(self.len))
    }

    /// Number of addresses covered (as u64: a /0 has 2^32).
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// Membership test.
    pub fn contains(&self, addr: Ipv4Addr4) -> bool {
        addr.to_u32() & Self::mask(self.len) == self.network.to_u32()
    }

    /// Dense index of `addr` within this prefix (0-based), or `None` if
    /// outside. This is how the telescope maps dark IPs onto bitmap slots.
    pub fn index_of(&self, addr: Ipv4Addr4) -> Option<u32> {
        self.contains(addr).then(|| addr.to_u32() - self.network.to_u32())
    }

    /// The `index`-th address of the prefix (inverse of [`Prefix::index_of`]).
    pub fn addr_at(&self, index: u32) -> Option<Ipv4Addr4> {
        (u64::from(index) < self.size()).then(|| Ipv4Addr4(self.network.to_u32() + index))
    }

    /// The `index % size`-th address: infallible cycling indexing, for
    /// callers that draw an index from an arbitrary range and want an
    /// address unconditionally. A prefix is never empty (size ≥ 1), so
    /// no failure case exists.
    pub fn addr_mod(&self, index: u32) -> Ipv4Addr4 {
        Ipv4Addr4(self.network.to_u32() + (u64::from(index) % self.size()) as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) =
            s.split_once('/').ok_or_else(|| NetError::BadAddressSyntax(s.to_string()))?;
        let addr: Ipv4Addr4 = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| NetError::BadAddressSyntax(s.to_string()))?;
        Prefix::new(addr, len)
    }
}

/// A set of prefixes supporting O(log n) membership.
///
/// Internally: disjoint sorted inclusive ranges, merged on build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixSet {
    ranges: Vec<(u32, u32)>,
}

impl PrefixSet {
    /// Build from any collection of prefixes; overlaps and adjacency merge.
    pub fn from_prefixes<I: IntoIterator<Item = Prefix>>(prefixes: I) -> PrefixSet {
        let mut ranges: Vec<(u32, u32)> =
            prefixes.into_iter().map(|p| (p.first().to_u32(), p.last().to_u32())).collect();
        ranges.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            match merged.last_mut() {
                Some((_, le)) if s <= le.saturating_add(1) => *le = (*le).max(e),
                _ => merged.push((s, e)),
            }
        }
        PrefixSet { ranges: merged }
    }

    /// The empty set.
    pub fn empty() -> PrefixSet {
        PrefixSet::default()
    }

    /// Membership test by binary search.
    pub fn contains(&self, addr: Ipv4Addr4) -> bool {
        let a = addr.to_u32();
        match self.ranges.binary_search_by(|&(s, _)| s.cmp(&a)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ranges[i - 1].1 >= a,
        }
    }
}

/// The standard IPv4 bogon (martian) prefixes: addresses that must never
/// legitimately appear as packet sources on the public Internet. Network
/// telescopes filter these before detection — a spoofing attacker can
/// trivially send probes with such sources, and counting them would
/// pollute scanner lists (the paper's "quality lists" goal, §7).
#[expect(
    clippy::expect_used,
    reason = "static RFC bogon literals below; a typo fails the standard_bogons unit test immediately"
)]
pub fn standard_bogons() -> PrefixSet {
    PrefixSet::from_prefixes(
        [
            "0.0.0.0/8",       // "this network"
            "10.0.0.0/8",      // RFC 1918
            "100.64.0.0/10",   // CGNAT (RFC 6598)
            "127.0.0.0/8",     // loopback
            "169.254.0.0/16",  // link-local
            "172.16.0.0/12",   // RFC 1918
            "192.0.0.0/24",    // IETF protocol assignments
            "192.0.2.0/24",    // TEST-NET-1
            "192.168.0.0/16",  // RFC 1918
            "198.18.0.0/15",   // benchmarking
            "198.51.100.0/24", // TEST-NET-2
            "203.0.113.0/24",  // TEST-NET-3
            "224.0.0.0/4",     // multicast
            "240.0.0.0/4",     // reserved
        ]
        .iter()
        .map(|s| s.parse().expect("static bogon prefix")),
    )
}

/// Longest-prefix-match table mapping prefixes to values of type `T`.
///
/// Lookup probes each populated prefix length from longest to shortest —
/// at most 33 hash probes, in practice 3–5 because registries only use a
/// handful of lengths.
#[derive(Debug, Clone)]
pub struct PrefixMap<T> {
    /// maps (masked address) -> value, one map per populated prefix length.
    by_len: Vec<(u8, FastMap<u32, T>)>,
}

impl<T> Default for PrefixMap<T> {
    fn default() -> Self {
        PrefixMap { by_len: Vec::new() }
    }
}

impl<T> PrefixMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a prefix → value mapping. Returns the previous value if the
    /// exact prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let pos = match self.by_len.binary_search_by(|(l, _)| prefix.len.cmp(l)) {
            Ok(i) => i,
            Err(i) => {
                self.by_len.insert(i, (prefix.len, FastMap::default()));
                i
            }
        };
        self.by_len[pos].1.insert(prefix.network.to_u32(), value)
    }

    /// Longest-prefix match for `addr`.
    pub fn lookup(&self, addr: Ipv4Addr4) -> Option<&T> {
        let a = addr.to_u32();
        for (len, map) in &self.by_len {
            if let Some(v) = map.get(&(a & Prefix::mask(*len))) {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_parse_display() {
        let pr = p("10.64.0.0/13");
        assert_eq!(pr.to_string(), "10.64.0.0/13");
        assert_eq!(pr.size(), 1 << 19);
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn host_bits_are_zeroed() {
        let pr = Prefix::new(Ipv4Addr4::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(pr.network, Ipv4Addr4::new(10, 1, 0, 0));
    }

    #[test]
    fn contains_and_bounds() {
        let pr = p("192.0.2.0/24");
        assert!(pr.contains(Ipv4Addr4::new(192, 0, 2, 0)));
        assert!(pr.contains(Ipv4Addr4::new(192, 0, 2, 255)));
        assert!(!pr.contains(Ipv4Addr4::new(192, 0, 3, 0)));
        assert_eq!(pr.first(), Ipv4Addr4::new(192, 0, 2, 0));
        assert_eq!(pr.last(), Ipv4Addr4::new(192, 0, 2, 255));
    }

    #[test]
    fn zero_length_prefix_covers_everything() {
        let pr = p("0.0.0.0/0");
        assert_eq!(pr.size(), 1 << 32);
        assert!(pr.contains(Ipv4Addr4(u32::MAX)));
        assert!(pr.contains(Ipv4Addr4::UNSPECIFIED));
    }

    #[test]
    fn index_roundtrip() {
        let pr = p("198.51.100.0/24");
        for i in [0u32, 1, 100, 255] {
            let a = pr.addr_at(i).unwrap();
            assert_eq!(pr.index_of(a), Some(i));
        }
        assert_eq!(pr.addr_at(256), None);
        assert_eq!(pr.index_of(Ipv4Addr4::new(198, 51, 101, 0)), None);
    }

    #[test]
    fn prefix_set_merges_overlaps() {
        let set =
            PrefixSet::from_prefixes(vec![p("10.0.0.0/25"), p("10.0.0.128/25"), p("10.0.0.0/24")]);
        assert_eq!(set.ranges, [(0x0a00_0000, 0x0a00_00ff)]);
        assert!(set.contains(Ipv4Addr4::new(10, 0, 0, 200)));
        assert!(!set.contains(Ipv4Addr4::new(10, 0, 1, 0)));
    }

    #[test]
    fn prefix_set_disjoint() {
        let set = PrefixSet::from_prefixes(vec![p("10.0.0.0/24"), p("172.16.0.0/16")]);
        assert_eq!(set.ranges.len(), 2);
        assert!(set.contains(Ipv4Addr4::new(172, 16, 200, 1)));
        assert!(!set.contains(Ipv4Addr4::new(172, 17, 0, 0)));
        assert!(!set.contains(Ipv4Addr4::new(9, 255, 255, 255)));
    }

    #[test]
    fn empty_set() {
        let set = PrefixSet::empty();
        assert!(set.ranges.is_empty());
        assert!(!set.contains(Ipv4Addr4::new(1, 2, 3, 4)));
    }

    #[test]
    fn prefix_map_longest_match_wins() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), "big");
        m.insert(p("10.1.0.0/16"), "medium");
        m.insert(p("10.1.2.0/24"), "small");
        assert_eq!(m.lookup(Ipv4Addr4::new(10, 1, 2, 3)), Some(&"small"));
        assert_eq!(m.lookup(Ipv4Addr4::new(10, 1, 9, 9)), Some(&"medium"));
        assert_eq!(m.lookup(Ipv4Addr4::new(10, 200, 0, 1)), Some(&"big"));
        assert_eq!(m.lookup(Ipv4Addr4::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn prefix_map_replace() {
        let mut m = PrefixMap::new();
        assert_eq!(m.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(m.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(m.lookup(Ipv4Addr4::new(10, 0, 0, 1)), Some(&2));
    }

    #[test]
    fn bogons_cover_martians_not_public_space() {
        let b = standard_bogons();
        for bad in
            ["127.0.0.1", "10.1.2.3", "192.168.1.1", "224.0.0.5", "255.255.255.255", "169.254.9.9"]
        {
            assert!(b.contains(bad.parse().unwrap()), "{bad}");
        }
        for good in ["8.8.8.8", "1.1.1.1", "151.101.0.1", "205.0.0.1"] {
            assert!(!b.contains(good.parse().unwrap()), "{good}");
        }
    }
}
