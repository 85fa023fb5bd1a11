//! The observable-space scaling trick.
//!
//! A real Internet-wide scanner sweeps all 2³² addresses; our vantage
//! points (dark space, two ISPs, honeypot sensors) only ever see the tiny
//! sub-stream landing inside their prefixes. Materializing the other
//! 99.97% of probes would waste nearly all simulation time, so actors
//! draw targets directly from the *observable space* — the union of all
//! monitored prefixes, indexed densely — and their conceptual Internet
//! rate `R` is thinned to an observable rate
//! `R_obs = R · |observable| / 2³²`.
//!
//! This preserves exactly the quantities the paper measures: address
//! dispersion is a *fraction* of the dark space, packet-volume and
//! port-count thresholds are percentiles, and a scanner covering a
//! fraction `f` of IPv4 covers in expectation the same fraction `f` of
//! every observable prefix.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::prefix::Prefix;

/// `i % n` for an `i` that is nearly always below `n` already: the
/// hardware division only runs when it is not.
#[inline]
pub(crate) fn wrap_index(i: u64, n: u64) -> u64 {
    if i < n {
        i
    } else {
        i % n
    }
}

/// The union of monitored prefixes with a dense index space.
#[derive(Debug, Clone)]
pub struct ObservableSpace {
    prefixes: Vec<Prefix>,
    /// Cumulative sizes: `cum[i]` = first index of `prefixes[i]`.
    cum: Vec<u64>,
    total: u64,
}

impl ObservableSpace {
    /// Build from a list of (assumed disjoint) prefixes. Order is
    /// preserved: indices 0..size(p0) map into the first prefix, etc.
    pub fn new(prefixes: Vec<Prefix>) -> ObservableSpace {
        let mut cum = Vec::with_capacity(prefixes.len());
        let mut total = 0u64;
        for p in &prefixes {
            cum.push(total);
            total += p.size();
        }
        ObservableSpace { prefixes, cum, total }
    }

    /// Number of observable addresses.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the space contains no addresses.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Address at a dense index.
    pub fn addr_at(&self, index: u64) -> Option<Ipv4Addr4> {
        if index >= self.total {
            return None;
        }
        // Find the prefix containing the index: last cum[i] <= index.
        let i = match self.cum.binary_search(&index) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.prefixes[i].addr_at((index - self.cum[i]) as u32)
    }

    /// Address at `index % len`: cycling lookup for actors that draw
    /// random in-range indices and want an address unconditionally.
    ///
    /// Actors draw `index` from `below(len)` or a permutation of
    /// `0..len`, so it is nearly always in range already.
    #[expect(
        clippy::expect_used,
        reason = "index is reduced modulo the space size and every scenario monitors at least one prefix, so the space is non-empty"
    )]
    pub(crate) fn addr_mod(&self, index: u64) -> Ipv4Addr4 {
        self.addr_at(wrap_index(index, self.total.max(1))).expect("non-empty observable space")
    }

    /// Dense index of an observable address.
    pub fn index_of(&self, addr: Ipv4Addr4) -> Option<u64> {
        self.prefixes
            .iter()
            .zip(&self.cum)
            .find_map(|(p, base)| p.index_of(addr).map(|i| base + u64::from(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ObservableSpace {
        ObservableSpace::new(vec![
            "20.0.0.0/24".parse().unwrap(), // 256
            "10.0.0.0/30".parse().unwrap(), // 4
            "50.1.0.0/31".parse().unwrap(), // 2
        ])
    }

    #[test]
    fn total_size() {
        assert_eq!(space().len(), 262);
        assert!(!space().is_empty());
    }

    #[test]
    fn addr_at_spans_prefixes() {
        let s = space();
        assert_eq!(s.addr_at(0), Some(Ipv4Addr4::new(20, 0, 0, 0)));
        assert_eq!(s.addr_at(255), Some(Ipv4Addr4::new(20, 0, 0, 255)));
        assert_eq!(s.addr_at(256), Some(Ipv4Addr4::new(10, 0, 0, 0)));
        assert_eq!(s.addr_at(259), Some(Ipv4Addr4::new(10, 0, 0, 3)));
        assert_eq!(s.addr_at(260), Some(Ipv4Addr4::new(50, 1, 0, 0)));
        assert_eq!(s.addr_at(261), Some(Ipv4Addr4::new(50, 1, 0, 1)));
        assert_eq!(s.addr_at(262), None);
    }

    #[test]
    fn index_roundtrip() {
        let s = space();
        for i in 0..s.len() {
            let a = s.addr_at(i).unwrap();
            assert_eq!(s.index_of(a), Some(i), "index {i} addr {a}");
        }
        assert_eq!(s.index_of(Ipv4Addr4::new(9, 9, 9, 9)), None);
    }
}
