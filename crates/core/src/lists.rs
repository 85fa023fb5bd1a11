//! Set algebra and population breakdowns over hitter lists.
//!
//! Supports Table 7 (populations and intersections across definitions, at
//! IP / ASN / organization / country granularity) and the Jaccard-score
//! comparison of definitions 1 and 2 (Section 3).

use ah_intel::asn::AsnDb;
use ah_net::ipv4::Ipv4Addr4;
use std::collections::HashSet;

/// Jaccard similarity |A∩B| / |A∪B| (1.0 for two empty sets).
pub fn jaccard(a: &HashSet<Ipv4Addr4>, b: &HashSet<Ipv4Addr4>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    inter / union
}

/// Intersection of two hitter sets.
pub fn intersect(a: &HashSet<Ipv4Addr4>, b: &HashSet<Ipv4Addr4>) -> HashSet<Ipv4Addr4> {
    a.intersection(b).copied().collect()
}

/// Intersection of three hitter sets.
pub fn intersect3(
    a: &HashSet<Ipv4Addr4>,
    b: &HashSet<Ipv4Addr4>,
    c: &HashSet<Ipv4Addr4>,
) -> HashSet<Ipv4Addr4> {
    a.iter().filter(|ip| b.contains(ip) && c.contains(ip)).copied().collect()
}

/// A population counted at the four granularities of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCounts {
    /// Distinct source IPs.
    pub ips: u64,
    /// Distinct origin ASNs.
    pub asns: u64,
    /// Distinct organizations.
    pub orgs: u64,
    /// Distinct origin countries.
    pub countries: u64,
}

/// Count a hitter set at IP/ASN/org/country level using the registry.
/// Unattributable IPs (no covering announcement) count toward `ips` only.
pub fn level_counts(set: &HashSet<Ipv4Addr4>, db: &AsnDb) -> LevelCounts {
    let mut asns = HashSet::new();
    let mut orgs = HashSet::new();
    let mut countries = HashSet::new();
    for ip in set {
        if let Some(info) = db.lookup(*ip) {
            asns.insert(info.asn);
            orgs.insert(info.org.clone());
            countries.insert(info.country);
        }
    }
    LevelCounts {
        ips: set.len() as u64,
        asns: asns.len() as u64,
        orgs: orgs.len() as u64,
        countries: countries.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_intel::asn::{AsInfo, AsType, CountryCode};

    fn ip(n: u8) -> Ipv4Addr4 {
        Ipv4Addr4::new(100, 64, 0, n)
    }

    fn set(ids: &[u8]) -> HashSet<Ipv4Addr4> {
        ids.iter().map(|&n| ip(n)).collect()
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&set(&[]), &set(&[])), 1.0);
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[1, 2])), 1.0);
        let j = jaccard(&set(&[1, 2, 3, 4]), &set(&[3, 4, 5, 6]));
        assert!((j - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn intersections() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4]);
        let c = set(&[3, 4, 5]);
        assert_eq!(intersect(&a, &b), set(&[2, 3]));
        assert_eq!(intersect3(&a, &b, &c), set(&[3]));
    }

    #[test]
    fn level_counting() {
        let db: AsnDb = [
            (
                "100.64.0.0/25".parse().unwrap(),
                AsInfo {
                    asn: 1,
                    org: "A".into(),
                    as_type: AsType::Cloud,
                    country: CountryCode::new(b"US"),
                },
            ),
            (
                "100.64.0.128/25".parse().unwrap(),
                AsInfo {
                    asn: 2,
                    org: "B".into(),
                    as_type: AsType::Isp,
                    country: CountryCode::new(b"US"),
                },
            ),
        ]
        .into_iter()
        .collect();
        let s = set(&[1, 2, 130, 131]);
        let c = level_counts(&s, &db);
        assert_eq!(c.ips, 4);
        assert_eq!(c.asns, 2);
        assert_eq!(c.orgs, 2);
        assert_eq!(c.countries, 1);
    }

    #[test]
    fn unattributed_ips_count_as_ips_only() {
        let db = AsnDb::default();
        let c = level_counts(&set(&[1, 2]), &db);
        assert_eq!(c.ips, 2);
        assert_eq!(c.asns, 0);
        assert_eq!(c.countries, 0);
    }
}
