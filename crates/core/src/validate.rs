//! Cross-validation of hitter lists against external intelligence:
//! the Acknowledged-Scanners list (Table 6) and the GreyNoise-style
//! honeypot (Table 9, Figure 6 left, and the 99.3% overlap claim).

use crate::defs::Definition;
use crate::detector::AhReport;
use ah_intel::acked::AckedScanners;
use ah_intel::greynoise::{GnClassification, GnEntry};
use ah_intel::rdns::RdnsTable;
use ah_net::ipv4::Ipv4Addr4;
use std::collections::{HashMap, HashSet};

/// Table 6 column: acknowledged-scanner validation for one definition.
#[derive(Debug, Clone)]
pub struct AckedValidation {
    /// Hitters matched by exact IP.
    pub ip_matches: u64,
    /// Hitters matched only via reverse-DNS keyword.
    pub domain_matches: u64,
    /// Total acknowledged hitters.
    pub total_ips: u64,
    /// Packets from acknowledged hitters (darknet events).
    pub packets: u64,
    /// Their share of all hitter packets, in percent.
    pub packets_pct_of_ah: f64,
    /// Distinct acknowledged organizations seen.
    pub orgs: u64,
    /// The acknowledged hitter set (for downstream filtering).
    pub ips: HashSet<Ipv4Addr4>,
}

/// Run the two-stage acknowledged match over a definition's hitters.
pub fn acked_validation(
    report: &AhReport,
    def: Definition,
    acked: &AckedScanners,
    rdns: &RdnsTable,
) -> AckedValidation {
    let mut ip_matches = 0u64;
    let mut domain_matches = 0u64;
    let mut orgs: HashSet<String> = HashSet::new();
    let mut ips: HashSet<Ipv4Addr4> = HashSet::new();
    for ip in report.hitters(def) {
        if let Some(m) = acked.matches(*ip, rdns) {
            if m.is_ip_match() {
                ip_matches += 1;
            } else {
                domain_matches += 1;
            }
            orgs.insert(m.org().to_string());
            ips.insert(*ip);
        }
    }
    let mut acked_packets = 0u64;
    let mut all_packets = 0u64;
    for r in report.hitter_records(def) {
        all_packets += u64::from(r.packets);
        if ips.contains(&r.key.src) {
            acked_packets += u64::from(r.packets);
        }
    }
    AckedValidation {
        ip_matches,
        domain_matches,
        total_ips: ips.len() as u64,
        packets: acked_packets,
        packets_pct_of_ah: if all_packets == 0 {
            0.0
        } else {
            100.0 * acked_packets as f64 / all_packets as f64
        },
        orgs: orgs.len() as u64,
        ips,
    }
}

/// Figure 6 (left): GreyNoise-based breakdown of a hitter population.
#[derive(Debug, Clone, Copy, Default)]
pub struct GnBreakdown {
    /// Hitters GreyNoise classifies as benign (vetted researchers).
    pub benign: u64,
    /// Hitters with malicious tags (worms, bruteforcers, exploits).
    pub malicious: u64,
    /// Hitters seen by sensors but not classifiable either way.
    pub unknown: u64,
    /// Hitters never seen by any honeypot sensor (localized scanners).
    pub absent: u64,
}

impl GnBreakdown {
    /// Size of the whole population broken down.
    pub fn total(&self) -> u64 {
        self.benign + self.malicious + self.unknown + self.absent
    }
}

/// Classify a hitter population against finalized honeypot entries.
/// `exclude` removes acknowledged scanners first (the paper's Figure 6
/// studies the non-ACKed remainder; pass an empty set to keep everyone).
pub fn gn_breakdown(
    hitters: &HashSet<Ipv4Addr4>,
    gn: &HashMap<Ipv4Addr4, GnEntry>,
    exclude: &HashSet<Ipv4Addr4>,
) -> GnBreakdown {
    let mut out = GnBreakdown::default();
    for ip in hitters {
        if exclude.contains(ip) {
            continue;
        }
        match gn.get(ip).map(|e| e.classification) {
            Some(GnClassification::Benign) => out.benign += 1,
            Some(GnClassification::Malicious) => out.malicious += 1,
            Some(GnClassification::Unknown) => out.unknown += 1,
            None => out.absent += 1,
        }
    }
    out
}

/// Table 9: tag histogram over the non-acknowledged hitters present in
/// the honeypot data, sorted descending.
pub fn gn_tag_table(
    hitters: &HashSet<Ipv4Addr4>,
    gn: &HashMap<Ipv4Addr4, GnEntry>,
    exclude: &HashSet<Ipv4Addr4>,
    top: usize,
) -> Vec<(String, u64)> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for ip in hitters {
        if exclude.contains(ip) {
            continue;
        }
        if let Some(e) = gn.get(ip) {
            for t in &e.tags {
                *counts.entry(t.clone()).or_default() += 1;
            }
        }
    }
    let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    rows
}

/// Average daily overlap between the detector's daily hitters and the
/// honeypot's observed sources (the paper reports 99.3% for June 2022).
pub fn daily_gn_overlap(
    report: &AhReport,
    def: Definition,
    gn: &HashMap<Ipv4Addr4, GnEntry>,
    days: std::ops::Range<u64>,
) -> f64 {
    let mut fracs = Vec::new();
    for day in days {
        if let Some(set) = report.daily_hitters(def, day) {
            if set.is_empty() {
                continue;
            }
            let hit = set.iter().filter(|ip| gn.contains_key(ip)).count();
            fracs.push(hit as f64 / set.len() as f64);
        }
    }
    if fracs.is_empty() {
        0.0
    } else {
        fracs.iter().sum::<f64>() / fracs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, DetectorConfig};
    use ah_intel::acked::AckedOrg;
    use ah_net::packet::ScanClass;
    use ah_telescope::event::{DarknetEvent, EventKey};

    fn ip(n: u8) -> Ipv4Addr4 {
        Ipv4Addr4::new(104, 0, 0, n)
    }

    fn event(src: Ipv4Addr4, day: u16, packets: u32, unique: u32) -> DarknetEvent {
        DarknetEvent {
            key: EventKey { src, dst_port: 443, class: ScanClass::TcpSyn },
            start_day: day,
            end_day: day,
            packets,
            unique_dsts: unique,
            zmap: 0,
            masscan: 0,
        }
    }

    fn report() -> AhReport {
        let mut d = Detector::new(DetectorConfig::new(1000));
        d.ingest(&event(ip(1), 0, 600, 150)); // acked by IP list
        d.ingest(&event(ip(2), 0, 300, 140)); // acked via rDNS
        d.ingest(&event(ip(3), 0, 100, 130)); // not acked
        d.finalize()
    }

    fn acked() -> AckedScanners {
        AckedScanners::new(vec![AckedOrg {
            name: "ScanOrg".into(),
            ips: vec![ip(1)],
            keywords: vec!["scanorg".into()],
        }])
    }

    #[test]
    fn acked_validation_counts_stages() {
        let mut rdns = RdnsTable::new();
        rdns.insert(ip(2), "probe.scanorg.example");
        let v = acked_validation(&report(), Definition::AddressDispersion, &acked(), &rdns);
        assert_eq!(v.ip_matches, 1);
        assert_eq!(v.domain_matches, 1);
        assert_eq!(v.total_ips, 2);
        assert_eq!(v.orgs, 1);
        assert_eq!(v.packets, 900);
        assert!((v.packets_pct_of_ah - 90.0).abs() < 1e-9);
        assert!(v.ips.contains(&ip(1)) && v.ips.contains(&ip(2)));
    }

    fn gn_map(entries: &[(Ipv4Addr4, GnClassification, &[&str])]) -> HashMap<Ipv4Addr4, GnEntry> {
        entries
            .iter()
            .map(|(ip, c, tags)| {
                (
                    *ip,
                    GnEntry {
                        classification: *c,
                        tags: tags.iter().map(|s| s.to_string()).collect(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn breakdown_counts_each_class() {
        let hitters: HashSet<_> = [ip(1), ip(2), ip(3), ip(4)].into_iter().collect();
        let gn = gn_map(&[
            (ip(1), GnClassification::Benign, &[]),
            (ip(2), GnClassification::Malicious, &["Mirai"]),
            (ip(3), GnClassification::Unknown, &["ZMap Client"]),
        ]);
        let b = gn_breakdown(&hitters, &gn, &HashSet::new());
        assert_eq!((b.benign, b.malicious, b.unknown, b.absent), (1, 1, 1, 1));
        // Excluding the acked IP removes the benign row.
        let excl: HashSet<_> = [ip(1)].into_iter().collect();
        let b2 = gn_breakdown(&hitters, &gn, &excl);
        assert_eq!(b2.benign, 0);
        assert_eq!(b2.total(), 3);
    }

    #[test]
    fn tag_table_sorted() {
        let hitters: HashSet<_> = [ip(1), ip(2), ip(3)].into_iter().collect();
        let gn = gn_map(&[
            (ip(1), GnClassification::Unknown, &["ZMap Client", "Web Crawler"]),
            (ip(2), GnClassification::Malicious, &["Mirai"]),
            (ip(3), GnClassification::Unknown, &["ZMap Client"]),
        ]);
        let rows = gn_tag_table(&hitters, &gn, &HashSet::new(), 10);
        assert_eq!(rows[0], ("ZMap Client".to_string(), 2));
        assert_eq!(rows.len(), 3);
        let top1 = gn_tag_table(&hitters, &gn, &HashSet::new(), 1);
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn daily_overlap_average() {
        let r = report();
        let seen = gn_map(&[
            (ip(1), GnClassification::Unknown, &[]),
            (ip(2), GnClassification::Malicious, &[]),
        ]);
        // Day 0 daily hitters = {1,2,3}; two of three seen.
        let o = daily_gn_overlap(&r, Definition::AddressDispersion, &seen, 0..3);
        assert!((o - 2.0 / 3.0).abs() < 1e-9);
    }
}
