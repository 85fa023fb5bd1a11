//! The "Acknowledged Scanners" list.
//!
//! Collins' public list enumerates organizations that disclose their
//! scanning intent (research scanners) along with their source IPs. The
//! paper flags a hitter as "ACKed" when (i) its IP appears on the list,
//! or (ii) its reverse-DNS name contains one of 48 keywords compiled from
//! the listed organizations' PTR records. The second stage is what finds
//! the ~7,600 research IPs the list itself misses.

use crate::rdns::{matches_keyword, RdnsTable};
use ah_net::ipv4::Ipv4Addr4;
use std::collections::HashMap;

/// One acknowledged organization.
#[derive(Debug, Clone)]
pub struct AckedOrg {
    /// Organization name as published on the list.
    pub name: String,
    /// Source IPs the org discloses.
    pub ips: Vec<Ipv4Addr4>,
    /// rDNS keywords attributable to this org (lowercase).
    pub keywords: Vec<String>,
}

/// How a hitter matched the acknowledged list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckedMatch {
    /// The IP is on the published list.
    IpList {
        /// Matched organization name.
        org: String,
    },
    /// The IP's PTR record contains an org keyword.
    Domain {
        /// Matched organization name.
        org: String,
        /// The keyword that hit.
        keyword: String,
    },
}

impl AckedMatch {
    /// The matched organization name.
    pub fn org(&self) -> &str {
        match self {
            AckedMatch::IpList { org } | AckedMatch::Domain { org, .. } => org,
        }
    }

    /// True for stage-1 (exact IP) matches.
    pub fn is_ip_match(&self) -> bool {
        matches!(self, AckedMatch::IpList { .. })
    }
}

/// The compiled acknowledged-scanners list with both match stages.
#[derive(Debug, Clone, Default)]
pub struct AckedScanners {
    orgs: Vec<AckedOrg>,
    ip_index: HashMap<Ipv4Addr4, usize>,
    /// (keyword, org index) pairs, all lowercase.
    keywords: Vec<(String, usize)>,
}

impl AckedScanners {
    /// Compile a list of organizations into the two-stage matcher.
    pub fn new(orgs: Vec<AckedOrg>) -> AckedScanners {
        let mut ip_index = HashMap::new();
        let mut keywords = Vec::new();
        for (i, org) in orgs.iter().enumerate() {
            for ip in &org.ips {
                ip_index.insert(*ip, i);
            }
            for kw in &org.keywords {
                if !kw.is_empty() {
                    keywords.push((kw.to_ascii_lowercase(), i));
                }
            }
        }
        AckedScanners { orgs, ip_index, keywords }
    }

    /// Number of organizations on the list.
    pub fn org_count(&self) -> usize {
        self.orgs.len()
    }

    /// Total disclosed IPs.
    pub fn ip_count(&self) -> usize {
        self.ip_index.len()
    }

    /// The paper's two-stage match: exact IP first, then rDNS keyword.
    pub fn matches(&self, ip: Ipv4Addr4, rdns: &RdnsTable) -> Option<AckedMatch> {
        if let Some(&i) = self.ip_index.get(&ip) {
            return Some(AckedMatch::IpList { org: self.orgs[i].name.clone() });
        }
        let name = rdns.lookup(ip)?;
        let kw_strings: Vec<String> = self.keywords.iter().map(|(k, _)| k.clone()).collect();
        let hit = matches_keyword(name, &kw_strings)?;
        // The hit came from this table, so the lookup always succeeds;
        // `?` (rather than a panic path) keeps the impossible branch a
        // graceful no-match.
        let org_idx = self.keywords.iter().find(|(k, _)| k == hit).map(|(_, i)| *i)?;
        Some(AckedMatch::Domain { org: self.orgs[org_idx].name.clone(), keyword: hit.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> AckedScanners {
        AckedScanners::new(vec![
            AckedOrg {
                name: "Censys-like".into(),
                ips: vec![Ipv4Addr4::new(100, 0, 0, 1), Ipv4Addr4::new(100, 0, 0, 2)],
                keywords: vec!["censys-like".into()],
            },
            AckedOrg {
                name: "ShadowLab".into(),
                ips: vec![Ipv4Addr4::new(101, 0, 0, 1)],
                keywords: vec!["shadowlab".into(), "research-probe".into()],
            },
        ])
    }

    #[test]
    fn ip_stage_matches_first() {
        let acked = list();
        let rdns = RdnsTable::new();
        let m = acked.matches(Ipv4Addr4::new(100, 0, 0, 2), &rdns).unwrap();
        assert!(m.is_ip_match());
        assert_eq!(m.org(), "Censys-like");
    }

    #[test]
    fn domain_stage_catches_unlisted_ips() {
        let acked = list();
        let mut rdns = RdnsTable::new();
        let extra = Ipv4Addr4::new(100, 0, 0, 99); // not on the list
        rdns.insert(extra, "probe7.ShadowLab.example.org");
        let m = acked.matches(extra, &rdns).unwrap();
        assert_eq!(m, AckedMatch::Domain { org: "ShadowLab".into(), keyword: "shadowlab".into() });
        assert!(!m.is_ip_match());
    }

    #[test]
    fn unknown_ip_without_rdns_does_not_match() {
        let acked = list();
        let rdns = RdnsTable::new();
        assert_eq!(acked.matches(Ipv4Addr4::new(9, 9, 9, 9), &rdns), None);
    }

    #[test]
    fn non_matching_rdns_does_not_match() {
        let acked = list();
        let mut rdns = RdnsTable::new();
        let ip = Ipv4Addr4::new(9, 9, 9, 9);
        rdns.insert(ip, "mail.corporate.example.com");
        assert_eq!(acked.matches(ip, &rdns), None);
    }

    #[test]
    fn counts() {
        let acked = list();
        assert_eq!(acked.org_count(), 2);
        assert_eq!(acked.ip_count(), 3);
        assert_eq!(acked.keywords.len(), 3);
    }
}
