//! Reverse DNS: PTR records and keyword matching.
//!
//! The paper's second Acknowledged-Scanner match stage compiles 48
//! keywords from the rDNS names of known research scanners ("shodan",
//! "censys-scanner", ...) and flags any hitter whose PTR record contains
//! one.

use ah_net::ipv4::Ipv4Addr4;
use std::collections::HashMap;

/// A PTR-record table.
#[derive(Debug, Clone, Default)]
pub struct RdnsTable {
    records: HashMap<Ipv4Addr4, String>,
}

impl RdnsTable {
    /// An empty table.
    pub fn new() -> RdnsTable {
        RdnsTable::default()
    }

    /// Set the PTR record for an address (lowercased on insert, as DNS
    /// names are case-insensitive).
    pub fn insert(&mut self, addr: Ipv4Addr4, name: &str) {
        self.records.insert(addr, name.to_ascii_lowercase());
    }

    /// Look up the PTR record.
    pub(crate) fn lookup(&self, addr: Ipv4Addr4) -> Option<&str> {
        self.records.get(&addr).map(String::as_str)
    }
}

/// Case-insensitive keyword scan over a domain name.
///
/// Keywords are matched as substrings, like the paper's grep over PTR
/// names; callers pre-lowercase their keyword lists.
pub(crate) fn matches_keyword<'k>(name: &str, keywords: &'k [String]) -> Option<&'k str> {
    let lower = name.to_ascii_lowercase();
    keywords.iter().find(|k| !k.is_empty() && lower.contains(k.as_str())).map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup() {
        let mut t = RdnsTable::new();
        let a = Ipv4Addr4::new(1, 2, 3, 4);
        t.insert(a, "Scanner-07.Research.EXAMPLE.edu");
        assert_eq!(t.lookup(a), Some("scanner-07.research.example.edu"));
        assert_eq!(t.lookup(Ipv4Addr4::new(4, 3, 2, 1)), None);
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn keyword_match_is_substring_and_case_insensitive() {
        let kws = vec!["censys".to_string(), "shadowserver".to_string()];
        assert_eq!(matches_keyword("scan-3.CENSYS.io", &kws), Some("censys"));
        assert_eq!(matches_keyword("probe.shadowserver.org", &kws), Some("shadowserver"));
        assert_eq!(matches_keyword("mail.example.com", &kws), None);
    }

    #[test]
    fn empty_keywords_never_match() {
        let kws = vec![String::new()];
        assert_eq!(matches_keyword("anything.example", &kws), None);
        assert_eq!(matches_keyword("anything.example", &[]), None);
    }
}
