//! IP → AS/organization/country attribution.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::prefix::{Prefix, PrefixMap};
use std::fmt;

/// Coarse AS categories, following the paper's Table 5 labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsType {
    /// Public cloud providers.
    Cloud,
    /// Access and transit networks.
    Isp,
    /// Dedicated/colocation hosting.
    Hosting,
    /// Universities and research networks.
    Education,
    /// Everything else with its own AS.
    Enterprise,
}

impl AsType {
    /// Label as printed in Table 5 ("Cloud", "ISP", "Host.", ...).
    pub fn label(self) -> &'static str {
        match self {
            AsType::Cloud => "Cloud",
            AsType::Isp => "ISP",
            AsType::Hosting => "Host.",
            AsType::Education => "Edu.",
            AsType::Enterprise => "Ent.",
        }
    }
}

/// ISO-3166-alpha-2-style country code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Wrap a two-letter code.
    pub const fn new(code: &[u8; 2]) -> CountryCode {
        CountryCode(*code)
    }

    /// The code as a string ("??" if not valid UTF-8).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("??")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Metadata for one autonomous system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// Autonomous-system number.
    pub asn: u32,
    /// Organization name, as registries print it.
    pub org: String,
    /// Coarse category (Table 5 labels).
    pub as_type: AsType,
    /// Registration country.
    pub country: CountryCode,
}

/// A registry mapping announced prefixes to AS metadata, built once
/// from its announcements. A later announcement of the exact same prefix
/// replaces an earlier one.
#[derive(Debug, Clone, Default)]
pub struct AsnDb {
    map: PrefixMap<AsInfo>,
}

impl FromIterator<(Prefix, AsInfo)> for AsnDb {
    fn from_iter<I: IntoIterator<Item = (Prefix, AsInfo)>>(announcements: I) -> AsnDb {
        AsnDb { map: announcements.into_iter().collect() }
    }
}

impl AsnDb {
    /// Longest-prefix attribution for an address.
    pub fn lookup(&self, addr: Ipv4Addr4) -> Option<&AsInfo> {
        self.map.lookup(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(asn: u32, org: &str, t: AsType, cc: &[u8; 2]) -> AsInfo {
        AsInfo { asn, org: org.to_string(), as_type: t, country: CountryCode::new(cc) }
    }

    #[test]
    fn lookup_longest_prefix() {
        let db: AsnDb = [
            ("100.0.0.0/8".parse().unwrap(), info(1, "BigCloud", AsType::Cloud, b"US")),
            ("100.1.0.0/16".parse().unwrap(), info(2, "SubISP", AsType::Isp, b"CN")),
        ]
        .into_iter()
        .collect();
        let a = db.lookup(Ipv4Addr4::new(100, 1, 2, 3)).unwrap();
        assert_eq!(a.asn, 2);
        assert_eq!(a.country.as_str(), "CN");
        let b = db.lookup(Ipv4Addr4::new(100, 200, 0, 1)).unwrap();
        assert_eq!(b.asn, 1);
        assert!(db.lookup(Ipv4Addr4::new(99, 0, 0, 1)).is_none());
    }

    #[test]
    fn as_type_labels() {
        assert_eq!(AsType::Cloud.label(), "Cloud");
        assert_eq!(AsType::Hosting.label(), "Host.");
        assert_eq!(AsType::Isp.label(), "ISP");
    }

    #[test]
    fn country_display() {
        assert_eq!(CountryCode::new(b"TW").to_string(), "TW");
        assert_eq!(CountryCode([0xff, 0xff]).as_str(), "??");
    }
}
