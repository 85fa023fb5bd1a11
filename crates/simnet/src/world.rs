//! The synthetic world: address plan, organizations, and intel builders.
//!
//! Mirrors the paper's measurement geography at a configurable scale:
//! a Merit-like ISP (user space, in-network content caches, and the dark
//! block the telescope watches), a CU-like campus network with *no*
//! caches, a fleet of GreyNoise-style sensors, and an external Internet
//! of scanner-originating and benign organizations whose AS types,
//! countries and regions are shaped like Table 5's origin mix.
//!
//! Organization names are synthetic: the paper anonymizes origin networks
//! ("Cloud (US)", "ISP (CN)", ...), and so do we.

use crate::space::ObservableSpace;
use ah_flow::router::{RoutePolicy, RouterId};
use ah_intel::acked::{AckedOrg, AckedScanners};
use ah_intel::asn::{AsInfo, AsType, AsnDb, CountryCode};
use ah_intel::rdns::RdnsTable;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::prefix::{Prefix, PrefixMap, PrefixSet};

/// Routing regions: which cluster of upstream peers announces an external
/// prefix toward the ISP. Determines the Table 2 router skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Europe/Asia — enters mostly at router-1 (its tier-1 upstreams).
    AsiaEu,
    /// North America — mostly router-2.
    NorthAm,
    /// Research networks — mostly router-3 (R&E peerings).
    Research,
    /// Content/CDN networks.
    Content,
    /// Everything else.
    Other,
}

impl Region {
    /// Per-region probability (in percent) that a given internal block is
    /// reached via router 1, 2, 3. Rows sum to 100.
    pub(crate) fn router_weights(self) -> [u32; 3] {
        match self {
            Region::AsiaEu => [62, 24, 14],
            Region::NorthAm => [30, 50, 20],
            Region::Research => [14, 26, 60],
            Region::Content => [30, 40, 30],
            Region::Other => [34, 33, 33],
        }
    }
}

/// One external organization (an AS).
#[derive(Debug, Clone)]
pub struct OrgDef {
    /// Organization name (feeds rDNS and the acknowledged list).
    name: String,
    /// Autonomous system number.
    asn: u32,
    /// Business type (cloud, ISP, research, ...).
    as_type: AsType,
    /// Registration country.
    country: CountryCode,
    /// Geographic region the country rolls up to.
    region: Region,
    /// Announced prefixes.
    pub(crate) prefixes: Vec<Prefix>,
    /// Some orgs disclose their scanning (Acknowledged Scanners). The
    /// keywords feed the reverse-DNS match stage.
    acked_keywords: Vec<String>,
}

impl OrgDef {
    /// Total addresses across the org's prefixes.
    pub fn size(&self) -> u64 {
        self.prefixes.iter().map(Prefix::size).sum()
    }

    /// The `i`-th address of the org (dense across its prefixes,
    /// wrapping). `None` for an org with no prefixes.
    pub fn host(&self, i: u64) -> Option<Ipv4Addr4> {
        let size = self.size();
        if size == 0 {
            return None;
        }
        let mut idx = i % size;
        for p in &self.prefixes {
            if idx < p.size() {
                return p.addr_at(idx as u32);
            }
            idx -= p.size();
        }
        None
    }

    /// The `i % size`-th host address. Like [`OrgDef::host`] but
    /// infallible, for scenario code indexing registry orgs — which
    /// always carry at least one prefix (see the registry tables in
    /// this module).
    #[expect(
        clippy::expect_used,
        reason = "host() is None only for an org with zero prefixes; every registry org carries at least one, as the unit tests assert"
    )]
    pub(crate) fn host_cycled(&self, i: u64) -> Ipv4Addr4 {
        self.host(i).expect("registry org has hosts")
    }

    /// Is this org on the acknowledged-scanners list?
    pub fn is_acked(&self) -> bool {
        !self.acked_keywords.is_empty()
    }
}

/// Parse a CIDR literal from this module's static tables.
#[expect(
    clippy::expect_used,
    reason = "applied only to compile-time CIDR literals in the static world registry; every table is exercised by unit tests"
)]
fn static_prefix(s: &str) -> Prefix {
    s.parse().expect("static prefix literal")
}

/// Scale-controlling sizes of the world's monitored networks.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// The telescope's dark block.
    pub dark: Prefix,
    /// Merit-like ISP user space.
    pub(crate) merit_users: Prefix,
    /// In-network content caches at Merit (internal; traffic to them
    /// never crosses the border routers).
    pub(crate) merit_caches: Prefix,
    /// CU-like campus user space (no caches).
    pub(crate) cu_users: Prefix,
    /// GreyNoise-style sensor prefixes.
    sensors: Vec<Prefix>,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            dark: static_prefix("20.0.0.0/18"),        // 16,384 dark IPs
            merit_users: static_prefix("10.0.0.0/17"), // 32,768 addrs, 128 /24s
            merit_caches: static_prefix("10.128.0.0/24"),
            cu_users: static_prefix("172.16.0.0/21"), // 2,048 addrs, 8 /24s
            sensors: vec![
                static_prefix("198.18.0.0/26"),
                static_prefix("198.18.64.0/26"),
                static_prefix("198.18.128.0/26"),
                static_prefix("198.18.192.0/26"),
            ],
        }
    }
}

impl WorldConfig {
    /// Smaller world for unit/integration tests.
    pub(crate) fn tiny() -> WorldConfig {
        WorldConfig {
            dark: static_prefix("20.0.0.0/22"),        // 1,024 dark IPs
            merit_users: static_prefix("10.0.0.0/22"), // 1,024
            merit_caches: static_prefix("10.128.0.0/26"),
            cu_users: static_prefix("172.16.0.0/24"), // 256
            sensors: vec![static_prefix("198.18.0.0/27")],
        }
    }
}

/// The assembled world.
#[derive(Debug, Clone)]
pub struct World {
    /// The address plan the world was built from.
    pub config: WorldConfig,
    /// External organizations, indexed by `OrgId`.
    pub orgs: Vec<OrgDef>,
    observable: ObservableSpace,
}

/// Index into [`World::orgs`].
pub(crate) type OrgId = usize;

impl World {
    /// Build the world with the standard organization registry.
    pub fn new(config: WorldConfig) -> World {
        let orgs = standard_orgs();
        let mut prefixes = vec![config.dark, config.merit_users, config.cu_users];
        prefixes.extend(config.sensors.iter().copied());
        let observable = ObservableSpace::new(prefixes);
        World { config, orgs, observable }
    }

    /// The scanner-observable space: the dark block, both ISPs' user
    /// spaces, and the sensors. Caches are excluded — they are content
    /// infrastructure, not scan targets of interest at this scale.
    pub(crate) fn observable(&self) -> &ObservableSpace {
        &self.observable
    }

    /// Find an org by name; `None` when no org carries it.
    pub(crate) fn org(&self, name: &str) -> Option<OrgId> {
        self.orgs.iter().position(|o| o.name == name)
    }

    /// The org `name` refers to, for scenario code naming orgs out of
    /// the static registry (where a miss is a typo, not a runtime
    /// condition). The panic path lives here, once and audited,
    /// instead of at every scenario call site.
    #[expect(
        clippy::expect_used,
        reason = "scenario definitions name orgs from the static registry built in this module; a miss is a construction bug every scenario test catches immediately"
    )]
    pub(crate) fn registry_org(&self, name: &str) -> &OrgDef {
        self.org(name).map(|id| &self.orgs[id]).expect("org exists in the static registry")
    }

    /// Orgs filtered by predicate.
    pub(crate) fn orgs_where(&self, pred: impl Fn(&OrgDef) -> bool) -> Vec<OrgId> {
        self.orgs.iter().enumerate().filter(|(_, o)| pred(o)).map(|(i, _)| i).collect()
    }

    /// Merit's internal address set (users + caches + dark block — the
    /// telescope block is routed by Merit, so probes to it transit
    /// Merit's border like any ingress traffic).
    pub fn merit_internal(&self) -> PrefixSet {
        PrefixSet::from_prefixes(vec![
            self.config.merit_users,
            self.config.merit_caches,
            self.config.dark,
        ])
    }

    /// CU's internal address set.
    pub fn cu_internal(&self) -> PrefixSet {
        PrefixSet::from_prefixes(vec![self.config.cu_users])
    }

    /// Sensor address set for the honeypot.
    pub fn sensor_set(&self) -> PrefixSet {
        PrefixSet::from_prefixes(self.config.sensors.clone())
    }

    /// Number of /24s in Merit's announced space (Figure 2 normalization).
    pub fn merit_slash24s(&self) -> u64 {
        (self.config.merit_users.size() + self.config.merit_caches.size() + self.config.dark.size())
            .div_ceil(256)
    }

    /// Number of /24s in CU's space.
    pub fn cu_slash24s(&self) -> u64 {
        self.config.cu_users.size().div_ceil(256)
    }

    /// Build the ASN registry over all orgs plus the monitored networks.
    pub fn asn_db(&self) -> AsnDb {
        let mut db = AsnDb::new();
        for o in &self.orgs {
            for p in &o.prefixes {
                db.announce(
                    *p,
                    AsInfo {
                        asn: o.asn,
                        org: o.name.clone(),
                        as_type: o.as_type,
                        country: o.country,
                    },
                );
            }
        }
        let merit = AsInfo {
            asn: 237,
            org: "Merit-like ISP".into(),
            as_type: AsType::Education,
            country: CountryCode::new(b"US"),
        };
        db.announce(self.config.merit_users, merit.clone());
        db.announce(self.config.merit_caches, merit.clone());
        db.announce(self.config.dark, merit);
        db.announce(
            self.config.cu_users,
            AsInfo {
                asn: 104,
                org: "CU-like Campus".into(),
                as_type: AsType::Education,
                country: CountryCode::new(b"US"),
            },
        );
        db
    }

    /// The `k`-th *cloud-hosted* scanning address of the `acked_idx`-th
    /// acknowledged org. Research scanners frequently rent VMs at the big
    /// cloud providers (the paper's Table 5 shows thousands of ACKed IPs
    /// inside the top US cloud), so acknowledged orgs scan both from
    /// their own prefixes and from these cloud slots.
    /// `None` when the registry has no "Umbra Cloud" org (custom
    /// registries) or the org has no prefixes.
    pub(crate) fn acked_cloud_host(&self, acked_idx: usize, k: u64) -> Option<Ipv4Addr4> {
        let umbra = &self.orgs[self.org("Umbra Cloud")?];
        umbra.host(50_000 + (acked_idx as u64) * 97 + k)
    }

    /// Build the acknowledged-scanners list.
    ///
    /// Mirrors the real list's incompleteness: only the first
    /// `disclosed_per_org` own-prefix addresses (plus half as many
    /// cloud-hosted ones) of each acked org are listed even though the
    /// org scans from more — the extras are only findable via the
    /// reverse-DNS keyword stage (Table 6's "Domain matches").
    pub fn acked_list(&self, disclosed_per_org: u64) -> AckedScanners {
        let orgs = self
            .orgs
            .iter()
            .filter(|o| o.is_acked())
            .enumerate()
            .map(|(idx, o)| {
                let mut ips: Vec<Ipv4Addr4> =
                    (0..disclosed_per_org.min(o.size())).filter_map(|i| o.host(i)).collect();
                ips.extend(
                    (0..disclosed_per_org / 2).filter_map(|k| self.acked_cloud_host(idx, k)),
                );
                AckedOrg { name: o.name.clone(), ips, keywords: o.acked_keywords.clone() }
            })
            .collect();
        AckedScanners::new(orgs)
    }

    /// Build the PTR table: acked-org addresses (own prefixes and cloud
    /// slots) resolve to names carrying the org's keyword.
    pub fn rdns(&self, hosts_per_acked_org: u64) -> RdnsTable {
        let mut t = RdnsTable::new();
        for (idx, o) in self.orgs.iter().filter(|o| o.is_acked()).enumerate() {
            let kw = &o.acked_keywords[0];
            for i in 0..hosts_per_acked_org.min(o.size()) {
                if let Some(h) = o.host(i) {
                    t.insert(h, &format!("probe-{i}.{kw}.example.org"));
                }
            }
            for k in 0..hosts_per_acked_org / 2 {
                if let Some(h) = self.acked_cloud_host(idx, k) {
                    t.insert(h, &format!("vm-{k}.{kw}.example.org"));
                }
            }
        }
        t
    }

    /// The Merit routing policy (see [`RegionRoutePolicy`]).
    pub fn merit_policy(&self) -> RegionRoutePolicy {
        let mut regions = PrefixMap::new();
        for o in &self.orgs {
            for p in &o.prefixes {
                regions.insert(*p, o.region);
            }
        }
        RegionRoutePolicy { regions, salt: 0x4d45_5249 }
    }
}

/// Region-weighted routing: the border router for (external, internal)
/// depends on the external org's region and, deterministically, on the
/// internal /22 block — so one scanner sweeping the whole ISP shows up at
/// all three routers with region-shaped packet shares (Table 8), while
/// region mixes skew aggregate shares (Table 2).
#[derive(Debug, Clone)]
pub struct RegionRoutePolicy {
    regions: PrefixMap<Region>,
    salt: u64,
}

impl RoutePolicy for RegionRoutePolicy {
    fn route(&self, external: Ipv4Addr4, internal: Ipv4Addr4) -> RouterId {
        let region = self.regions.lookup(external).copied().unwrap_or(Region::Other);
        let mut w = region.router_weights();
        // Router-3 is a regional point of presence: only about half of
        // the external /24s have a path through it at all (Table 8 shows
        // ~50% of def-1/2 hitters never appearing at router-3). Research
        // peerings are the exception.
        let r3_availability: u64 = match region {
            Region::Research => 95,
            Region::Content => 85,
            Region::AsiaEu => 50,
            Region::NorthAm => 55,
            Region::Other => 60,
        };
        let ext24 = u64::from(external.to_u32() >> 8);
        if crate::rng::hash64(ext24 ^ self.salt.rotate_left(17)) % 100 >= r3_availability {
            // No router-3 path: its weight folds onto routers 1 and 2.
            w[0] += w[2] / 2;
            w[1] += w[2] - w[2] / 2;
            w[2] = 0;
        }
        let block = u64::from(internal.to_u32() >> 10); // per-/22 decision
        let h = crate::rng::hash64(block ^ self.salt ^ (external.to_u32() as u64 >> 16 << 40));
        let x = (h % 100) as u32;
        if x < w[0] {
            1
        } else if x < w[0] + w[1] {
            2
        } else {
            3
        }
    }
}

fn cc(code: &[u8; 2]) -> CountryCode {
    CountryCode::new(code)
}

fn org(
    name: &str,
    asn: u32,
    as_type: AsType,
    country: CountryCode,
    region: Region,
    prefixes: &[&str],
    acked_keywords: &[&str],
) -> OrgDef {
    OrgDef {
        name: name.to_string(),
        asn,
        as_type,
        country,
        region,
        prefixes: prefixes.iter().map(|p| static_prefix(p)).collect(),
        acked_keywords: acked_keywords.iter().map(|s| s.to_string()).collect(),
    }
}

/// The standard organization registry: shaped like the paper's Table 5
/// origin mix (a dominant US cloud, Chinese ISPs/clouds/hosting, TW/KR/RU
/// ISPs) plus research orgs for the acknowledged list and benign content
/// and eyeball networks.
pub(crate) fn standard_orgs() -> Vec<OrgDef> {
    vec![
        // -- Scanner-heavy clouds and ISPs (Table 5 shape) --
        org(
            "Umbra Cloud",
            65001,
            AsType::Cloud,
            cc(b"US"),
            Region::NorthAm,
            &["100.64.0.0/16"],
            &[],
        ),
        org(
            "Nimbus Compute",
            65002,
            AsType::Cloud,
            cc(b"US"),
            Region::NorthAm,
            &["100.65.0.0/16"],
            &[],
        ),
        org(
            "Vapor Cloud",
            65003,
            AsType::Cloud,
            cc(b"US"),
            Region::NorthAm,
            &["100.66.0.0/16"],
            &[],
        ),
        org(
            "Stratus Platform",
            65004,
            AsType::Cloud,
            cc(b"US"),
            Region::NorthAm,
            &["100.67.0.0/16"],
            &[],
        ),
        org(
            "Great Wall Telecom",
            65011,
            AsType::Isp,
            cc(b"CN"),
            Region::AsiaEu,
            &["101.0.0.0/16"],
            &[],
        ),
        org(
            "Red Lantern Broadband",
            65012,
            AsType::Isp,
            cc(b"CN"),
            Region::AsiaEu,
            &["101.1.0.0/16"],
            &[],
        ),
        org("Jade Cloud", 65013, AsType::Cloud, cc(b"CN"), Region::AsiaEu, &["101.2.0.0/16"], &[]),
        org(
            "Dragon Hosting",
            65014,
            AsType::Hosting,
            cc(b"CN"),
            Region::AsiaEu,
            &["101.3.0.0/16"],
            &[],
        ),
        org("Formosa Net", 65015, AsType::Isp, cc(b"TW"), Region::AsiaEu, &["101.4.0.0/16"], &[]),
        org(
            "Han River Telecom",
            65016,
            AsType::Isp,
            cc(b"KR"),
            Region::AsiaEu,
            &["101.5.0.0/16"],
            &[],
        ),
        org("Taiga Net", 65017, AsType::Isp, cc(b"RU"), Region::AsiaEu, &["102.0.0.0/16"], &[]),
        org("Prairie ISP", 65018, AsType::Isp, cc(b"US"), Region::NorthAm, &["103.0.0.0/16"], &[]),
        org(
            "Elbe Hosting",
            65019,
            AsType::Hosting,
            cc(b"DE"),
            Region::AsiaEu,
            &["102.1.0.0/16"],
            &[],
        ),
        org(
            "Polder Cloud",
            65020,
            AsType::Cloud,
            cc(b"NL"),
            Region::AsiaEu,
            &["102.2.0.0/16"],
            &[],
        ),
        // -- Acknowledged research scanners --
        org(
            "ScanLab University",
            65101,
            AsType::Education,
            cc(b"US"),
            Region::Research,
            &["104.0.0.0/24"],
            &["scanlab"],
        ),
        org(
            "Atlas Survey Project",
            65102,
            AsType::Education,
            cc(b"US"),
            Region::Research,
            &["104.0.1.0/24"],
            &["atlas-survey"],
        ),
        org(
            "OpenMeasure Foundation",
            65103,
            AsType::Enterprise,
            cc(b"US"),
            Region::Research,
            &["104.0.2.0/24"],
            &["openmeasure"],
        ),
        org(
            "NetSight Security",
            65104,
            AsType::Enterprise,
            cc(b"US"),
            Region::Research,
            &["104.0.3.0/24"],
            &["netsight"],
        ),
        org(
            "Baltic Internet Observatory",
            65105,
            AsType::Education,
            cc(b"DE"),
            Region::Research,
            &["104.0.4.0/24"],
            &["baltic-obs"],
        ),
        org(
            "Kiwi Census",
            65106,
            AsType::Enterprise,
            cc(b"GB"),
            Region::Research,
            &["104.0.5.0/24"],
            &["kiwi-census"],
        ),
        org(
            "Sakura Probe Net",
            65107,
            AsType::Education,
            cc(b"JP"),
            Region::Research,
            &["104.0.6.0/24"],
            &["sakura-probe"],
        ),
        org(
            "Fjord Scanners",
            65108,
            AsType::Enterprise,
            cc(b"NO"),
            Region::Research,
            &["104.0.7.0/24"],
            &["fjord-scan"],
        ),
        org(
            "Gallic Survey",
            65109,
            AsType::Education,
            cc(b"FR"),
            Region::Research,
            &["104.0.8.0/24"],
            &["gallic-survey"],
        ),
        org(
            "Alpine Recon",
            65110,
            AsType::Enterprise,
            cc(b"CH"),
            Region::Research,
            &["104.0.9.0/24"],
            &["alpine-recon"],
        ),
        org(
            "Maple Watch",
            65111,
            AsType::Education,
            cc(b"CA"),
            Region::Research,
            &["104.0.10.0/24"],
            &["maple-watch"],
        ),
        org(
            "Antipode Labs",
            65112,
            AsType::Enterprise,
            cc(b"AU"),
            Region::Research,
            &["104.0.11.0/24"],
            &["antipode-labs"],
        ),
        // -- Benign infrastructure --
        org(
            "Hyperflix CDN",
            65201,
            AsType::Cloud,
            cc(b"US"),
            Region::Content,
            &["150.0.0.0/14"],
            &[],
        ),
        org("Globe Eyeballs", 65202, AsType::Isp, cc(b"US"), Region::Other, &["160.0.0.0/14"], &[]),
        // -- The long tail: background-radiation source pool --
        org("Misc Internet", 65300, AsType::Isp, cc(b"BR"), Region::Other, &["110.0.0.0/12"], &[]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn observable_space_covers_monitored_networks() {
        let w = world();
        let obs = w.observable();
        assert!(obs.index_of(Ipv4Addr4::new(20, 0, 10, 1)).is_some(), "dark");
        assert!(obs.index_of(Ipv4Addr4::new(10, 0, 5, 5)).is_some(), "merit");
        assert!(obs.index_of(Ipv4Addr4::new(172, 16, 1, 1)).is_some(), "cu");
        assert!(obs.index_of(Ipv4Addr4::new(198, 18, 0, 5)).is_some(), "sensor");
        assert!(obs.index_of(Ipv4Addr4::new(100, 64, 0, 1)).is_none(), "external org");
    }

    #[test]
    fn org_lookup_and_hosts() {
        let w = world();
        let id = w.org("Umbra Cloud").expect("registry org");
        let o = &w.orgs[id];
        assert_eq!(o.host(0), Some(Ipv4Addr4::new(100, 64, 0, 0)));
        assert_eq!(o.host(65535), Some(Ipv4Addr4::new(100, 64, 255, 255)));
        assert_eq!(o.host(65536), o.host(0), "wraps");
        assert_eq!(o.size(), 65536);
    }

    #[test]
    fn unknown_org_is_none() {
        assert_eq!(world().org("Nonexistent"), None);
    }

    #[test]
    fn empty_org_has_no_hosts() {
        let o = OrgDef {
            name: "Ghost".into(),
            asn: 1,
            as_type: AsType::Isp,
            country: cc(b"US"),
            region: Region::Other,
            prefixes: vec![],
            acked_keywords: vec![],
        };
        assert_eq!(o.size(), 0);
        assert_eq!(o.host(0), None);
        assert_eq!(o.host(12345), None);
    }

    #[test]
    fn acked_orgs_have_keywords() {
        let w = world();
        let acked = w.orgs_where(|o| o.is_acked());
        assert_eq!(acked.len(), 12);
        let list = w.acked_list(8);
        assert_eq!(list.org_count(), 12);
        // 8 own-prefix IPs plus 4 cloud-hosted slots per org.
        assert_eq!(list.ip_count(), 12 * (8 + 4));
    }

    #[test]
    fn cloud_hosted_acked_ips_match_both_stages() {
        let w = world();
        let list = w.acked_list(8);
        let rdns = w.rdns(16);
        // Cloud slot 0 is on the disclosed list (IP match).
        let on_list = w.acked_cloud_host(0, 0).unwrap();
        assert!(list.matches(on_list, &rdns).unwrap().is_ip_match());
        // Cloud slot 6 is undisclosed but resolves with the keyword.
        let off_list = w.acked_cloud_host(0, 6).unwrap();
        let m = list.matches(off_list, &rdns).unwrap();
        assert!(!m.is_ip_match());
        // And it lives inside the big cloud's prefix.
        let db = w.asn_db();
        assert_eq!(db.lookup(off_list).unwrap().org, "Umbra Cloud");
    }

    #[test]
    fn rdns_covers_more_than_the_list() {
        let w = world();
        let list = w.acked_list(4);
        let rdns = w.rdns(16);
        let org = &w.orgs[w.org("ScanLab University").unwrap()];
        // host 10 is not on the list but has a keyword PTR.
        let m = list.matches(org.host(10).unwrap(), &rdns).unwrap();
        assert!(!m.is_ip_match());
        assert_eq!(m.org(), "ScanLab University");
        // host 2 is on the list: IP match wins.
        assert!(list.matches(org.host(2).unwrap(), &rdns).unwrap().is_ip_match());
    }

    #[test]
    fn asn_db_attributes_scanners_and_monitored_space() {
        let w = world();
        let db = w.asn_db();
        let info = db.lookup(Ipv4Addr4::new(101, 4, 3, 2)).unwrap();
        assert_eq!(info.org, "Formosa Net");
        assert_eq!(info.country.as_str(), "TW");
        assert_eq!(db.lookup(Ipv4Addr4::new(20, 0, 0, 1)).unwrap().org, "Merit-like ISP");
        assert_eq!(db.lookup(Ipv4Addr4::new(172, 16, 0, 1)).unwrap().org, "CU-like Campus");
    }

    #[test]
    fn internal_sets_are_disjoint_networks() {
        let w = world();
        let merit = w.merit_internal();
        let cu = w.cu_internal();
        assert!(merit.contains(Ipv4Addr4::new(20, 0, 0, 1)), "dark is merit-routed");
        assert!(merit.contains(Ipv4Addr4::new(10, 128, 0, 9)), "caches internal");
        assert!(!merit.contains(Ipv4Addr4::new(172, 16, 0, 1)));
        assert!(cu.contains(Ipv4Addr4::new(172, 16, 0, 1)));
        assert!(!cu.contains(Ipv4Addr4::new(10, 0, 0, 1)));
    }

    #[test]
    fn slash24_counts() {
        let w = world();
        assert_eq!(w.merit_slash24s(), 128 + 1 + 64);
        assert_eq!(w.cu_slash24s(), 8);
        assert!(w.merit_slash24s() > 20 * w.cu_slash24s());
    }

    #[test]
    fn routing_policy_spreads_scanners_across_routers() {
        let w = world();
        let policy = w.merit_policy();
        let mut counts = [0u32; 3];
        let mut r3_missing_for_some_source = false;
        for s in 0..16u32 {
            let scanner = Ipv4Addr4::new(101, 0, s as u8, 7); // AsiaEu, distinct /24s
            let mut per_src = [0u32; 3];
            for i in 0..128u32 {
                // Different internal /22 blocks.
                let internal = Ipv4Addr4(Ipv4Addr4::new(10, 0, 0, 0).to_u32() + i * 1024);
                let r = policy.route(scanner, internal);
                per_src[(r - 1) as usize] += 1;
                counts[(r - 1) as usize] += 1;
            }
            // Every source reaches routers 1 and 2.
            assert!(per_src[0] > 0 && per_src[1] > 0, "{per_src:?}");
            if per_src[2] == 0 {
                r3_missing_for_some_source = true;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "all routers carry traffic: {counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "AsiaEu skew: {counts:?}");
        // Router-3 availability gating: some sources have no r3 path at all
        // (Table 8's ~50% presence).
        assert!(r3_missing_for_some_source);
    }

    #[test]
    fn routing_policy_is_deterministic() {
        let w = world();
        let p1 = w.merit_policy();
        let p2 = w.merit_policy();
        let ext = Ipv4Addr4::new(100, 64, 1, 2);
        for i in 0..64u32 {
            let int = Ipv4Addr4(Ipv4Addr4::new(10, 0, 0, 0).to_u32() + i * 4096);
            assert_eq!(p1.route(ext, int), p2.route(ext, int));
        }
    }

    #[test]
    fn tiny_world_is_consistent() {
        let w = World::new(WorldConfig::tiny());
        assert_eq!(w.config.dark.size(), 1024);
        assert!(!w.observable().is_empty());
        assert_eq!(w.merit_slash24s(), 4 + 1 + 4);
    }
}
