//! A GreyNoise-style distributed honeypot with behavioral tagging.
//!
//! GreyNoise operates sensors scattered across many networks and tags
//! every source that contacts them. Because the paper's aggressive
//! hitters scan Internet-wide (mostly uniformly), virtually all of them
//! hit such a distributed sensor fleet — the basis of the 99.3% daily
//! overlap reported in Section 5 — while *localized* scanners do not.
//!
//! The tagger here is rule-based over per-source behavioral profiles
//! (tool fingerprints, targeted ports, protocol mix) and emits the tag
//! vocabulary of Table 9. Three of the paper's tags derive from HTTP
//! payload contents which this workspace does not carry on the wire;
//! the simulator passes those as an explicit [`PayloadHint`] instead
//! (documented substitution — same join key, different provenance).

use ah_net::fingerprint::{classify, Tool};
use ah_net::hash::FastMap;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::prefix::PrefixSet;
use std::collections::{HashMap, HashSet};

/// GreyNoise's three-way IP classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnClassification {
    /// Known-good actor (research scanners, search engines).
    Benign,
    /// Observed malicious behavior (exploits, bruteforcing).
    Malicious,
    /// Seen scanning, intent not established.
    Unknown,
}

/// Application-payload evidence the wire model does not carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadHint {
    /// No application payload observed.
    None,
    /// Go's default HTTP client user-agent.
    GoHttp,
    /// Python `requests` library user-agent.
    PythonRequests,
    /// Request carried an HTTP Referer header.
    HttpReferer,
}

/// Tags the paper's Table 9 vocabulary uses, plus Masscan.
pub(crate) mod tags {
    /// ZMap probe fingerprint.
    pub(crate) const ZMAP: &str = "ZMap Client";
    /// Masscan probe fingerprint.
    pub(crate) const MASSCAN: &str = "Masscan Client";
    /// Generic web crawler behavior.
    pub(crate) const WEB_CRAWLER: &str = "Web Crawler";
    /// Mirai-botnet TCP fingerprint.
    pub(crate) const MIRAI: &str = "Mirai";
    /// Docker API scanning.
    pub(crate) const DOCKER: &str = "Docker Scanner";
    /// Kubernetes API scanning.
    pub(crate) const KUBERNETES: &str = "Kubernetes Crawler";
    /// SSH credential bruteforcing.
    pub(crate) const SSH_BRUTE: &str = "SSH Bruteforcer";
    /// TLS/SSL certificate harvesting.
    pub(crate) const TLS_CRAWLER: &str = "TLS/SSL Crawler";
    /// Self-propagating SSH malware.
    pub(crate) const SSH_WORM: &str = "SSH Worm";
    /// Shenzhen TVT DVR bruteforcing.
    pub(crate) const TVT_BRUTE: &str = "Shenzhen TVT Bruteforcer";
    /// Go default HTTP client payload.
    pub(crate) const GO_HTTP: &str = "Go HTTP Client";
    /// Python requests client payload.
    pub(crate) const PY_REQUESTS: &str = "Python Requests Client";
    /// Telnet credential bruteforcing.
    pub(crate) const TELNET_BRUTE: &str = "Telnet Bruteforcer";
    /// JAWS webserver exploit attempts.
    pub(crate) const JAWS_RCE: &str = "JAWS Webserver RCE";
    /// ICMP echo sweeping.
    pub(crate) const PING: &str = "Ping Scanner";
    /// SIP scanner toolkit.
    pub(crate) const SIPVICIOUS: &str = "Sipvicious";
    /// RDP worm-like propagation.
    pub(crate) const RDP_WORM: &str = "Looks Like RDP Worm";
    /// Requests carry an HTTP Referer.
    pub(crate) const HTTP_REFERER: &str = "Carries HTTP Referer";
    /// SMBv1 endpoint scanning.
    pub(crate) const SMB_CRAWLER: &str = "SMBv1 Crawler";
    /// Hadoop YARN exploit propagation.
    pub(crate) const HADOOP_WORM: &str = "Hadoop Yarn Worm";
    /// Realtek miniigd UPnP exploit (CVE-2014-8361).
    pub(crate) const UPNP_WORM: &str = "Miniigd UPnP Worm CVE-2014-8361";
}

/// Tags implying malicious intent (worms, bruteforcers, exploit attempts).
const MALICIOUS_TAGS: &[&str] = &[
    tags::MIRAI,
    tags::SSH_BRUTE,
    tags::SSH_WORM,
    tags::TVT_BRUTE,
    tags::TELNET_BRUTE,
    tags::JAWS_RCE,
    tags::SIPVICIOUS,
    tags::RDP_WORM,
    tags::HADOOP_WORM,
    tags::UPNP_WORM,
];

/// The finalized record for one observed source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GnEntry {
    /// Three-way intent classification.
    pub classification: GnClassification,
    /// Behavior tags (Table 9 vocabulary).
    pub tags: Vec<String>,
}

#[derive(Debug, Default)]
struct SrcProfile {
    packets: u64,
    tcp_syn: u64,
    udp: u64,
    icmp: u64,
    tool_counts: [u64; 4], // ZMap, Masscan, Mirai, Other
    /// Packets per targeted TCP/UDP port; its key set is the ports touched.
    port_packets: HashMap<u16, u64>,
    sensors_hit: HashSet<Ipv4Addr4>,
    payload_hints: HashSet<PayloadHint>,
}

/// Ingest counters: every packet offered to the fleet is either accepted
/// (hit a sensor, profiled) or ignored (destination not a sensor).
/// Conservation: `received == accepted + ignored`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Packets offered to the honeypot fleet.
    pub received: u64,
    /// Packets that hit a sensor and were profiled.
    pub accepted: u64,
    /// Packets whose destination is not a sensor.
    pub ignored: u64,
    /// Sources profiled, when read: only ever added, so also their peak.
    pub profiles: u64,
}

impl IngestStats {
    /// The conservation identity.
    #[cfg(test)]
    pub(crate) fn conserves(&self) -> bool {
        self.received == self.accepted + self.ignored
    }
}

/// The honeypot fleet.
pub struct GreyNoise {
    sensors: PrefixSet,
    profiles: FastMap<Ipv4Addr4, SrcProfile>,
    benign_vetted: HashSet<Ipv4Addr4>,
    ingest: IngestStats,
}

impl GreyNoise {
    /// A fleet whose sensor addresses are `sensors`. `benign_vetted` is
    /// GN's internal allow-list of known research sources (we feed it the
    /// acknowledged-scanner IPs, mirroring GN's own vetting process).
    pub fn new(sensors: PrefixSet, benign_vetted: HashSet<Ipv4Addr4>) -> GreyNoise {
        GreyNoise {
            sensors,
            profiles: FastMap::default(),
            benign_vetted,
            ingest: IngestStats::default(),
        }
    }

    /// Ingest counters so far.
    pub fn ingest_stats(&self) -> IngestStats {
        IngestStats { profiles: self.profiles.len() as u64, ..self.ingest }
    }

    /// Offer one packet; only packets to sensors are recorded. Returns
    /// true when the packet hit a sensor.
    pub fn observe(&mut self, pkt: &PacketMeta, hint: PayloadHint) -> bool {
        self.ingest.received += 1;
        if !self.sensors.contains(pkt.dst) {
            self.ingest.ignored += 1;
            return false;
        }
        self.ingest.accepted += 1;
        let p = self.profiles.entry(pkt.src).or_default();
        p.packets += 1;
        p.sensors_hit.insert(pkt.dst);
        match pkt.transport {
            Transport::Tcp { dst_port, flags, .. } if flags.is_bare_syn() => {
                p.tcp_syn += 1;
                *p.port_packets.entry(dst_port).or_default() += 1;
            }
            Transport::Tcp { dst_port, .. } => {
                *p.port_packets.entry(dst_port).or_default() += 1;
            }
            Transport::Udp { dst_port, .. } => {
                p.udp += 1;
                *p.port_packets.entry(dst_port).or_default() += 1;
            }
            Transport::Icmp { .. } => p.icmp += 1,
            Transport::Other { .. } => {}
        }
        match classify(pkt) {
            Tool::ZMap => p.tool_counts[0] += 1,
            Tool::Masscan => p.tool_counts[1] += 1,
            Tool::Mirai => p.tool_counts[2] += 1,
            Tool::Other => p.tool_counts[3] += 1,
        }
        if hint != PayloadHint::None {
            p.payload_hints.insert(hint);
        }
        true
    }

    /// Run the tagger and classification over every profile.
    pub fn finalize(&self) -> HashMap<Ipv4Addr4, GnEntry> {
        self.profiles
            .iter()
            .map(|(src, p)| {
                let tag_list = Self::tag(p);
                let classification = if self.benign_vetted.contains(src) {
                    GnClassification::Benign
                } else if tag_list.iter().any(|t| MALICIOUS_TAGS.contains(&t.as_str())) {
                    GnClassification::Malicious
                } else {
                    GnClassification::Unknown
                };
                (*src, GnEntry { classification, tags: tag_list })
            })
            .collect()
    }

    fn port_hit(p: &SrcProfile, port: u16) -> u64 {
        p.port_packets.get(&port).copied().unwrap_or(0)
    }

    /// The rule-based tag engine.
    fn tag(p: &SrcProfile) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let total = p.packets.max(1);
        let mut push = |t: &str| {
            if !out.iter().any(|x| x == t) {
                out.push(t.to_string());
            }
        };

        // Tool fingerprints.
        if p.tool_counts[0] * 2 > total {
            push(tags::ZMAP);
        }
        if p.tool_counts[1] * 2 > total {
            push(tags::MASSCAN);
        }
        if p.tool_counts[2] > 0 {
            push(tags::MIRAI);
        }

        // Port-profile rules. "Heavy on port X" means X dominates the
        // source's traffic; "touches X" is any packet.
        let heavy = |port: u16| Self::port_hit(p, port) * 3 > total;
        let touches = |port: u16| Self::port_hit(p, port) > 0;

        // Mirai's signature pair is 23/2323, already tagged by seq rule;
        // a non-Mirai telnet-heavy source is a bruteforcer.
        if (heavy(23) || heavy(2323)) && p.tool_counts[2] == 0 {
            push(tags::TELNET_BRUTE);
        }
        if heavy(22) {
            // Wide spread across sensors looks like worm propagation;
            // hammering few targets looks like credential stuffing.
            if p.sensors_hit.len() >= 8 {
                push(tags::SSH_WORM);
            } else {
                push(tags::SSH_BRUTE);
            }
        }
        if touches(80) && touches(443) && p.port_packets.len() <= 8 {
            push(tags::WEB_CRAWLER);
        }
        if touches(443) && (touches(465) || touches(993) || touches(8443)) {
            push(tags::TLS_CRAWLER);
        }
        if touches(2375) || touches(2376) || touches(4243) {
            push(tags::DOCKER);
        }
        if touches(6443) || touches(10250) || touches(10255) {
            push(tags::KUBERNETES);
        }
        if touches(445) {
            push(tags::SMB_CRAWLER);
        }
        if touches(5060) {
            push(tags::SIPVICIOUS);
        }
        if heavy(3389) {
            push(tags::RDP_WORM);
        }
        if touches(8088) && touches(8090) {
            push(tags::HADOOP_WORM);
        }
        if touches(52869) {
            push(tags::UPNP_WORM);
        }
        if touches(60001) {
            push(tags::JAWS_RCE);
        }
        if touches(34567) || touches(9527) {
            push(tags::TVT_BRUTE);
        }
        if p.icmp > 0 && p.tcp_syn == 0 && p.udp == 0 {
            push(tags::PING);
        }

        // Payload-derived hints (see module docs).
        if p.payload_hints.contains(&PayloadHint::GoHttp) {
            push(tags::GO_HTTP);
        }
        if p.payload_hints.contains(&PayloadHint::PythonRequests) {
            push(tags::PY_REQUESTS);
        }
        if p.payload_hints.contains(&PayloadHint::HttpReferer) {
            push(tags::HTTP_REFERER);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::fingerprint::{masscan_ip_id, ZMAP_IP_ID};
    use ah_net::prefix::Prefix;
    use ah_net::time::Ts;

    fn sensors() -> PrefixSet {
        PrefixSet::from_prefixes(vec!["50.0.0.0/24".parse::<Prefix>().unwrap()])
    }

    fn gn() -> GreyNoise {
        GreyNoise::new(sensors(), HashSet::new())
    }

    fn sensor(n: u8) -> Ipv4Addr4 {
        Ipv4Addr4::new(50, 0, 0, n)
    }

    const SRC: Ipv4Addr4 = Ipv4Addr4::new(203, 0, 113, 77);

    #[test]
    fn only_sensor_traffic_recorded() {
        let mut g = gn();
        let miss = PacketMeta::tcp_syn(Ts::ZERO, SRC, Ipv4Addr4::new(51, 0, 0, 1), 1, 80);
        assert!(!g.observe(&miss, PayloadHint::None));
        let hit = PacketMeta::tcp_syn(Ts::ZERO, SRC, sensor(1), 1, 80);
        assert!(g.observe(&hit, PayloadHint::None));
        assert_eq!(g.profiles.len(), 1);
        assert!(g.profiles.contains_key(&SRC));
        let s = g.ingest_stats();
        assert_eq!(s.received, 2);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.ignored, 1);
        assert!(s.conserves());
    }

    #[test]
    fn zmap_client_tag() {
        let mut g = gn();
        for i in 0..10u8 {
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, sensor(i), 1, 443);
            p.ip_id = ZMAP_IP_ID;
            g.observe(&p, PayloadHint::None);
        }
        let entry = &g.finalize()[&SRC];
        assert!(entry.tags.iter().any(|t| t == tags::ZMAP), "{:?}", entry.tags);
        // ZMap alone is not malicious.
        assert_eq!(entry.classification, GnClassification::Unknown);
    }

    #[test]
    fn mirai_is_malicious() {
        let mut g = gn();
        for i in 0..5u8 {
            let dst = sensor(i);
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, dst, 1, 23);
            if let Transport::Tcp { ref mut seq, .. } = p.transport {
                *seq = dst.to_u32();
            }
            g.observe(&p, PayloadHint::None);
        }
        let entry = &g.finalize()[&SRC];
        assert!(entry.tags.iter().any(|t| t == tags::MIRAI));
        assert_eq!(entry.classification, GnClassification::Malicious);
    }

    #[test]
    fn telnet_bruteforcer_without_mirai_fingerprint() {
        let mut g = gn();
        for i in 0..6u8 {
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, sensor(1), 1, 23);
            if let Transport::Tcp { ref mut seq, .. } = p.transport {
                *seq = 0xdead_0000 + u32::from(i); // not the Mirai invariant
            }
            p.ip_id = 11; // not ZMap, and extremely unlikely to be Masscan's
            g.observe(&p, PayloadHint::None);
        }
        let entry = &g.finalize()[&SRC];
        assert!(entry.tags.iter().any(|t| t == tags::TELNET_BRUTE), "{:?}", entry.tags);
        assert_eq!(entry.classification, GnClassification::Malicious);
    }

    #[test]
    fn ssh_worm_vs_bruteforcer_by_spread() {
        // Wide spread: worm.
        let mut g = gn();
        for i in 0..10u8 {
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, sensor(i), 1, 22);
            if let Transport::Tcp { ref mut seq, .. } = p.transport {
                *seq = 5;
            }
            p.ip_id = 1;
            g.observe(&p, PayloadHint::None);
        }
        let e = &g.finalize()[&SRC];
        assert!(e.tags.iter().any(|t| t == tags::SSH_WORM), "{:?}", e.tags);

        // One sensor hammered: bruteforcer.
        let mut g2 = gn();
        for i in 0..10u8 {
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, sensor(1), 1, 22);
            if let Transport::Tcp { ref mut seq, .. } = p.transport {
                *seq = 5;
            }
            p.ip_id = 1;
            g2.observe(&p, PayloadHint::None);
        }
        let e2 = &g2.finalize()[&SRC];
        assert!(e2.tags.iter().any(|t| t == tags::SSH_BRUTE), "{:?}", e2.tags);
    }

    #[test]
    fn ping_scanner_tag() {
        let mut g = gn();
        for i in 0..4u8 {
            g.observe(
                &PacketMeta::icmp_echo(Ts::from_secs(u64::from(i)), SRC, sensor(i)),
                PayloadHint::None,
            );
        }
        let e = &g.finalize()[&SRC];
        assert_eq!(e.tags, vec![tags::PING.to_string()]);
        assert_eq!(e.classification, GnClassification::Unknown);
    }

    #[test]
    fn benign_vetting_overrides() {
        let mut vetted = HashSet::new();
        vetted.insert(SRC);
        let mut g = GreyNoise::new(sensors(), vetted);
        let mut p = PacketMeta::tcp_syn(Ts::ZERO, SRC, sensor(1), 1, 23);
        p.ip_id = 1;
        g.observe(&p, PayloadHint::None);
        let e = &g.finalize()[&SRC];
        assert_eq!(e.classification, GnClassification::Benign);
    }

    #[test]
    fn masscan_tag() {
        let mut g = gn();
        for i in 0..10u8 {
            let dst = sensor(i);
            let seq = 0x4000_0000 + u32::from(i);
            let mut p = PacketMeta::tcp_syn(Ts::from_secs(u64::from(i)), SRC, dst, 1, 6379);
            if let Transport::Tcp { seq: ref mut s, .. } = p.transport {
                *s = seq;
            }
            p.ip_id = masscan_ip_id(dst, 6379, seq);
            g.observe(&p, PayloadHint::None);
        }
        let e = &g.finalize()[&SRC];
        assert!(e.tags.iter().any(|t| t == tags::MASSCAN), "{:?}", e.tags);
    }

    #[test]
    fn payload_hints_become_tags() {
        let mut g = gn();
        let p = PacketMeta::tcp_syn(Ts::ZERO, SRC, sensor(1), 1, 80);
        g.observe(&p, PayloadHint::GoHttp);
        g.observe(&p, PayloadHint::HttpReferer);
        let e = &g.finalize()[&SRC];
        assert!(e.tags.iter().any(|t| t == tags::GO_HTTP));
        assert!(e.tags.iter().any(|t| t == tags::HTTP_REFERER));
    }

    #[test]
    fn docker_and_kubernetes_tags() {
        let mut g = gn();
        g.observe(&PacketMeta::tcp_syn(Ts::ZERO, SRC, sensor(1), 1, 2375), PayloadHint::None);
        g.observe(&PacketMeta::tcp_syn(Ts::ZERO, SRC, sensor(2), 1, 6443), PayloadHint::None);
        let e = &g.finalize()[&SRC];
        assert!(e.tags.iter().any(|t| t == tags::DOCKER));
        assert!(e.tags.iter().any(|t| t == tags::KUBERNETES));
    }
}
