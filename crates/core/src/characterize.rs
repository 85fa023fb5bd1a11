//! Longitudinal characterization of aggressive hitters: origins
//! (Table 5), targeted ports with tool attribution (Figure 4), protocol
//! mixes in darknet vs flow data (Table 3), temporal trends (Figure 3),
//! flow-vs-darknet port overlap (Figure 5), and traffic concentration
//! (Figure 6 right).

use crate::defs::Definition;
use crate::detector::AhReport;
use crate::impact::flow_scan_bucket;
use ah_flow::record::FlowRecord;
use ah_intel::acked::AckedScanners;
use ah_intel::asn::AsnDb;
use ah_intel::rdns::RdnsTable;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::ScanClass;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One row of the origins table (Table 5).
#[derive(Debug, Clone)]
pub struct OriginRow {
    /// "Cloud (US)"-style label; the paper anonymizes org names.
    pub label: String,
    /// Underlying organization name (simulator ground truth).
    pub org: String,
    /// Distinct hitter IPs attributed to the origin.
    pub unique_ips: u64,
    /// Distinct hitter /24s attributed to the origin.
    pub unique_24s: u64,
    /// Scanning packets attributed to the origin.
    pub packets: u64,
    /// How many of the IPs / /24s are acknowledged scanners.
    pub acked_ips: u64,
    /// Acknowledged-scanner /24s among `unique_24s`.
    pub acked_24s: u64,
}

/// Totals row of Table 5: top-N sums and their share of the whole
/// population.
#[derive(Debug, Clone)]
pub struct OriginTotals {
    /// Hitter IPs covered by the top-N origins.
    pub top_ips: u64,
    /// `top_ips` as a fraction of all hitter IPs.
    pub top_ips_share: f64,
    /// Hitter /24s covered by the top-N origins.
    pub top_24s: u64,
    /// `top_24s` as a fraction of all hitter /24s.
    pub top_24s_share: f64,
    /// Packets covered by the top-N origins.
    pub top_packets: u64,
    /// `top_packets` as a fraction of all hitter packets.
    pub top_packets_share: f64,
}

/// Build the top-`n` origins table for a definition.
pub fn origin_table(
    report: &AhReport,
    def: Definition,
    db: &AsnDb,
    acked: &AckedScanners,
    rdns: &RdnsTable,
    n: usize,
) -> (Vec<OriginRow>, OriginTotals) {
    struct Acc {
        label: String,
        ips: HashSet<Ipv4Addr4>,
        acked_ips: HashSet<Ipv4Addr4>,
        packets: u64,
    }
    let mut per_org: HashMap<String, Acc> = HashMap::new();
    let mut all_ips: HashSet<Ipv4Addr4> = HashSet::new();
    let mut all_24s: HashSet<Ipv4Addr4> = HashSet::new();
    let mut all_packets = 0u64;
    // Packets per source, over hitter events only.
    let mut pkts_by_src: HashMap<Ipv4Addr4, u64> = HashMap::new();
    for r in report.hitter_records(def) {
        *pkts_by_src.entry(r.key.src).or_default() += u64::from(r.packets);
    }
    for ip in report.hitters(def) {
        let pkts = pkts_by_src.get(ip).copied().unwrap_or(0);
        all_ips.insert(*ip);
        all_24s.insert(ip.slash24());
        all_packets += pkts;
        let Some(info) = db.lookup(*ip) else { continue };
        let acc = per_org.entry(info.org.clone()).or_insert_with(|| Acc {
            label: format!("{} ({})", info.as_type.label(), info.country),
            ips: HashSet::new(),
            acked_ips: HashSet::new(),
            packets: 0,
        });
        acc.ips.insert(*ip);
        acc.packets += pkts;
        if acked.matches(*ip, rdns).is_some() {
            acc.acked_ips.insert(*ip);
        }
    }
    let mut rows: Vec<OriginRow> = per_org
        .into_iter()
        .map(|(org, acc)| OriginRow {
            label: acc.label,
            org,
            unique_ips: acc.ips.len() as u64,
            unique_24s: acc.ips.iter().map(|i| i.slash24()).collect::<HashSet<_>>().len() as u64,
            packets: acc.packets,
            acked_ips: acc.acked_ips.len() as u64,
            acked_24s: acc.acked_ips.iter().map(|i| i.slash24()).collect::<HashSet<_>>().len()
                as u64,
        })
        .collect();
    rows.sort_by(|a, b| b.unique_ips.cmp(&a.unique_ips).then(a.org.cmp(&b.org)));
    rows.truncate(n);
    let top_ips: u64 = rows.iter().map(|r| r.unique_ips).sum();
    let top_24s: u64 = rows.iter().map(|r| r.unique_24s).sum();
    let top_packets: u64 = rows.iter().map(|r| r.packets).sum();
    let totals = OriginTotals {
        top_ips,
        top_ips_share: ratio(top_ips, all_ips.len() as u64),
        top_24s,
        top_24s_share: ratio(top_24s, all_24s.len() as u64),
        top_packets,
        top_packets_share: ratio(top_packets, all_packets),
    };
    (rows, totals)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One targeted service in Figure 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortRow {
    /// Traffic type of the service.
    class: ScanClass,
    /// Destination port (0 for ICMP).
    port: u16,
    /// Packets with the ZMap fingerprint.
    pub zmap: u64,
    /// Packets with the Masscan fingerprint.
    pub masscan: u64,
    /// Packets with neither fingerprint.
    pub other: u64,
}

impl PortRow {
    /// All packets targeting the service.
    pub fn total(&self) -> u64 {
        self.zmap + self.masscan + self.other
    }

    /// "tcp/6379"-style label; ICMP renders as "icmp/echo".
    pub fn label(&self) -> String {
        match self.class {
            ScanClass::TcpSyn => format!("tcp/{}", self.port),
            ScanClass::Udp => format!("udp/{}", self.port),
            ScanClass::IcmpEcho => "icmp/echo".to_string(),
        }
    }
}

/// Top-`n` ports targeted by a definition's hitters, with per-tool packet
/// attribution (Figure 4).
pub fn top_ports(report: &AhReport, def: Definition, n: usize) -> Vec<PortRow> {
    let mut map: HashMap<(ScanClass, u16), (u64, u64, u64)> = HashMap::new();
    for r in report.hitter_records(def) {
        let key =
            (r.key.class, if r.key.class == ScanClass::IcmpEcho { 0 } else { r.key.dst_port });
        let e = map.entry(key).or_default();
        e.0 += u64::from(r.zmap);
        e.1 += u64::from(r.masscan);
        e.2 += u64::from(r.other_packets());
    }
    let mut rows: Vec<PortRow> = map
        .into_iter()
        .map(|((class, port), (zmap, masscan, other))| PortRow {
            class,
            port,
            zmap,
            masscan,
            other,
        })
        .collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.port.cmp(&b.port)));
    rows.truncate(n);
    rows
}

/// Packet shares per scanning class [TCP-SYN, UDP, ICMP-echo], in percent.
pub(crate) type ProtocolMix = [f64; 3];

/// Darknet-side protocol mix of a definition's hitters (Table 3 "D"
/// columns), over events starting in `days` (pass `None` for the whole
/// dataset).
pub fn protocol_mix_darknet(
    report: &AhReport,
    def: Definition,
    days: Option<std::ops::Range<u64>>,
) -> ProtocolMix {
    let mut counts = [0u64; 3];
    for r in report.hitter_records(def) {
        if let Some(range) = &days {
            if !range.contains(&u64::from(r.start_day)) {
                continue;
            }
        }
        let i = match r.key.class {
            ScanClass::TcpSyn => 0,
            ScanClass::Udp => 1,
            ScanClass::IcmpEcho => 2,
        };
        counts[i] += u64::from(r.packets);
    }
    to_pct(counts)
}

/// Flow-side protocol mix of hitter-originated flows (Table 3 "F"
/// columns).
pub fn protocol_mix_flow(records: &[FlowRecord], hitters: &HashSet<Ipv4Addr4>) -> ProtocolMix {
    let mut counts = [0u64; 3];
    for r in records {
        if !hitters.contains(&r.key.src) {
            continue;
        }
        if let Some(i) = flow_scan_bucket(r) {
            counts[i] += r.packets;
        }
    }
    to_pct(counts)
}

fn to_pct(counts: [u64; 3]) -> ProtocolMix {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return [0.0; 3];
    }
    [
        100.0 * counts[0] as f64 / total as f64,
        100.0 * counts[1] as f64 / total as f64,
        100.0 * counts[2] as f64 / total as f64,
    ]
}

/// One day of the Figure 3 time series.
#[derive(Debug, Clone, Copy)]
pub struct TrendDay {
    /// Day index within the run.
    pub day: u64,
    /// Hitters active this day (may have started earlier).
    pub active_ah: u64,
    /// Hitters that started qualifying activity this day.
    pub daily_ah: u64,
    /// All scanning sources with events starting this day.
    pub all_sources: u64,
    /// Packets from daily hitters.
    pub ah_packets: u64,
    /// All scanning packets in events starting this day.
    pub all_packets: u64,
}

/// The Figure 3 series for a definition.
pub fn trends(report: &AhReport, def: Definition, days: u64) -> Vec<TrendDay> {
    (0..days)
        .map(|day| TrendDay {
            day,
            active_ah: report.active_hitters(def, day).map_or(0, HashSet::len) as u64,
            daily_ah: report.daily_hitters(def, day).map_or(0, HashSet::len) as u64,
            all_sources: report.day_all_sources.get(&day).copied().unwrap_or(0),
            ah_packets: report.ah_packets(def, day),
            all_packets: report.day_all_packets.get(&day).copied().unwrap_or(0),
        })
        .collect()
}

/// Figure 5: per-port packet counts seen from a day's hitters in the
/// darknet vs in flow data. Returns (label, darknet packets, estimated
/// flow packets) per port observed in either.
pub fn port_overlap(
    report: &AhReport,
    def: Definition,
    day: u64,
    flow_records: &[FlowRecord],
    sampling_rate: u64,
) -> Vec<(String, u64, u64)> {
    let empty = HashSet::new();
    let hitters = report.daily_hitters(def, day).unwrap_or(&empty);
    let mut dark: BTreeMap<(u8, u16), u64> = BTreeMap::new();
    for r in report.records() {
        if u64::from(r.start_day) == day && hitters.contains(&r.key.src) {
            let proto = match r.key.class {
                ScanClass::TcpSyn => 6u8,
                ScanClass::Udp => 17,
                ScanClass::IcmpEcho => 1,
            };
            *dark.entry((proto, r.key.dst_port)).or_default() += u64::from(r.packets);
        }
    }
    let mut flow: BTreeMap<(u8, u16), u64> = BTreeMap::new();
    for r in flow_records {
        if r.day() == day && hitters.contains(&r.key.src) && flow_scan_bucket(r).is_some() {
            *flow.entry((r.key.protocol, r.key.dst_port)).or_default() += r.packets * sampling_rate;
        }
    }
    let keys: std::collections::BTreeSet<(u8, u16)> =
        dark.keys().chain(flow.keys()).copied().collect();
    keys.into_iter()
        .map(|k| {
            let label = match k.0 {
                6 => format!("tcp/{}", k.1),
                17 => format!("udp/{}", k.1),
                _ => "icmp/echo".to_string(),
            };
            (label, dark.get(&k).copied().unwrap_or(0), flow.get(&k).copied().unwrap_or(0))
        })
        .collect()
}

/// Figure 6 (right): cumulative share of daily-hitter traffic by ranked
/// source. Returns the cumulative percentages (index i = top-(i+1) IPs).
pub fn zipf_concentration(report: &AhReport, def: Definition) -> Vec<f64> {
    let mut pkts_by_src: HashMap<Ipv4Addr4, u64> = HashMap::new();
    for r in report.hitter_records(def) {
        *pkts_by_src.entry(r.key.src).or_default() += u64::from(r.packets);
    }
    let mut counts: Vec<u64> = pkts_by_src.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0u64;
    counts
        .into_iter()
        .map(|c| {
            acc += c;
            100.0 * acc as f64 / total as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, DetectorConfig};
    use ah_intel::asn::{AsInfo, AsType, CountryCode};
    use ah_net::time::{Dur, Ts};
    use ah_telescope::event::{DarknetEvent, EventKey};

    const DARK: u32 = 1000;

    /// A TCP SYN event; the last argument is its (ZMap, Masscan) packets.
    fn event(
        src: u8,
        port: u16,
        day: u16,
        packets: u32,
        unique: u32,
        (zmap, masscan): (u32, u32),
    ) -> DarknetEvent {
        DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4::new(100, 64, 0, src),
                dst_port: port,
                class: ScanClass::TcpSyn,
            },
            start_day: day,
            end_day: day,
            packets,
            unique_dsts: unique,
            zmap,
            masscan,
        }
    }

    fn report_with(evts: Vec<DarknetEvent>) -> AhReport {
        let mut d = Detector::new(DetectorConfig::new(DARK));
        d.ingest_all(&evts);
        d.finalize()
    }

    fn db() -> AsnDb {
        [
            (
                "100.64.0.0/25".parse().unwrap(),
                AsInfo {
                    asn: 1,
                    org: "CloudA".into(),
                    as_type: AsType::Cloud,
                    country: CountryCode::new(b"US"),
                },
            ),
            (
                "100.64.0.128/25".parse().unwrap(),
                AsInfo {
                    asn: 2,
                    org: "IspB".into(),
                    as_type: AsType::Isp,
                    country: CountryCode::new(b"CN"),
                },
            ),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn origins_aggregate_and_rank() {
        // Two hitters in CloudA, one in IspB.
        let r = report_with(vec![
            event(1, 23, 0, 900, 200, (900, 0)),
            event(2, 23, 0, 500, 150, (0, 0)),
            event(200, 23, 0, 700, 180, (0, 0)),
        ]);
        let acked = AckedScanners::new(vec![]);
        let rdns = RdnsTable::new();
        let (rows, totals) =
            origin_table(&r, Definition::AddressDispersion, &db(), &acked, &rdns, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].org, "CloudA");
        assert_eq!(rows[0].unique_ips, 2);
        assert_eq!(rows[0].label, "Cloud (US)");
        assert_eq!(rows[0].packets, 1400);
        assert_eq!(rows[1].org, "IspB");
        assert_eq!(totals.top_ips, 3);
        assert!((totals.top_ips_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_ports_with_tool_split() {
        let r = report_with(vec![
            event(1, 6379, 0, 900, 200, (900, 0)),
            event(2, 6379, 0, 600, 150, (0, 600)),
            event(3, 23, 0, 500, 150, (0, 0)),
        ]);
        let rows = top_ports(&r, Definition::AddressDispersion, 10);
        assert_eq!(rows[0].port, 6379);
        assert_eq!(rows[0].zmap, 900);
        assert_eq!(rows[0].masscan, 600);
        assert_eq!(rows[0].total(), 1500);
        assert_eq!(rows[0].label(), "tcp/6379");
        // Mirai lands in "other" for Figure 4.
        assert_eq!(rows[1].port, 23);
        assert_eq!(rows[1].other, 500);
    }

    #[test]
    fn darknet_protocol_mix() {
        let mut udp_ev = event(1, 53, 0, 100, 150, (0, 0));
        udp_ev.key.class = ScanClass::Udp;
        let r = report_with(vec![event(1, 23, 0, 900, 200, (0, 0)), udp_ev]);
        let mix = protocol_mix_darknet(&r, Definition::AddressDispersion, None);
        assert!((mix[0] - 90.0).abs() < 1e-9);
        assert!((mix[1] - 10.0).abs() < 1e-9);
        assert_eq!(mix[2], 0.0);
    }

    #[test]
    fn trend_series() {
        let r = report_with(vec![
            event(1, 23, 0, 900, 200, (0, 0)),
            event(2, 23, 1, 800, 180, (0, 0)),
            event(3, 23, 1, 10, 2, (0, 0)), // non-hitter
        ]);
        let t = trends(&r, Definition::AddressDispersion, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].daily_ah, 1);
        assert_eq!(t[1].daily_ah, 1);
        assert_eq!(t[1].all_sources, 2);
        assert_eq!(t[1].ah_packets, 800);
        assert_eq!(t[1].all_packets, 810);
        assert_eq!(t[2].daily_ah, 0);
    }

    #[test]
    fn zipf_is_monotone_to_100() {
        let r = report_with(vec![
            event(1, 23, 0, 1000, 200, (0, 0)),
            event(2, 23, 0, 600, 180, (0, 0)),
            event(3, 23, 0, 400, 150, (0, 0)),
        ]);
        let z = zipf_concentration(&r, Definition::AddressDispersion);
        assert_eq!(z.len(), 3);
        assert!((z[0] - 50.0).abs() < 1e-9);
        assert!((z[2] - 100.0).abs() < 1e-9);
        assert!(z.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn port_overlap_counts_only_same_day_hitter_scan_flows() {
        use ah_flow::record::FlowKey;
        use ah_flow::router::Direction;

        let r = report_with(vec![event(1, 23, 0, 900, 200, (900, 0))]);
        let hitter = Ipv4Addr4::new(100, 64, 0, 1);
        let stranger = Ipv4Addr4::new(100, 64, 0, 77);
        let flow = |src: Ipv4Addr4, day: u64, tcp_flags: u8, packets: u64| FlowRecord {
            key: FlowKey {
                src,
                dst: Ipv4Addr4::new(9, 9, 9, 9),
                src_port: 40000,
                dst_port: 23,
                protocol: 6,
            },
            router: 0,
            direction: Direction::Ingress,
            first: Ts::from_days(day) + Dur::from_secs(10),
            last: Ts::from_days(day) + Dur::from_secs(20),
            packets,
            bytes: packets * 40,
            tcp_flags,
        };
        let flows = vec![
            // Counts: day 0, known hitter, SYN-only (the TCP scan bucket).
            flow(hitter, 0, 0x02, 5),
            // Wrong day: same hitter, same bucket, day 1.
            flow(hitter, 1, 0x02, 7),
            // Not a hitter: day 0, same bucket.
            flow(stranger, 0, 0x02, 11),
            // Not a scan bucket: day 0 hitter, SYN+ACK flags.
            flow(hitter, 0, 0x12, 13),
        ];
        let rows = port_overlap(&r, Definition::AddressDispersion, 0, &flows, 10);
        assert_eq!(rows.len(), 1, "{rows:?}");
        let (label, dark, flow_pkts) = &rows[0];
        assert_eq!(label, "tcp/23");
        assert_eq!(*dark, 900);
        // Only record one survives every filter: 5 packets * sampling rate 10.
        assert_eq!(*flow_pkts, 50);
    }

    #[test]
    fn empty_report_characterizations() {
        let r = report_with(vec![]);
        assert!(top_ports(&r, Definition::AddressDispersion, 5).is_empty());
        assert!(zipf_concentration(&r, Definition::AddressDispersion).is_empty());
        let mix = protocol_mix_darknet(&r, Definition::AddressDispersion, None);
        assert_eq!(mix, [0.0; 3]);
    }
}
