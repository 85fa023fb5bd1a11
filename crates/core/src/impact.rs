//! Network-impact measurement: joining hitter lists against ISP flow
//! datasets (Tables 2, 4, 8) and unsampled packet taps (Figures 1, 2).

use ah_flow::record::FlowRecord;
use ah_flow::router::{FlowDataset, RouterId};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use std::collections::{BTreeMap, HashSet};

/// Impact of a hitter population at one router on one day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterDayImpact {
    /// The border router measured.
    pub router: RouterId,
    /// Day index within the run.
    pub day: u64,
    /// Estimated hitter packets (sampled count × sampling rate).
    pub ah_packets: u64,
    /// Ground-truth packets the router processed that day.
    pub total_packets: u64,
}

impl RouterDayImpact {
    /// Hitter share of all routed packets, in percent.
    pub fn pct(&self) -> f64 {
        if self.total_packets == 0 {
            0.0
        } else {
            100.0 * self.ah_packets as f64 / self.total_packets as f64
        }
    }
}

/// Table 2/4 core: per (router, day) impact of a per-day hitter
/// population. `hitters(day)` supplies the population active that day
/// (pass a constant set for list-based joins like Table 4's ACKed rows).
///
/// Only packets *originating from* a hitter count, mirroring the paper's
/// methodology ("packets originating from a source IP belonging to an
/// identified AH").
pub fn flow_impact(
    ds: &FlowDataset,
    mut hitters: impl FnMut(u64) -> Option<HashSet<Ipv4Addr4>>,
) -> Vec<RouterDayImpact> {
    let mut per_day: BTreeMap<u64, HashSet<Ipv4Addr4>> = BTreeMap::new();
    let mut ah: BTreeMap<(RouterId, u64), u64> = BTreeMap::new();
    for r in &ds.records {
        let day = r.day();
        let set = per_day.entry(day).or_insert_with(|| hitters(day).unwrap_or_default());
        if set.contains(&r.key.src) {
            *ah.entry((r.router, day)).or_default() += r.packets;
        }
    }
    ds.router_day_keys()
        .into_iter()
        .map(|(router, day)| RouterDayImpact {
            router,
            day,
            ah_packets: ds.estimate(ah.get(&(router, day)).copied().unwrap_or(0)),
            total_packets: ds.router_day_packets(router, day),
        })
        .collect()
}

/// Table 8: what share of a day's hitter population is *seen* (as a flow
/// source) at each router.
#[derive(Debug, Clone)]
pub struct PresenceRow {
    /// Day index within the run.
    pub day: u64,
    /// Hitters in the darknet-derived population that day.
    pub population: u64,
    /// Per router: fraction of the population seen there (0..=1).
    pub seen_fraction: Vec<(RouterId, f64)>,
}

/// Compute presence of per-day populations at every router.
pub fn presence(
    ds: &FlowDataset,
    mut hitters: impl FnMut(u64) -> Option<HashSet<Ipv4Addr4>>,
) -> Vec<PresenceRow> {
    // (router, day) -> sources seen.
    let mut seen: BTreeMap<(RouterId, u64), HashSet<Ipv4Addr4>> = BTreeMap::new();
    let mut days: BTreeMap<u64, ()> = BTreeMap::new();
    let mut routers: HashSet<RouterId> = HashSet::new();
    for r in &ds.records {
        seen.entry((r.router, r.day())).or_default().insert(r.key.src);
        days.insert(r.day(), ());
        routers.insert(r.router);
    }
    let mut routers: Vec<RouterId> = routers.into_iter().collect();
    routers.sort_unstable();
    days.keys()
        .filter_map(|&day| {
            let pop = hitters(day)?;
            if pop.is_empty() {
                return None;
            }
            let fracs = routers
                .iter()
                .map(|&router| {
                    let got = seen
                        .get(&(router, day))
                        .map_or(0, |s| pop.iter().filter(|ip| s.contains(ip)).count());
                    (router, got as f64 / pop.len() as f64)
                })
                .collect();
            Some(PresenceRow { day, population: pop.len() as u64, seen_fraction: fracs })
        })
        .collect()
}

/// Classify a flow record into the telescope's three scanning buckets
/// (for the Table 3 darknet-vs-flow protocol comparison). Flow data has
/// no per-packet flags, so a TCP flow whose OR'd flags are SYN-only is
/// counted as TCP-SYN; ICMP flows count as echo probes.
pub(crate) fn flow_scan_bucket(r: &FlowRecord) -> Option<usize> {
    match r.key.protocol {
        6 if r.tcp_flags & 0x12 == 0x02 => Some(0),
        6 => None,
        17 => Some(1),
        1 => Some(2),
        _ => None,
    }
}

/// Streaming analyzer for an unsampled packet tap (Figures 1 and 2):
/// per-second total and hitter packet counts.
pub struct TapAnalyzer {
    ah: HashSet<Ipv4Addr4>,
    start: Ts,
    bins: Vec<(u64, u64)>, // (total, ah) per elapsed second
}

impl TapAnalyzer {
    /// `ah` is the hitter list being joined (the paper derives it from
    /// darknet detection the day before the tap window).
    pub fn new(ah: HashSet<Ipv4Addr4>, start: Ts) -> TapAnalyzer {
        TapAnalyzer { ah, start, bins: Vec::new() }
    }

    /// Observe one packet crossing the tap.
    pub fn observe(&mut self, pkt: &PacketMeta) {
        let sec = pkt.ts.since(self.start).secs() as usize;
        if self.bins.len() <= sec {
            self.bins.resize(sec + 1, (0, 0));
        }
        self.bins[sec].0 += 1;
        if self.ah.contains(&pkt.src) {
            self.bins[sec].1 += 1;
        }
    }

    /// The finished time series.
    pub fn series(&self) -> TapSeries {
        TapSeries { bins: self.bins.clone() }
    }
}

/// Per-second tap series with the paper's three views.
#[derive(Debug, Clone)]
pub struct TapSeries {
    /// (total, hitter) packets per elapsed second.
    pub bins: Vec<(u64, u64)>,
}

impl TapSeries {
    /// Total packets across the window.
    pub fn total_packets(&self) -> u64 {
        self.bins.iter().map(|b| b.0).sum()
    }

    /// Hitter packets across the window.
    pub fn ah_packets(&self) -> u64 {
        self.bins.iter().map(|b| b.1).sum()
    }

    /// Figure 1 top row: cumulative hitter fraction over time (percent).
    pub fn cumulative_pct(&self) -> Vec<f64> {
        let mut total = 0u64;
        let mut ah = 0u64;
        self.bins
            .iter()
            .map(|&(t, a)| {
                total += t;
                ah += a;
                if total == 0 {
                    0.0
                } else {
                    100.0 * ah as f64 / total as f64
                }
            })
            .collect()
    }

    /// Figure 1 middle row: instantaneous (per-second) hitter percent.
    pub fn instantaneous_pct(&self) -> Vec<f64> {
        self.bins
            .iter()
            .map(|&(t, a)| if t == 0 { 0.0 } else { 100.0 * a as f64 / t as f64 })
            .collect()
    }

    /// Figure 1 bottom row: total rate in packets per second.
    pub fn rate_pps(&self) -> Vec<u64> {
        self.bins.iter().map(|b| b.0).collect()
    }

    /// Figure 2: hitter packet rate normalized by the network's /24 count.
    pub fn ah_rate_per_slash24(&self, slash24s: u64) -> Vec<f64> {
        let n = slash24s.max(1) as f64;
        self.bins.iter().map(|b| b.1 as f64 / n).collect()
    }

    /// Coarsen to `window`-second bins (averaging rates), for plotting.
    pub fn downsample(&self, window: usize) -> TapSeries {
        let window = window.max(1);
        let bins = self
            .bins
            .chunks(window)
            .map(|c| {
                let t: u64 = c.iter().map(|b| b.0).sum();
                let a: u64 = c.iter().map(|b| b.1).sum();
                (t / c.len() as u64, a / c.len() as u64)
            })
            .collect();
        TapSeries { bins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_flow::cache::FlowCache;
    use ah_flow::router::{Direction, RouterDayCounter};
    use ah_net::time::Dur;
    use std::collections::HashMap;

    fn ip(n: u8) -> Ipv4Addr4 {
        Ipv4Addr4::new(100, 64, 0, n)
    }

    fn user() -> Ipv4Addr4 {
        Ipv4Addr4::new(10, 0, 0, 1)
    }

    /// Build a FlowDataset by pushing packets through a real cache.
    fn dataset(packets: &[(Ipv4Addr4, u64, u8)], totals: &[((RouterId, u64), u64)]) -> FlowDataset {
        let mut caches: HashMap<u8, FlowCache> = HashMap::new();
        // Stagger timestamps: byte-identical packets at the same µs would
        // be suppressed by the cache as wire duplicates.
        for (i, &(src, day, router)) in packets.iter().enumerate() {
            let pkt = PacketMeta::tcp_syn(
                Ts::from_days(day) + Dur::from_secs(60) + Dur::from_millis(i as u64),
                src,
                user(),
                4000,
                23,
            );
            caches
                .entry(router)
                .or_insert_with(|| FlowCache::new(router))
                .observe(&pkt, Direction::Ingress);
        }
        let mut records = Vec::new();
        for (_, mut c) in caches {
            records.extend(c.flush());
        }
        FlowDataset {
            records,
            sampling_rate: 10,
            router_days: totals
                .iter()
                .map(|&(k, v)| (k, RouterDayCounter { packets: v, bytes: v * 40 }))
                .collect(),
        }
    }

    #[test]
    fn flow_impact_counts_hitter_sources_only() {
        let ds = dataset(
            &[(ip(1), 0, 1), (ip(1), 0, 1), (ip(2), 0, 1), (ip(1), 1, 1)],
            &[((1, 0), 1000), ((1, 1), 1000)],
        );
        let ah: HashSet<_> = [ip(1)].into_iter().collect();
        let rows = flow_impact(&ds, |_| Some(ah.clone()));
        assert_eq!(rows.len(), 2);
        let d0 = rows.iter().find(|r| r.day == 0).unwrap();
        // 2 sampled packets × rate 10 = 20 estimated.
        assert_eq!(d0.ah_packets, 20);
        assert_eq!(d0.total_packets, 1000);
        assert!((d0.pct() - 2.0).abs() < 1e-9);
        let d1 = rows.iter().find(|r| r.day == 1).unwrap();
        assert_eq!(d1.ah_packets, 10);
    }

    #[test]
    fn flow_impact_day_specific_population() {
        let ds = dataset(&[(ip(1), 0, 1), (ip(1), 1, 1)], &[((1, 0), 100), ((1, 1), 100)]);
        // ip(1) is a hitter on day 0 only.
        let rows = flow_impact(&ds, |day| (day == 0).then(|| [ip(1)].into_iter().collect()));
        let d0 = rows.iter().find(|r| r.day == 0).unwrap();
        let d1 = rows.iter().find(|r| r.day == 1).unwrap();
        assert!(d0.ah_packets > 0);
        assert_eq!(d1.ah_packets, 0);
    }

    #[test]
    fn presence_fractions() {
        // ip(1) seen at routers 1 and 2; ip(2) only at router 1.
        let ds =
            dataset(&[(ip(1), 0, 1), (ip(1), 0, 2), (ip(2), 0, 1)], &[((1, 0), 10), ((2, 0), 10)]);
        let pop: HashSet<_> = [ip(1), ip(2), ip(3)].into_iter().collect();
        let rows = presence(&ds, |_| Some(pop.clone()));
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.population, 3);
        let get = |r: RouterId| row.seen_fraction.iter().find(|(x, _)| *x == r).unwrap().1;
        assert!((get(1) - 2.0 / 3.0).abs() < 1e-9);
        assert!((get(2) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn scan_bucket_classification() {
        let ds = dataset(&[(ip(1), 0, 1)], &[((1, 0), 10)]);
        let rec = &ds.records[0];
        assert_eq!(flow_scan_bucket(rec), Some(0)); // bare SYN flow
        let mut udp = *rec;
        udp.key.protocol = 17;
        assert_eq!(flow_scan_bucket(&udp), Some(1));
        let mut icmp = *rec;
        icmp.key.protocol = 1;
        assert_eq!(flow_scan_bucket(&icmp), Some(2));
        let mut ack = *rec;
        ack.tcp_flags = 0x10;
        assert_eq!(flow_scan_bucket(&ack), None);
        let mut other = *rec;
        other.key.protocol = 47;
        assert_eq!(flow_scan_bucket(&other), None);
    }

    #[test]
    fn tap_series_views() {
        let ah: HashSet<_> = [ip(1)].into_iter().collect();
        let mut tap = TapAnalyzer::new(ah, Ts::from_secs(100));
        // Second 0: 3 packets, 1 from the hitter. Second 2: 2 packets, both hitter.
        for (src, at) in [(ip(1), 0u64), (ip(2), 0), (ip(3), 0), (ip(1), 2), (ip(1), 2)] {
            tap.observe(&PacketMeta::tcp_syn(Ts::from_secs(100 + at), src, user(), 1, 23));
        }
        let s = tap.series();
        assert_eq!(s.bins.len(), 3);
        assert_eq!(s.total_packets(), 5);
        assert_eq!(s.ah_packets(), 3);
        let inst = s.instantaneous_pct();
        assert!((inst[0] - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(inst[1], 0.0);
        assert!((inst[2] - 100.0).abs() < 1e-9);
        let cum = s.cumulative_pct();
        assert!((cum[2] - 60.0).abs() < 1e-9);
        assert_eq!(s.rate_pps(), vec![3, 0, 2]);
        let per24 = s.ah_rate_per_slash24(2);
        assert!((per24[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tap_downsample() {
        let s = TapSeries { bins: vec![(10, 1), (20, 3), (30, 5), (40, 7)] };
        let d = s.downsample(2);
        assert_eq!(d.bins, vec![(15, 2), (35, 6)]);
        assert_eq!(s.downsample(1).bins, s.bins);
    }
}
