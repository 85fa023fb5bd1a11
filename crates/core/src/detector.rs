//! Aggressive-hitter detection over darknet events.
//!
//! The [`Detector`] holds completed darknet events — the 28-byte
//! [`DarknetEvent`] records the telescope closes — and at
//! [`Detector::finalize`] computes, for each of the three definitions:
//!
//! * the **yearly** hitter set (any qualifying event in the dataset),
//! * the **daily** sets (hitters whose qualifying activity *started*
//!   that day — the only granularity at which the events data format
//!   allows packet accounting, per the paper's Figure 3 footnote),
//! * the **active** sets (hitters whose qualifying activity *spans* the
//!   day, i.e. may have started earlier),
//! * per-day packet totals attributable to daily hitters.
//!
//! Definitions 2 and 3 need dataset-wide ECDF thresholds, so detection is
//! inherently two-phase: hold on ingest, qualify on finalize.
//!
//! Beside the events, finalize holds no per-event sample vector. D2's
//! ECDF is a value→count histogram of packets per event ([`Ecdf`]).
//! D3 sorts one packed (src, day, port) tuple per distinct port a
//! source probed on a day and streams its (src, day) runs twice: once
//! into the port-count histogram, and once, after the threshold is
//! known, into the qualifying sets.
//!
//! Every set, threshold and per-day total is a function of the *set* of
//! ingested events; only [`AhReport::records`] keeps ingest order, which
//! a telescope flush makes canonical (by key, then in close order).

use crate::defs::{Definition, Thresholds};
use crate::ecdf::Ecdf;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::ScanClass;
use ah_telescope::event::DarknetEvent;
use std::collections::{BTreeMap, HashSet};

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Tail cuts for the three definitions.
    pub thresholds: Thresholds,
    /// Size of the monitored dark space (denominator of dispersion).
    pub dark_size: u32,
}

impl DetectorConfig {
    /// Default thresholds over a dark space of `dark_size` addresses.
    pub fn new(dark_size: u32) -> DetectorConfig {
        DetectorConfig { thresholds: Thresholds::default(), dark_size }
    }
}

/// Streaming event consumer.
pub struct Detector {
    cfg: DetectorConfig,
    records: Vec<DarknetEvent>,
}

fn pack_tuple(src: Ipv4Addr4, day: u16, port: u16) -> u64 {
    (u64::from(src.to_u32()) << 32) | (u64::from(day) << 16) | u64::from(port)
}

fn unpack_src_day(t: u64) -> (Ipv4Addr4, u16) {
    (Ipv4Addr4((t >> 32) as u32), ((t >> 16) & 0xffff) as u16)
}

/// Definition 3's input, a function of the records: one packed (src,
/// day, port) tuple per distinct port a source probed on a day an event
/// spans, ascending. ICMP events carry no port and are excluded.
fn srcday_ports(records: &[DarknetEvent]) -> Vec<u64> {
    let ported = || records.iter().filter(|r| r.key.class != ScanClass::IcmpEcho);
    let mut tuples = Vec::with_capacity(ported().map(|r| (r.start_day..=r.end_day).len()).sum());
    for r in ported() {
        for day in r.start_day..=r.end_day {
            tuples.push(pack_tuple(r.key.src, day, r.key.dst_port));
        }
    }
    tuples.sort_unstable();
    tuples.dedup();
    tuples
}

/// Distinct ports per (src, day) — definition 3's statistic — streamed
/// off [`srcday_ports`]'s tuples, one `(src, day, count)` per run that
/// shares a (src, day).
fn ports_per_srcday(tuples: &[u64]) -> impl Iterator<Item = (Ipv4Addr4, u16, u64)> + '_ {
    tuples.chunk_by(|a, b| a >> 16 == b >> 16).map(|run| {
        let (src, day) = unpack_src_day(run[0]);
        (src, day, run.len() as u64)
    })
}

impl Detector {
    /// An empty detector with the given configuration.
    pub fn new(cfg: DetectorConfig) -> Detector {
        Detector::with_events(cfg, Vec::new())
    }

    /// A detector that takes ownership of a run's events, in the order
    /// the report's record table keeps.
    pub fn with_events(cfg: DetectorConfig, records: Vec<DarknetEvent>) -> Detector {
        Detector { cfg, records }
    }

    /// Ingest one completed darknet event.
    pub fn ingest(&mut self, ev: &DarknetEvent) {
        self.records.push(*ev);
    }

    /// Ingest a batch.
    pub fn ingest_all(&mut self, evs: &[DarknetEvent]) {
        self.records.extend_from_slice(evs);
    }

    /// Run qualification and build the report.
    pub fn finalize(self) -> AhReport {
        let t = self.cfg.thresholds;
        let dark = f64::from(self.cfg.dark_size.max(1));

        // --- ECDFs and thresholds ---------------------------------------
        let volumes = Ecdf::from_values(self.records.iter().map(|r| u64::from(r.packets)));
        let d2_threshold = volumes.top_alpha_threshold(t.volume_alpha).unwrap_or(u64::MAX);

        let srcday_ports = srcday_ports(&self.records);
        let port_counts = Ecdf::from_values(ports_per_srcday(&srcday_ports).map(|(_, _, c)| c));
        // Floor of 2: a degenerate percentile of 1 port/day (possible in
        // small datasets where almost every source probes one port) would
        // otherwise declare the entire population aggressive.
        let d3_threshold =
            port_counts.top_alpha_threshold(t.ports_alpha).unwrap_or(u64::MAX).max(2);

        // --- Qualification ------------------------------------------------
        let mut yearly: [HashSet<Ipv4Addr4>; 3] = Default::default();
        let mut daily: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3] = Default::default();
        let mut active: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3] = Default::default();
        let mut day_ah_packets: [BTreeMap<u64, u64>; 3] = Default::default();

        // D1/D2 qualify whole events.
        for r in &self.records {
            let d1 = f64::from(r.unique_dsts) / dark >= t.dispersion_fraction;
            let d2 = u64::from(r.packets) > d2_threshold;
            for (qualifies, def) in
                [(d1, Definition::AddressDispersion), (d2, Definition::PacketVolume)]
            {
                if !qualifies {
                    continue;
                }
                let i = def.index();
                yearly[i].insert(r.key.src);
                daily[i].entry(u64::from(r.start_day)).or_default().insert(r.key.src);
                for day in r.start_day..=r.end_day {
                    active[i].entry(u64::from(day)).or_default().insert(r.key.src);
                }
            }
        }

        // D3 qualifies (src, day) pairs, on a second pass over the same
        // runs. Note the paper's asymmetric wording: D2 hitters *cross*
        // the threshold (strictly above), D3 hitters scan "more than or
        // equal to" the threshold.
        let i3 = Definition::DistinctPorts.index();
        let mut d3_srcdays: HashSet<(Ipv4Addr4, u64)> = HashSet::new();
        for (src, day, count) in ports_per_srcday(&srcday_ports) {
            if count >= d3_threshold {
                yearly[i3].insert(src);
                daily[i3].entry(u64::from(day)).or_default().insert(src);
                active[i3].entry(u64::from(day)).or_default().insert(src);
                d3_srcdays.insert((src, u64::from(day)));
            }
        }
        // The tuples are D3's alone: free them before the per-day passes.
        drop(srcday_ports);

        // --- Per-day packets from daily hitters ---------------------------
        // Packets are attributable to an event's start day only.
        for r in &self.records {
            let day = u64::from(r.start_day);
            for def in Definition::ALL {
                let i = def.index();
                let qualifies_today = match def {
                    Definition::DistinctPorts => d3_srcdays.contains(&(r.key.src, day)),
                    _ => daily[i].get(&day).is_some_and(|s| s.contains(&r.key.src)),
                };
                if qualifies_today {
                    *day_ah_packets[i].entry(day).or_default() += u64::from(r.packets);
                }
            }
        }

        // --- All-scanner daily statistics ---------------------------------
        let mut day_all_sources: BTreeMap<u64, HashSet<Ipv4Addr4>> = BTreeMap::new();
        let mut day_all_packets: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &self.records {
            let day = u64::from(r.start_day);
            day_all_sources.entry(day).or_default().insert(r.key.src);
            *day_all_packets.entry(day).or_default() += u64::from(r.packets);
        }

        AhReport {
            cfg: self.cfg,
            d2_threshold,
            d3_threshold,
            yearly,
            daily,
            active,
            day_ah_packets,
            day_all_sources: day_all_sources
                .into_iter()
                .map(|(d, s)| (d, s.len() as u64))
                .collect(),
            day_all_packets,
            records: self.records,
        }
    }
}

/// The finalized detection output.
pub struct AhReport {
    /// The configuration the detector ran with.
    pub cfg: DetectorConfig,
    /// Definition-2 packets-per-event threshold (strictly above ⇒ hitter).
    pub d2_threshold: u64,
    /// Definition-3 distinct-ports-per-day threshold.
    pub d3_threshold: u64,
    yearly: [HashSet<Ipv4Addr4>; 3],
    daily: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3],
    active: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3],
    day_ah_packets: [BTreeMap<u64, u64>; 3],
    /// Unique sources with events starting each day (all scanners).
    pub day_all_sources: BTreeMap<u64, u64>,
    /// Scanning packets in events starting each day (all scanners).
    pub day_all_packets: BTreeMap<u64, u64>,
    records: Vec<DarknetEvent>,
}

impl AhReport {
    /// The full-dataset hitter set for a definition.
    pub fn hitters(&self, def: Definition) -> &HashSet<Ipv4Addr4> {
        &self.yearly[def.index()]
    }

    /// Hitters whose qualifying activity started on `day`.
    pub fn daily_hitters(&self, def: Definition, day: u64) -> Option<&HashSet<Ipv4Addr4>> {
        self.daily[def.index()].get(&day)
    }

    /// Hitters with qualifying activity spanning `day`.
    pub fn active_hitters(&self, def: Definition, day: u64) -> Option<&HashSet<Ipv4Addr4>> {
        self.active[def.index()].get(&day)
    }

    /// Days with any daily hitters for a definition, ascending.
    pub fn days(&self, def: Definition) -> Vec<u64> {
        self.daily[def.index()].keys().copied().collect()
    }

    /// Packets attributable to daily hitters of `def` on `day`.
    pub fn ah_packets(&self, def: Definition, day: u64) -> u64 {
        self.day_ah_packets[def.index()].get(&day).copied().unwrap_or(0)
    }

    /// The event records (all scanners, not just hitters).
    pub fn records(&self) -> &[DarknetEvent] {
        &self.records
    }

    /// Event records whose source is a hitter under `def`.
    pub fn hitter_records(&self, def: Definition) -> impl Iterator<Item = &DarknetEvent> {
        let set = &self.yearly[def.index()];
        self.records.iter().filter(move |r| set.contains(&r.key.src))
    }

    /// Mean daily and active hitter counts over the observed span.
    pub fn mean_daily_active(&self, def: Definition) -> (f64, f64) {
        let i = def.index();
        let days = self.daily[i].len().max(1) as f64;
        let daily: usize = self.daily[i].values().map(HashSet::len).sum();
        let adays = self.active[i].len().max(1) as f64;
        let active: usize = self.active[i].values().map(HashSet::len).sum();
        (daily as f64 / days, active as f64 / adays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_telescope::event::EventKey;

    const DARK: u32 = 1000;

    fn ev(src: u8, port: u16, day: u16, packets: u32, unique: u32) -> DarknetEvent {
        ev_span(src, port, day, day, packets, unique)
    }

    fn ev_span(src: u8, port: u16, d0: u16, d1: u16, packets: u32, unique: u32) -> DarknetEvent {
        DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4::new(10, 0, 0, src),
                dst_port: port,
                class: ScanClass::TcpSyn,
            },
            start_day: d0,
            end_day: d1,
            packets,
            unique_dsts: unique,
            zmap: 0,
            masscan: 0,
        }
    }

    fn detector() -> Detector {
        Detector::new(DetectorConfig::new(DARK))
    }

    #[test]
    fn d1_requires_ten_percent_dispersion() {
        let mut d = detector();
        d.ingest(&ev(1, 23, 0, 500, 100)); // exactly 10%
        d.ingest(&ev(2, 23, 0, 500, 99)); // just under
        let r = d.finalize();
        let set = r.hitters(Definition::AddressDispersion);
        assert!(set.contains(&Ipv4Addr4::new(10, 0, 0, 1)));
        assert!(!set.contains(&Ipv4Addr4::new(10, 0, 0, 2)));
    }

    #[test]
    fn d2_uses_ecdf_tail() {
        let mut d = detector();
        // 99,999 small events and one giant: with α = 1e-4 only the giant
        // is above the 99.99th percentile.
        for i in 0..9_999u32 {
            d.ingest(&ev((i % 200) as u8, 23, 0, 10 + i % 7, 5));
        }
        d.ingest(&ev(250, 23, 0, 1_000_000, 5));
        let r = d.finalize();
        assert!(r.d2_threshold >= 10);
        let set = r.hitters(Definition::PacketVolume);
        assert!(set.contains(&Ipv4Addr4::new(10, 0, 0, 250)));
        assert!(set.len() <= 3, "tail should be tiny: {}", set.len());
    }

    #[test]
    fn d3_counts_distinct_ports_per_day() {
        let mut d = detector();
        // Source 1: 500 distinct ports on day 0. Source 2: 5 ports.
        for port in 1..=500u16 {
            d.ingest(&ev(1, port, 0, 1, 1));
        }
        for port in 1..=5u16 {
            d.ingest(&ev(2, port, 0, 1, 1));
        }
        // Tail of single-port sources to shape the ECDF.
        for i in 0..200u8 {
            d.ingest(&ev(i.wrapping_add(10), 80, 0, 1, 1));
        }
        let r = d.finalize();
        assert!(r.hitters(Definition::DistinctPorts).contains(&Ipv4Addr4::new(10, 0, 0, 1)));
        assert!(!r.hitters(Definition::DistinctPorts).contains(&Ipv4Addr4::new(10, 0, 0, 2)));
    }

    #[test]
    fn d3_same_port_across_protocols_counts_once() {
        let mut d = detector();
        let mut e_udp = ev(1, 53, 0, 1, 1);
        e_udp.key.class = ScanClass::Udp;
        d.ingest(&ev(1, 53, 0, 1, 1));
        d.ingest(&e_udp);
        // One (src, day) sample with exactly 1 distinct port.
        let counts: Vec<_> = ports_per_srcday(&srcday_ports(&d.records)).collect();
        assert_eq!(counts, [(Ipv4Addr4::new(10, 0, 0, 1), 0, 1)]);
    }

    #[test]
    fn icmp_events_do_not_contribute_ports() {
        let mut d = detector();
        let mut e = ev(1, 0, 0, 1, 1);
        e.key.class = ScanClass::IcmpEcho;
        d.ingest(&e);
        assert!(srcday_ports(&d.records).is_empty());
    }

    #[test]
    fn daily_vs_active_attribution() {
        let mut d = detector();
        // A qualifying event spanning days 1-3.
        d.ingest(&ev_span(1, 23, 1, 3, 5000, 200));
        let r = d.finalize();
        let def = Definition::AddressDispersion;
        let src = Ipv4Addr4::new(10, 0, 0, 1);
        assert!(r.daily_hitters(def, 1).unwrap().contains(&src));
        assert!(r.daily_hitters(def, 2).is_none(), "daily keys only the start day");
        for day in 1..=3 {
            assert!(r.active_hitters(def, day).unwrap().contains(&src), "day {day}");
        }
        assert!(r.active_hitters(def, 4).is_none());
    }

    #[test]
    fn ah_packets_attributed_to_start_day() {
        let mut d = detector();
        d.ingest(&ev(1, 23, 2, 700, 150)); // qualifying
        d.ingest(&ev(1, 22, 2, 50, 3)); // same src, same day, non-qualifying event
        d.ingest(&ev(2, 23, 2, 60, 3)); // non-hitter
        let r = d.finalize();
        // All packets of the daily hitter count, including its small event.
        assert_eq!(r.ah_packets(Definition::AddressDispersion, 2), 750);
        assert_eq!(r.day_all_packets[&2], 810);
        assert_eq!(r.day_all_sources[&2], 2);
    }

    #[test]
    fn hitter_records_filter() {
        let mut d = detector();
        d.ingest(&ev(1, 23, 0, 700, 150));
        d.ingest(&ev(2, 23, 0, 10, 2));
        let r = d.finalize();
        assert_eq!(r.records().len(), 2);
        assert_eq!(r.hitter_records(Definition::AddressDispersion).count(), 1);
    }

    #[test]
    fn mean_daily_active_counts() {
        let mut d = detector();
        d.ingest(&ev_span(1, 23, 0, 1, 700, 150));
        d.ingest(&ev(2, 23, 0, 700, 150));
        let r = d.finalize();
        let (daily, active) = r.mean_daily_active(Definition::AddressDispersion);
        // Day 0: 2 daily; active day 0: 2, day 1: 1.
        assert!((daily - 2.0).abs() < 1e-9);
        assert!((active - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_detector_finalizes() {
        let r = detector().finalize();
        assert!(r.hitters(Definition::AddressDispersion).is_empty());
        assert_eq!(r.d2_threshold, u64::MAX);
        assert!(r.records().is_empty());
    }
}
