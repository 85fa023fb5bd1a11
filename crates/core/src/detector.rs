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
//! Finalize is two linear walks over *source runs*: the events of one
//! source side by side. The engine's canonical sequence (by `EventKey`,
//! whose first field is the source) is already one run per source, and
//! is walked where it lies; any other ingest order is walked in a copy
//! sorted by source, which only tests and hand-fed callers pay. The
//! first walk counts each run's distinct ports per day it spans, D3's
//! statistic, into a value→count histogram ([`Ecdf`]), as D2's packets
//! per event are. It keeps a `(src, day, ports)` row only where the
//! count reaches D3's floor of 2 ports, below which no threshold
//! qualifies a day. With both
//! thresholds known, the second walk qualifies each run under D1/D2/D3
//! and tallies the per-day totals in day-indexed vectors. Within a run,
//! per-day marks stamped with the run's number find each qualifying day
//! and start day once, so a set is probed once per (source, day), not
//! once per event.
//!
//! Every set, threshold and per-day total is a function of the *set* of
//! ingested events; only [`AhReport::records`] keeps ingest order, which
//! a telescope flush makes canonical (by key, then in close order).

use crate::defs::{Definition, Thresholds};
use crate::ecdf::Ecdf;
use ah_net::hash::FastMap;
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

/// The fewest distinct ports per day that can qualify under D3, whatever
/// the ECDF says: a degenerate percentile of 1 port/day (possible in small
/// datasets where almost every source probes one port) would otherwise
/// declare the entire population aggressive.
const D3_FLOOR: u64 = 2;

/// Whether two neighbouring events extend one source run.
fn same_source(a: &DarknetEvent, b: &DarknetEvent) -> bool {
    a.key.src == b.key.src
}

/// One mark per day, holding the number of the run that last set it, so
/// each run finds its own days without the marks being cleared between
/// runs. Runs are numbered from 1; 0 is no run.
struct DayMarks(Vec<u64>);

impl DayMarks {
    fn new(days: usize) -> DayMarks {
        DayMarks(vec![0; days])
    }

    /// Mark `day` for `run`; true the first time the run marks it.
    fn mark(&mut self, day: u16, run: u64) -> bool {
        std::mem::replace(&mut self.0[usize::from(day)], run) != run
    }

    fn marked(&self, day: u16, run: u64) -> bool {
        self.0[usize::from(day)] == run
    }
}

impl Detector {
    /// An empty detector with the given configuration.
    pub fn new(cfg: DetectorConfig) -> Detector {
        Detector::with_events(cfg, Vec::new())
    }

    /// A detector that takes ownership of a run's events, in the order
    /// the report's record table keeps. Events grouped by source, as the
    /// canonical sequence is, are walked in place at finalize.
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
        let report = if self.records.is_sorted_by_key(|r| r.key.src) {
            detect(self.cfg, &self.records)
        } else {
            let mut grouped = self.records.clone();
            grouped.sort_unstable_by_key(|r| r.key.src);
            detect(self.cfg, &grouped)
        };
        AhReport { records: self.records, ..report }
    }
}

/// The report of `events`, which are sorted by source, built in two
/// walks over their source runs; its record table is left empty.
fn detect(cfg: DetectorConfig, events: &[DarknetEvent]) -> AhReport {
    let t = cfg.thresholds;
    let dark = f64::from(cfg.dark_size.max(1));

    // --- Walk 1: the two ECDFs and thresholds --------------------------
    let d2_threshold = Ecdf::from_values(events.iter().map(|r| u64::from(r.packets)))
        .top_alpha_threshold(t.volume_alpha)
        .unwrap_or(u64::MAX);

    // Definition 3's statistic: per run, each `day << 16 | port` an event
    // spans, sorted and deduplicated, then counted by day. ICMP events
    // carry no port and are left out; a port probed over TCP and UDP
    // counts once. Every (src, day) count goes into the histogram, but only
    // counts at D3's floor or above can qualify, so only those are kept.
    let mut day_ports: Vec<u32> = Vec::new();
    let mut port_counts: FastMap<u64, usize> = FastMap::default();
    let mut rows: Vec<(Ipv4Addr4, u16, u32)> = Vec::new();
    for run in events.chunk_by(same_source) {
        let src = run[0].key.src;
        day_ports.clear();
        for e in run.iter().filter(|e| e.key.class != ScanClass::IcmpEcho) {
            let port = u32::from(e.key.dst_port);
            day_ports.extend((e.start_day..=e.end_day).map(|day| u32::from(day) << 16 | port));
        }
        day_ports.sort_unstable();
        day_ports.dedup();
        for day in day_ports.chunk_by(|a, b| a >> 16 == b >> 16) {
            let ports = day.len() as u32;
            *port_counts.entry(u64::from(ports)).or_default() += 1;
            if u64::from(ports) >= D3_FLOOR {
                rows.push((src, (day[0] >> 16) as u16, ports));
            }
        }
    }
    drop(day_ports);
    let d3_threshold = Ecdf::from_counts(port_counts)
        .top_alpha_threshold(t.ports_alpha)
        .unwrap_or(u64::MAX)
        .max(D3_FLOOR);

    // --- Walk 2: qualification and per-day totals ----------------------
    let days =
        events.iter().map(|r| usize::from(r.start_day.max(r.end_day)) + 1).max().unwrap_or(0);
    let mut yearly: [HashSet<Ipv4Addr4>; 3] = Default::default();
    let mut daily: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3] = Default::default();
    let mut active: [BTreeMap<u64, HashSet<Ipv4Addr4>>; 3] = Default::default();
    let mut day_ah_packets: [Vec<u64>; 3] = std::array::from_fn(|_| vec![0; days]);
    let mut day_all_sources = vec![0u64; days];
    let mut day_all_packets = vec![0u64; days];
    // Per definition, the days a run qualifies on: packets of the run's
    // events starting on one are attributable to that day's hitters.
    let mut qualified: [DayMarks; 3] = std::array::from_fn(|_| DayMarks::new(days));
    // Per event definition (D1, D2), the days a qualifying event spans.
    let mut spanned: [DayMarks; 2] = std::array::from_fn(|_| DayMarks::new(days));
    let mut started = DayMarks::new(days);
    let i3 = Definition::DistinctPorts.index();
    let mut rows = rows.as_slice();
    for (n, run) in (1..).zip(events.chunk_by(same_source)) {
        let src = run[0].key.src;
        let (run_rows, rest) = rows.split_at(rows.iter().take_while(|r| r.0 == src).count());
        rows = rest;
        let mut hit = [false; 3];

        // D1/D2 qualify whole events.
        for e in run {
            let start = usize::from(e.start_day);
            if started.mark(e.start_day, n) {
                day_all_sources[start] += 1;
            }
            day_all_packets[start] += u64::from(e.packets);
            let d1 = f64::from(e.unique_dsts) / dark >= t.dispersion_fraction;
            let d2 = u64::from(e.packets) > d2_threshold;
            for (qualifies, def) in
                [(d1, Definition::AddressDispersion), (d2, Definition::PacketVolume)]
            {
                if !qualifies {
                    continue;
                }
                let i = def.index();
                hit[i] = true;
                if qualified[i].mark(e.start_day, n) {
                    daily[i].entry(u64::from(e.start_day)).or_default().insert(src);
                }
                for day in e.start_day..=e.end_day {
                    if spanned[i].mark(day, n) {
                        active[i].entry(u64::from(day)).or_default().insert(src);
                    }
                }
            }
        }

        // D3 qualifies (src, day) pairs. Note the paper's asymmetric
        // wording: D2 hitters *cross* the threshold (strictly above),
        // D3 hitters scan "more than or equal to" the threshold.
        for &(_, day, ports) in run_rows {
            if u64::from(ports) >= d3_threshold {
                hit[i3] = true;
                qualified[i3].mark(day, n);
                daily[i3].entry(u64::from(day)).or_default().insert(src);
                active[i3].entry(u64::from(day)).or_default().insert(src);
            }
        }
        for (set, _) in yearly.iter_mut().zip(hit).filter(|&(_, hit)| hit) {
            set.insert(src);
        }

        // Packets are attributable to an event's start day only.
        for e in run {
            for (ah, q) in day_ah_packets.iter_mut().zip(&qualified) {
                if q.marked(e.start_day, n) {
                    ah[usize::from(e.start_day)] += u64::from(e.packets);
                }
            }
        }
    }
    // Days on which some event starts, with their tallies.
    let by_day = |tally: &[u64]| -> BTreeMap<u64, u64> {
        (0u64..)
            .zip(tally)
            .zip(&day_all_sources)
            .filter(|&(_, &sources)| sources > 0)
            .map(|((day, &n), _)| (day, n))
            .collect()
    };
    AhReport {
        cfg,
        d2_threshold,
        d3_threshold,
        yearly,
        daily,
        active,
        day_ah_packets,
        day_all_sources: by_day(&day_all_sources),
        day_all_packets: by_day(&day_all_packets),
        records: Vec::new(),
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
    /// Per definition, indexed by day.
    day_ah_packets: [Vec<u64>; 3],
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
        let day = usize::try_from(day).unwrap_or(usize::MAX);
        self.day_ah_packets[def.index()].get(day).copied().unwrap_or(0)
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
        d.ingest(&ev(1, 54, 0, 1, 1));
        d.ingest(&ev(1, 55, 0, 1, 1));
        // One (src, day) sample of 3 distinct ports: its own quantile.
        assert_eq!(d.finalize().d3_threshold, 3);
    }

    #[test]
    fn icmp_events_do_not_contribute_ports() {
        let mut d = detector();
        let mut e = ev(1, 0, 0, 1, 1);
        e.key.class = ScanClass::IcmpEcho;
        d.ingest(&e);
        // No (src, day) sample at all: no D3 threshold.
        assert_eq!(d.finalize().d3_threshold, u64::MAX);
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
