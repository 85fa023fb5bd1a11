//! Per-day rollups of darknet activity.
//!
//! Figure 3 and Table 1 need day-granular aggregates of the raw capture:
//! how many scanning packets arrived, from how many unique sources, and
//! which events started on which day.

use crate::event::DarknetEvent;
use ah_net::hash::FastSet;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use std::collections::{BTreeMap, HashSet};

/// Aggregates for one day of capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Scanning packets captured this day.
    pub scan_packets: u64,
    /// All packets captured this day (incl. backscatter).
    pub total_packets: u64,
    /// Unique source IPs that sent scanning packets this day.
    pub unique_sources: u64,
}

/// Streaming per-day tracker. Feed every captured packet.
#[derive(Debug, Default)]
pub struct DailyTracker {
    days: BTreeMap<u64, DayAccum>,
}

#[derive(Debug, Default)]
struct DayAccum {
    scan_packets: u64,
    total_packets: u64,
    sources: FastSet<Ipv4Addr4>,
}

impl DailyTracker {
    /// An empty tracker.
    pub fn new() -> DailyTracker {
        DailyTracker::default()
    }

    /// Record one captured packet; `is_scan` from the telescope classifier.
    pub fn record(&mut self, pkt: &PacketMeta, is_scan: bool) {
        let acc = self.days.entry(pkt.ts.day()).or_default();
        acc.total_packets += 1;
        if is_scan {
            acc.scan_packets += 1;
            acc.sources.insert(pkt.src);
        }
    }

    /// Per-day statistics, ordered by day index.
    pub fn finalize(&self) -> BTreeMap<u64, DayStats> {
        self.days
            .iter()
            .map(|(day, acc)| {
                (
                    *day,
                    DayStats {
                        scan_packets: acc.scan_packets,
                        total_packets: acc.total_packets,
                        unique_sources: acc.sources.len() as u64,
                    },
                )
            })
            .collect()
    }

    /// Days observed so far.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// Fold another shard's tracker into this one.
    ///
    /// Packet counters sum and per-day source sets take their union, so
    /// the merged tracker finalizes to exactly what a single tracker fed
    /// the concatenated streams would produce — in any merge order.
    pub fn absorb(&mut self, other: DailyTracker) {
        for (day, acc) in other.days {
            let mine = self.days.entry(day).or_default();
            mine.scan_packets += acc.scan_packets;
            mine.total_packets += acc.total_packets;
            mine.sources.extend(acc.sources);
        }
    }
}

/// Group completed events by the day their scan *started* — the paper's
/// "daily" attribution (footnote to Figure 3: packet statistics can only
/// be computed for daily scanners because events carry their start day).
pub fn events_by_start_day(events: &[DarknetEvent]) -> BTreeMap<u64, Vec<&DarknetEvent>> {
    let mut map: BTreeMap<u64, Vec<&DarknetEvent>> = BTreeMap::new();
    for ev in events {
        map.entry(ev.start_day()).or_default().push(ev);
    }
    map
}

/// For each day, the set of sources with an event *active* that day
/// (started on or before, ended on or after) — the paper's "active"
/// scanner population.
pub fn active_sources_by_day(events: &[DarknetEvent]) -> BTreeMap<u64, HashSet<Ipv4Addr4>> {
    let mut map: BTreeMap<u64, HashSet<Ipv4Addr4>> = BTreeMap::new();
    for ev in events {
        for day in ev.days() {
            map.entry(day).or_default().insert(ev.key.src);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKey, ToolCounts};
    use ah_net::packet::ScanClass;
    use ah_net::time::{Dur, Ts};

    fn ev(src: u8, start_day: u64, end_day: u64) -> DarknetEvent {
        DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4::new(10, 0, 0, src),
                dst_port: 23,
                class: ScanClass::TcpSyn,
            },
            start: Ts::from_days(start_day) + Dur::from_secs(10),
            end: Ts::from_days(end_day) + Dur::from_secs(20),
            packets: 10,
            bytes: 400,
            unique_dsts: 10,
            dark_size: 100,
            tools: ToolCounts::default(),
        }
    }

    #[test]
    fn tracker_buckets_by_day() {
        let mut t = DailyTracker::new();
        let src = Ipv4Addr4::new(10, 0, 0, 1);
        let dst = Ipv4Addr4::new(192, 0, 2, 1);
        t.record(&PacketMeta::tcp_syn(Ts::from_days(0), src, dst, 1, 23), true);
        t.record(&PacketMeta::tcp_syn(Ts::from_days(0) + Dur::from_secs(5), src, dst, 1, 23), true);
        t.record(&PacketMeta::tcp_syn(Ts::from_days(1), src, dst, 1, 23), false);
        let days = t.finalize();
        assert_eq!(days.len(), 2);
        assert_eq!(days[&0].scan_packets, 2);
        assert_eq!(days[&0].unique_sources, 1);
        assert_eq!(days[&1].scan_packets, 0);
        assert_eq!(days[&1].total_packets, 1);
        assert_eq!(t.day_count(), 2);
    }

    #[test]
    fn start_day_grouping() {
        let events = vec![ev(1, 0, 0), ev(2, 0, 1), ev(3, 2, 2)];
        let by_day = events_by_start_day(&events);
        assert_eq!(by_day[&0].len(), 2);
        assert_eq!(by_day[&2].len(), 1);
        assert!(!by_day.contains_key(&1));
    }

    #[test]
    fn active_includes_span_days() {
        let events = vec![ev(1, 0, 2), ev(2, 1, 1)];
        let active = active_sources_by_day(&events);
        assert_eq!(active[&0].len(), 1);
        assert_eq!(active[&1].len(), 2);
        assert_eq!(active[&2].len(), 1);
    }

    #[test]
    fn active_dedupes_multiple_events_same_source() {
        // One source with two events the same day counts once.
        let events = vec![ev(1, 0, 0), ev(1, 0, 0)];
        let active = active_sources_by_day(&events);
        assert_eq!(active[&0].len(), 1);
    }
}
