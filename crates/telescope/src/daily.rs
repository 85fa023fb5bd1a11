//! Per-day rollups of darknet activity.
//!
//! Figure 3 and Table 1 need day-granular aggregates of the raw capture:
//! how many scanning packets arrived and from how many unique sources.

use ah_net::hash::FastSet;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use std::collections::BTreeMap;

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

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::time::{Dur, Ts};

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
    }
}
