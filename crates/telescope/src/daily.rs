//! Per-day packet tally of the raw capture — kept only for the benchmark.
//!
//! The paper's per-day quantities (Figure 3, Table 1) come from darknet
//! events attributed by start day, which the detector builds
//! (`ah_core::detector::AhReport::day_all_sources`). No run, table or
//! figure reads a packet-level daily rollup, so the engine keeps none.
//! [`DailyTracker::new`] and [`DailyTracker::record`] remain because the
//! benchmark's staged rebuild (`crates/perf/src/adapter.rs`) names them
//! and times them as part of the telescope stage; they go when that
//! rebuild does.

use ah_net::hash::FastSet;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use std::collections::BTreeMap;

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
        assert_eq!(t.days.len(), 2);
        assert_eq!(t.days[&0].scan_packets, 2);
        assert_eq!(t.days[&0].sources.len(), 1);
        assert_eq!(t.days[&1].scan_packets, 0);
        assert_eq!(t.days[&1].total_packets, 1);
    }
}
