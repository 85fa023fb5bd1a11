//! Dark-space capture: filtering, classification and running statistics.

use crate::dstset::DstSet;
use ah_mem::{MemScope, Tag};
use ah_net::hash::FastSet;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, ScanClass};
use ah_net::prefix::Prefix;

/// The monitored dark address block.
///
/// Wraps a [`Prefix`] and provides the dense destination indexing the
/// event aggregator's dispersion bitmaps rely on.
#[derive(Debug, Clone, Copy)]
pub struct DarkSpace {
    prefix: Prefix,
}

impl DarkSpace {
    /// The dark space covering `prefix`.
    pub fn new(prefix: Prefix) -> DarkSpace {
        DarkSpace { prefix }
    }

    /// Number of dark addresses.
    pub fn size(&self) -> u32 {
        self.prefix.size().min(u64::from(u32::MAX)) as u32
    }

    /// Dense index of a dark destination.
    pub fn index_of(&self, dst: Ipv4Addr4) -> Option<u32> {
        self.prefix.index_of(dst)
    }
}

/// Running statistics over everything the telescope captured — the raw
/// material of Table 1 (packets, unique sources, unique destinations).
#[derive(Debug, Clone)]
pub struct CaptureStats {
    /// All packets that arrived at the dark space, scanning or not.
    pub total_packets: u64,
    /// Packets per scanning class (TCP-SYN / UDP / ICMP echo).
    class_packets: [u64; 3],
    /// Packets that were not classifiable as scanning (backscatter etc.).
    non_scan_packets: u64,
    /// Unique source IPs seen (exact).
    sources: FastSet<Ipv4Addr4>,
    /// Unique dark destinations touched (exact, dense).
    dsts: DstSet,
}

impl CaptureStats {
    /// Empty statistics over a dark space of `dark_size` addresses.
    pub(crate) fn new(dark_size: u32) -> CaptureStats {
        CaptureStats {
            total_packets: 0,
            class_packets: [0; 3],
            non_scan_packets: 0,
            sources: FastSet::default(),
            dsts: DstSet::new(dark_size),
        }
    }

    fn record(&mut self, pkt: &PacketMeta, class: Option<ScanClass>, dst_index: u32) {
        self.total_packets += 1;
        self.sources.insert(pkt.src);
        self.dsts.insert(dst_index);
        match class {
            Some(ScanClass::TcpSyn) => self.class_packets[0] += 1,
            Some(ScanClass::Udp) => self.class_packets[1] += 1,
            Some(ScanClass::IcmpEcho) => self.class_packets[2] += 1,
            None => self.non_scan_packets += 1,
        }
    }

    /// Unique source IP count.
    pub fn unique_sources(&self) -> u64 {
        self.sources.len() as u64
    }

    /// Unique dark destinations touched.
    pub(crate) fn unique_dsts(&self) -> u64 {
        u64::from(self.dsts.count())
    }

    /// Scanning packets (sum over classes).
    pub fn scan_packets(&self) -> u64 {
        self.class_packets.iter().sum()
    }

    /// Fold another shard's statistics into this one.
    ///
    /// Counters sum; the unique-source and unique-destination sets take
    /// their set union, so the merged result equals what a single
    /// instance would have computed over the concatenated streams — in
    /// any merge order.
    pub fn merge(&mut self, other: &CaptureStats) {
        self.total_packets += other.total_packets;
        for (a, b) in self.class_packets.iter_mut().zip(other.class_packets.iter()) {
            *a += *b;
        }
        self.non_scan_packets += other.non_scan_packets;
        self.sources.extend(other.sources.iter().copied());
        self.dsts.union_with(&other.dsts);
    }
}

/// Compact summary of capture statistics for reports.
#[derive(Debug, Clone)]
pub struct CaptureSummary {
    /// All packets that arrived at the dark space.
    pub total_packets: u64,
    /// Packets classified as scanning.
    pub scan_packets: u64,
    /// Packets not classifiable as scanning (backscatter etc.).
    pub non_scan_packets: u64,
    /// Unique source IPs seen (exact).
    pub unique_sources: u64,
    /// Unique dark destinations touched (exact).
    pub unique_dsts: u64,
}

impl From<&CaptureStats> for CaptureSummary {
    fn from(s: &CaptureStats) -> CaptureSummary {
        CaptureSummary {
            total_packets: s.total_packets,
            scan_packets: s.scan_packets(),
            non_scan_packets: s.non_scan_packets,
            unique_sources: s.unique_sources(),
            unique_dsts: s.unique_dsts(),
        }
    }
}

/// The full telescope: filter + classifier + event aggregation + stats.
pub struct Telescope {
    dark: DarkSpace,
    stats: CaptureStats,
    aggregator: crate::event::EventAggregator,
    /// Source prefixes dropped before detection (bogons/martians).
    source_filter: ah_net::prefix::PrefixSet,
    /// Packets dropped by the source filter.
    filtered_packets: u64,
    /// Telemetry (inert until [`Telescope::set_recorder`]).
    m_packets: ah_obs::Counter,
    m_bytes: ah_obs::Counter,
    m_filtered: ah_obs::Counter,
    /// Trace handle (inert until [`Telescope::set_tracer`]).
    tracer: ah_trace::Tracer,
}

/// What happened to a packet offered to the telescope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureOutcome {
    /// Destination outside the dark space: not our traffic.
    NotDark,
    /// Source is a bogon/martian: dropped before detection.
    FilteredSource,
    /// Captured and fed into event aggregation as a scanning packet.
    Scan(ScanClass),
    /// Captured but not a scanning packet (backscatter, fragments, ...).
    NonScan,
}

impl Telescope {
    /// A telescope over `prefix` with the given event idle timeout and no
    /// source filtering.
    pub fn new(prefix: Prefix, timeout: ah_net::time::Dur) -> Telescope {
        Telescope::with_source_filter(prefix, timeout, ah_net::prefix::PrefixSet::empty())
    }

    /// A telescope that drops packets whose *source* falls in `filter`
    /// before detection — the operational bogon/martian filter that keeps
    /// trivially-spoofable sources out of the hitter lists (the paper's
    /// "quality lists, minimizing false positives due to spoofing", §7).
    /// Real deployments pass [`ah_net::prefix::standard_bogons`]; the
    /// synthetic world passes a reduced set matching its address plan.
    pub fn with_source_filter(
        prefix: Prefix,
        timeout: ah_net::time::Dur,
        filter: ah_net::prefix::PrefixSet,
    ) -> Telescope {
        let dark = DarkSpace::new(prefix);
        Telescope {
            dark,
            stats: CaptureStats::new(dark.size()),
            aggregator: crate::event::EventAggregator::new(dark.size(), timeout),
            source_filter: filter,
            filtered_packets: 0,
            m_packets: ah_obs::Counter::default(),
            m_bytes: ah_obs::Counter::default(),
            m_filtered: ah_obs::Counter::default(),
            tracer: ah_trace::Tracer::noop(),
        }
    }

    /// Attach live telemetry instruments (`ah_telescope_capture_*`) to
    /// this telescope and `ah_telescope_agg_*` to its event aggregator.
    /// Observation-only: capture and event semantics are unchanged.
    pub fn set_recorder(&mut self, rec: &ah_obs::Recorder) {
        // Instruments are interned in the recorder, which outlives any
        // run — charge them to Obs, not the run-scoped Telescope tag.
        let _mem = MemScope::enter(Tag::Obs);
        self.m_packets = rec.counter("ah_telescope_capture_packets_total");
        self.m_bytes = rec.counter("ah_telescope_capture_bytes_total");
        self.m_filtered = rec.counter("ah_telescope_capture_filtered_total");
        self.aggregator.set_recorder(rec);
    }

    /// Attach a tracer: sampled packet journeys get an
    /// `ah_telescope_capture_observe` instant as they enter the dark
    /// space, and the aggregator's timed sweeps get an
    /// `ah_telescope_agg_sweep` span. Observation-only — capture and
    /// event semantics are unchanged.
    pub fn set_tracer(&mut self, tracer: &ah_trace::Tracer) {
        self.tracer = tracer.clone();
        self.aggregator.set_tracer(tracer);
    }

    /// Packets dropped by the source filter so far.
    pub fn filtered_packets(&self) -> u64 {
        self.filtered_packets
    }

    /// The monitored dark space.
    pub fn dark_space(&self) -> DarkSpace {
        self.dark
    }

    /// Offer one packet to the telescope.
    ///
    /// Every step — dark-space membership, source filtering,
    /// classification, capture statistics, and the aggregator's per-key
    /// reordering verdict — depends only on the packet and per-key
    /// state, so feeding a source-partitioned substream to its own
    /// `Telescope` instance and merging afterwards reproduces the
    /// serial result exactly (`ARCHITECTURE.md` §11).
    pub fn observe(&mut self, pkt: &PacketMeta) -> CaptureOutcome {
        // Deliberately NO memory scope here: this is the hottest
        // function in the pipeline, and even a disabled tag check per
        // packet is measurable. The engine's tagged consume path
        // (`pipeline::Vantage::consume::<true>`) brackets this call
        // with `ah_mem::tag_swap` when accounting is on.
        let Some(idx) = self.dark.index_of(pkt.dst) else {
            return CaptureOutcome::NotDark;
        };
        let journey = self.tracer.journey_id(pkt.src.to_u32());
        if journey != 0 {
            self.tracer.journey_instant("ah_telescope_capture_observe", journey);
        }
        if self.source_filter.contains(pkt.src) {
            self.filtered_packets += 1;
            self.m_filtered.inc();
            return CaptureOutcome::FilteredSource;
        }
        let class = pkt.scan_class();
        self.stats.record(pkt, class, idx);
        self.m_packets.inc();
        self.m_bytes.add(u64::from(pkt.wire_len));
        match class {
            Some(c) => {
                self.aggregator.observe(pkt, c, idx);
                CaptureOutcome::Scan(c)
            }
            None => CaptureOutcome::NonScan,
        }
    }

    /// Close all active events and return them all, in canonical order.
    pub fn flush(&mut self) -> Vec<crate::event::DarknetEvent> {
        let _mem = MemScope::enter(Tag::Telescope);
        self.aggregator.flush()
    }

    /// Capture statistics so far.
    pub fn stats(&self) -> &CaptureStats {
        &self.stats
    }

    /// Reordering-policy counters from the event aggregator.
    pub fn aggregator_stats(&self) -> crate::event::AggregatorStats {
        self.aggregator.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::packet::Transport;
    use ah_net::tcp::TcpFlags;
    use ah_net::time::{Dur, Ts};

    fn scope() -> Telescope {
        Telescope::new("192.0.0.0/16".parse().unwrap(), Dur::from_mins(10))
    }

    #[test]
    fn non_dark_traffic_is_ignored() {
        let mut t = scope();
        let p = PacketMeta::tcp_syn(
            Ts::ZERO,
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(8, 8, 8, 8),
            1,
            80,
        );
        assert_eq!(t.observe(&p), CaptureOutcome::NotDark);
        assert_eq!(t.stats().total_packets, 0);
    }

    #[test]
    fn scanning_packets_become_events() {
        let mut t = scope();
        for i in 0..50u32 {
            let p = PacketMeta::tcp_syn(
                Ts::from_secs(u64::from(i)),
                Ipv4Addr4::new(10, 0, 0, 1),
                Ipv4Addr4::new(192, 0, (i >> 8) as u8, (i & 0xff) as u8),
                1,
                23,
            );
            assert_eq!(t.observe(&p), CaptureOutcome::Scan(ScanClass::TcpSyn));
        }
        let evs = t.flush();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].unique_dsts, 50);
        assert_eq!(t.stats().scan_packets(), 50);
        assert_eq!(t.stats().unique_sources(), 1);
        assert_eq!(t.stats().unique_dsts(), 50);
    }

    #[test]
    fn backscatter_is_captured_but_not_an_event() {
        let mut t = scope();
        let mut p = PacketMeta::tcp_syn(
            Ts::ZERO,
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(192, 0, 2, 1),
            80,
            40000,
        );
        p.transport =
            Transport::Tcp { src_port: 80, dst_port: 40000, seq: 1, flags: TcpFlags::SYN_ACK };
        assert_eq!(t.observe(&p), CaptureOutcome::NonScan);
        assert_eq!(t.stats().total_packets, 1);
        assert_eq!(t.stats().non_scan_packets, 1);
        assert!(t.flush().is_empty());
    }

    #[test]
    fn dark_space_indexing() {
        let d = DarkSpace::new("192.0.0.0/16".parse().unwrap());
        assert_eq!(d.size(), 65536);
        assert_eq!(d.index_of(Ipv4Addr4::new(192, 0, 0, 0)), Some(0));
        assert_eq!(d.index_of(Ipv4Addr4::new(192, 0, 255, 255)), Some(65535));
        assert_eq!(d.index_of(Ipv4Addr4::new(192, 1, 0, 0)), None);
    }

    #[test]
    fn summary_reflects_stats() {
        let mut t = scope();
        let p = PacketMeta::udp_probe(
            Ts::ZERO,
            Ipv4Addr4::new(10, 0, 0, 9),
            Ipv4Addr4::new(192, 0, 2, 1),
            1,
            161,
        );
        t.observe(&p);
        let s = CaptureSummary::from(t.stats());
        assert_eq!(s.total_packets, 1);
        assert_eq!(s.scan_packets, 1);
        assert_eq!(s.unique_sources, 1);
    }

    #[test]
    fn source_filter_drops_bogons_before_detection() {
        let filter = ah_net::prefix::PrefixSet::from_prefixes(vec![
            "224.0.0.0/4".parse().unwrap(),
            "127.0.0.0/8".parse().unwrap(),
        ]);
        let mut t = Telescope::with_source_filter(
            "192.0.0.0/16".parse().unwrap(),
            Dur::from_mins(10),
            filter,
        );
        let spoofed = PacketMeta::tcp_syn(
            Ts::ZERO,
            Ipv4Addr4::new(224, 0, 0, 5),
            Ipv4Addr4::new(192, 0, 2, 1),
            1,
            23,
        );
        assert_eq!(t.observe(&spoofed), CaptureOutcome::FilteredSource);
        assert_eq!(t.filtered_packets(), 1);
        assert_eq!(t.stats().total_packets, 0, "filtered packets never reach stats");
        assert!(t.flush().is_empty());
        // Legitimate sources still pass.
        let ok = PacketMeta::tcp_syn(
            Ts::ZERO,
            Ipv4Addr4::new(100, 64, 0, 1),
            Ipv4Addr4::new(192, 0, 2, 1),
            1,
            23,
        );
        assert_eq!(t.observe(&ok), CaptureOutcome::Scan(ScanClass::TcpSyn));
    }

    #[test]
    fn class_counters_split_correctly() {
        let mut t = scope();
        let src = Ipv4Addr4::new(10, 0, 0, 1);
        let dst = Ipv4Addr4::new(192, 0, 2, 1);
        t.observe(&PacketMeta::tcp_syn(Ts::ZERO, src, dst, 1, 23));
        t.observe(&PacketMeta::udp_probe(Ts::ZERO, src, dst, 1, 53));
        t.observe(&PacketMeta::udp_probe(Ts::ZERO, src, dst, 1, 123));
        t.observe(&PacketMeta::icmp_echo(Ts::ZERO, src, dst));
        assert_eq!(t.stats().class_packets, [1, 2, 1]);
    }
}
