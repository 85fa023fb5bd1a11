//! Flow records: the 5-tuple key and the per-flow counters every
//! exporter, cache and dataset in this crate trades in. The wire format
//! is NetFlow v9 ([`crate::v9`]).

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;

/// The 5-tuple keying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Addr4,
    /// Destination address.
    pub dst: Ipv4Addr4,
    /// Source port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination port (0 for port-less protocols).
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl FlowKey {
    /// Key for a packet (ports are 0 for port-less protocols).
    pub(crate) fn of(pkt: &PacketMeta) -> FlowKey {
        FlowKey {
            src: pkt.src,
            dst: pkt.dst,
            src_port: pkt.src_port().unwrap_or(0),
            dst_port: pkt.dst_port().unwrap_or(0),
            protocol: pkt.protocol(),
        }
    }
}

/// One exported flow record.
///
/// `packets`/`bytes` count *sampled* packets; multiply by the sampling
/// rate (or use [`crate::sampler::Sampler::estimate`]) for wire totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// Router that exported the record.
    pub router: u8,
    /// Ingress (into the ISP) or egress.
    pub direction: crate::router::Direction,
    /// Timestamp of the first sampled packet.
    pub first: Ts,
    /// Timestamp of the last sampled packet.
    pub last: Ts,
    /// Sampled packet count.
    pub packets: u64,
    /// Sampled byte count.
    pub bytes: u64,
    /// OR of TCP flags seen (0 for non-TCP).
    pub tcp_flags: u8,
}

impl FlowRecord {
    /// Day index of the flow's first packet.
    pub fn day(&self) -> u64 {
        self.first.day()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Direction;

    #[test]
    fn flow_key_of_packet() {
        let p = PacketMeta::tcp_syn(
            Ts::ZERO,
            Ipv4Addr4::new(1, 2, 3, 4),
            Ipv4Addr4::new(5, 6, 7, 8),
            1234,
            22,
        );
        let k = FlowKey::of(&p);
        assert_eq!(k.src_port, 1234);
        assert_eq!(k.dst_port, 22);
        assert_eq!(k.protocol, 6);
        let icmp = PacketMeta::icmp_echo(Ts::ZERO, p.src, p.dst);
        let k2 = FlowKey::of(&icmp);
        assert_eq!((k2.src_port, k2.dst_port, k2.protocol), (0, 0, 1));
    }

    #[test]
    fn record_day() {
        let first = Ts::from_days(5) + ah_net::time::Dur::from_secs(1);
        let r = FlowRecord {
            key: FlowKey {
                src: Ipv4Addr4::new(203, 0, 113, 1),
                dst: Ipv4Addr4::new(10, 9, 8, 7),
                src_port: 40000,
                dst_port: 6379,
                protocol: 6,
            },
            router: 1,
            direction: Direction::Ingress,
            first,
            last: first,
            packets: 5,
            bytes: 200,
            tcp_flags: 0x02,
        };
        assert_eq!(r.day(), 5);
    }
}
