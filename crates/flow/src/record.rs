//! Flow records: the 5-tuple key and the per-flow counters every
//! exporter, cache and dataset in this crate trades in. The wire format
//! is NetFlow v9 ([`crate::v9`]).

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use std::cmp::Ordering;

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
/// rate (or use [`crate::router::FlowDataset::estimate`]) for wire totals.
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

/// The canonical order of a flow dataset: time first, then every other
/// field, so any multiset of records sorts to one sequence and per-shard
/// datasets merge into the serial result. Part of the output fingerprint.
impl Ord for FlowRecord {
    fn cmp(&self, o: &FlowRecord) -> Ordering {
        (self.first.cmp(&o.first))
            .then_with(|| self.key.src.cmp(&o.key.src))
            .then_with(|| self.key.dst_port.cmp(&o.key.dst_port))
            .then_with(|| self.key.dst.cmp(&o.key.dst))
            .then_with(|| self.key.src_port.cmp(&o.key.src_port))
            .then_with(|| self.key.protocol.cmp(&o.key.protocol))
            .then_with(|| self.router.cmp(&o.router))
            .then_with(|| self.direction.cmp(&o.direction))
            .then_with(|| self.last.cmp(&o.last))
            .then_with(|| self.packets.cmp(&o.packets))
            .then_with(|| self.bytes.cmp(&o.bytes))
            .then_with(|| self.tcp_flags.cmp(&o.tcp_flags))
    }
}

impl PartialOrd for FlowRecord {
    fn partial_cmp(&self, o: &FlowRecord) -> Option<Ordering> {
        Some(self.cmp(o))
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

    /// A record whose twelve comparable fields, in canonical order, are `f`.
    fn record(f: [u64; 12]) -> FlowRecord {
        FlowRecord {
            first: Ts(f[0]),
            key: FlowKey {
                src: Ipv4Addr4(f[1] as u32),
                dst_port: f[2] as u16,
                dst: Ipv4Addr4(f[3] as u32),
                src_port: f[4] as u16,
                protocol: f[5] as u8,
            },
            router: f[6] as u8,
            direction: [Direction::Ingress, Direction::Egress][f[7] as usize],
            last: Ts(f[8]),
            packets: f[9],
            bytes: f[10],
            tcp_flags: f[11] as u8,
        }
    }

    /// `cmp` decides on `first, src, dst_port, dst, src_port, protocol,
    /// router, direction, last, packets, bytes, tcp_flags`, in that order:
    /// for every tie length, two records equal on the first `tie` fields,
    /// apart at field `tie`, and apart the *other* way on every later one.
    #[test]
    fn cmp_walks_the_twelve_fields() {
        for tie in 0..=12 {
            let mut a = [1u64; 12];
            let mut b = a;
            for (i, field) in b.iter_mut().enumerate().skip(tie) {
                *field = if i == tie { 2 } else { 0 };
            }
            if tie == 7 {
                // `direction` has two values only: Ingress below Egress.
                (a[7], b[7]) = (0, 1);
            }
            let (a, b) = (record(a), record(b));
            let want = if tie == 12 { Ordering::Equal } else { Ordering::Less };
            assert_eq!(a.cmp(&b), want, "tie {tie}");
            assert_eq!(b.cmp(&a), want.reverse(), "tie {tie}, swapped");
        }
    }

    #[test]
    fn record_day() {
        let mut f = [1u64; 12];
        f[0] = (Ts::from_days(5) + ah_net::time::Dur::from_secs(1)).0;
        assert_eq!(record(f).day(), 5);
    }
}
