//! The composed packet type used as currency between all pipeline stages.
//!
//! [`PacketMeta`] is the decoded form of one IPv4 packet: everything the
//! telescope, flow collectors and detectors need, and nothing more. It can
//! be serialized to real wire bytes (and parsed back) so that every
//! experiment can exercise the byte-level path when desired, while bulk
//! simulation can stay in decoded form.

use crate::error::Result;
use crate::icmp::{IcmpMessage, TYPE_ECHO_REQUEST};
use crate::ipv4::{Ipv4Addr4, Ipv4Header, PROTO_ICMP, PROTO_TCP, PROTO_UDP};
use crate::tcp::{TcpFlags, TcpHeader};
use crate::time::Ts;
use crate::udp::UdpHeader;

/// The three telescope "traffic types" that count as scanning packets
/// (Section 2.A of the paper), plus their display names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScanClass {
    /// A TCP packet with SYN set and ACK clear.
    TcpSyn,
    /// Any UDP packet.
    Udp,
    /// An ICMP Echo Request.
    IcmpEcho,
}

impl ScanClass {
    /// All classes, in the order the paper tabulates them.
    pub const ALL: [ScanClass; 3] = [ScanClass::TcpSyn, ScanClass::Udp, ScanClass::IcmpEcho];
}

/// Decoded transport layer of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP segment header fields.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number (Mirai fingerprint site).
        seq: u32,
        /// Header flags.
        flags: TcpFlags,
    },
    /// UDP datagram header fields.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// ICMP message type and code.
    Icmp {
        /// ICMP type field.
        icmp_type: u8,
        /// ICMP code field.
        code: u8,
    },
    /// Any other IP protocol, carried for completeness.
    Other {
        /// IP protocol number.
        protocol: u8,
    },
}

/// One decoded IPv4 packet with capture timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Capture timestamp.
    pub ts: Ts,
    /// Source address.
    pub src: Ipv4Addr4,
    /// Destination address.
    pub dst: Ipv4Addr4,
    /// IPv4 identification field (ZMap fingerprint site).
    pub ip_id: u16,
    /// IP time-to-live at capture.
    pub ttl: u8,
    /// IP total length on the wire in bytes.
    pub wire_len: u16,
    /// Decoded transport layer.
    pub transport: Transport,
}

impl PacketMeta {
    /// A bare TCP-SYN probe of `dst_port`, 40 bytes on the wire.
    pub fn tcp_syn(ts: Ts, src: Ipv4Addr4, dst: Ipv4Addr4, src_port: u16, dst_port: u16) -> Self {
        PacketMeta {
            ts,
            src,
            dst,
            ip_id: 0,
            ttl: 64,
            wire_len: 40,
            transport: Transport::Tcp { src_port, dst_port, seq: 0, flags: TcpFlags::SYN },
        }
    }

    /// A UDP probe with an 8-byte payload (48 bytes on the wire), typical
    /// of single-datagram service probes.
    pub fn udp_probe(ts: Ts, src: Ipv4Addr4, dst: Ipv4Addr4, src_port: u16, dst_port: u16) -> Self {
        PacketMeta {
            ts,
            src,
            dst,
            ip_id: 0,
            ttl: 64,
            wire_len: 48,
            transport: Transport::Udp { src_port, dst_port },
        }
    }

    /// An ICMP Echo Request (28 bytes on the wire).
    pub fn icmp_echo(ts: Ts, src: Ipv4Addr4, dst: Ipv4Addr4) -> Self {
        PacketMeta {
            ts,
            src,
            dst,
            ip_id: 0,
            ttl: 64,
            wire_len: 28,
            transport: Transport::Icmp { icmp_type: TYPE_ECHO_REQUEST, code: 0 },
        }
    }

    /// Destination port, when the transport has one.
    pub fn dst_port(&self) -> Option<u16> {
        match self.transport {
            Transport::Tcp { dst_port, .. } | Transport::Udp { dst_port, .. } => Some(dst_port),
            _ => None,
        }
    }

    /// Source port, when the transport has one.
    pub fn src_port(&self) -> Option<u16> {
        match self.transport {
            Transport::Tcp { src_port, .. } | Transport::Udp { src_port, .. } => Some(src_port),
            _ => None,
        }
    }

    /// IP protocol number of the transport.
    pub fn protocol(&self) -> u8 {
        match self.transport {
            Transport::Tcp { .. } => PROTO_TCP,
            Transport::Udp { .. } => PROTO_UDP,
            Transport::Icmp { .. } => PROTO_ICMP,
            Transport::Other { protocol } => protocol,
        }
    }

    /// Classify as a telescope scanning packet, if it is one.
    ///
    /// TCP counts only as a bare SYN; UDP always counts; ICMP counts only
    /// as an Echo Request. Everything else (SYN-ACKs, RSTs, other ICMP) is
    /// backscatter or noise and returns `None`.
    pub fn scan_class(&self) -> Option<ScanClass> {
        match self.transport {
            Transport::Tcp { flags, .. } if flags.is_bare_syn() => Some(ScanClass::TcpSyn),
            Transport::Tcp { .. } => None,
            Transport::Udp { .. } => Some(ScanClass::Udp),
            Transport::Icmp { icmp_type: TYPE_ECHO_REQUEST, .. } => Some(ScanClass::IcmpEcho),
            _ => None,
        }
    }

    /// Serialize as a standalone IPv4 packet (no link layer). Payload
    /// bytes beyond the L4 header are zero-filled to reach `wire_len`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(usize::from(self.wire_len));
        let mut l4 = Vec::new();
        match self.transport {
            Transport::Tcp { src_port, dst_port, seq, flags } => {
                let hdr = TcpHeader { seq, flags, ..TcpHeader::syn(src_port, dst_port, seq) };
                let payload_len = usize::from(self.wire_len).saturating_sub(20 + hdr.header_len());
                hdr.emit(self.src, self.dst, &vec![0u8; payload_len], &mut l4);
            }
            Transport::Udp { src_port, dst_port } => {
                let payload_len =
                    usize::from(self.wire_len).saturating_sub(20 + crate::udp::HEADER_LEN);
                let hdr = UdpHeader::new(src_port, dst_port, payload_len);
                hdr.emit(self.src, self.dst, &vec![0u8; payload_len], &mut l4);
            }
            Transport::Icmp { icmp_type, code } => {
                let payload_len =
                    usize::from(self.wire_len).saturating_sub(20 + crate::icmp::HEADER_LEN);
                let msg = IcmpMessage {
                    icmp_type,
                    code,
                    ident: (self.src.to_u32() & 0xffff) as u16,
                    seq: 0,
                    payload: vec![0u8; payload_len],
                };
                msg.emit(&mut l4);
            }
            Transport::Other { .. } => {
                l4.resize(usize::from(self.wire_len).saturating_sub(20), 0);
            }
        }
        let mut ip = Ipv4Header::probe(self.src, self.dst, self.protocol(), l4.len());
        ip.ident = self.ip_id;
        ip.ttl = self.ttl;
        ip.emit(&mut out);
        out.extend_from_slice(&l4);
        out
    }

    /// Parse a standalone IPv4 packet captured at `ts`.
    ///
    /// Transport checksums are NOT verified here — the capture path keeps
    /// whatever the wire had, like a passive tap; only the IP header
    /// checksum (which routers check) gates acceptance.
    pub fn parse_ip(data: &[u8], ts: Ts) -> Result<PacketMeta> {
        let (ip, l4) = Ipv4Header::parse(data)?;
        if ip.frag_offset != 0 {
            // Non-first fragments have no L4 header; the pipelines treat
            // them as opaque IP traffic.
            return Ok(PacketMeta {
                ts,
                src: ip.src,
                dst: ip.dst,
                ip_id: ip.ident,
                ttl: ip.ttl,
                wire_len: ip.total_len,
                transport: Transport::Other { protocol: ip.protocol },
            });
        }
        let transport = match ip.protocol {
            PROTO_TCP => {
                let (t, _) = TcpHeader::parse(l4, None)?;
                Transport::Tcp {
                    src_port: t.src_port,
                    dst_port: t.dst_port,
                    seq: t.seq,
                    flags: t.flags,
                }
            }
            PROTO_UDP => {
                let (u, _) = UdpHeader::parse(l4, None)?;
                Transport::Udp { src_port: u.src_port, dst_port: u.dst_port }
            }
            PROTO_ICMP => {
                let m = IcmpMessage::parse(l4)?;
                Transport::Icmp { icmp_type: m.icmp_type, code: m.code }
            }
            p => Transport::Other { protocol: p },
        };
        Ok(PacketMeta {
            ts,
            src: ip.src,
            dst: ip.dst,
            ip_id: ip.ident,
            ttl: ip.ttl,
            wire_len: ip.total_len,
            transport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Ipv4Addr4 = Ipv4Addr4::new(203, 0, 113, 5);
    const D: Ipv4Addr4 = Ipv4Addr4::new(192, 0, 2, 200);

    #[test]
    fn tcp_syn_roundtrip() {
        let mut m = PacketMeta::tcp_syn(Ts::from_secs(3), S, D, 55555, 23);
        m.ip_id = 54321;
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), 40);
        let p = PacketMeta::parse_ip(&bytes, m.ts).unwrap();
        assert_eq!(p, m);
        assert_eq!(p.scan_class(), Some(ScanClass::TcpSyn));
    }

    #[test]
    fn udp_roundtrip() {
        let m = PacketMeta::udp_probe(Ts::from_secs(1), S, D, 4000, 5060);
        let p = PacketMeta::parse_ip(&m.to_bytes(), m.ts).unwrap();
        assert_eq!(p, m);
        assert_eq!(p.scan_class(), Some(ScanClass::Udp));
    }

    #[test]
    fn icmp_roundtrip() {
        let m = PacketMeta::icmp_echo(Ts::from_secs(2), S, D);
        let p = PacketMeta::parse_ip(&m.to_bytes(), m.ts).unwrap();
        assert_eq!(p, m);
        assert_eq!(p.scan_class(), Some(ScanClass::IcmpEcho));
    }

    #[test]
    fn synack_is_not_scanning() {
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 80, 40000);
        m.transport =
            Transport::Tcp { src_port: 80, dst_port: 40000, seq: 1, flags: TcpFlags::SYN_ACK };
        assert_eq!(m.scan_class(), None);
        let p = PacketMeta::parse_ip(&m.to_bytes(), m.ts).unwrap();
        assert_eq!(p.scan_class(), None);
    }

    #[test]
    fn icmp_reply_is_not_scanning() {
        let mut m = PacketMeta::icmp_echo(Ts::ZERO, S, D);
        m.transport = Transport::Icmp { icmp_type: 0, code: 0 };
        assert_eq!(m.scan_class(), None);
    }

    #[test]
    fn ports_and_protocols() {
        let t = PacketMeta::tcp_syn(Ts::ZERO, S, D, 9, 23);
        assert_eq!(t.dst_port(), Some(23));
        assert_eq!(t.src_port(), Some(9));
        assert_eq!(t.protocol(), PROTO_TCP);
        let i = PacketMeta::icmp_echo(Ts::ZERO, S, D);
        assert_eq!(i.dst_port(), None);
        assert_eq!(i.protocol(), PROTO_ICMP);
    }

    #[test]
    fn fragment_parses_as_other() {
        let m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 1, 2);
        let mut bytes = m.to_bytes();
        // Set frag offset = 100 and fix the header checksum.
        bytes[6..8].copy_from_slice(&100u16.to_be_bytes());
        bytes[10..12].copy_from_slice(&[0, 0]);
        let c = crate::checksum::checksum(&bytes[..20]);
        bytes[10..12].copy_from_slice(&c.to_be_bytes());
        let p = PacketMeta::parse_ip(&bytes, Ts::ZERO).unwrap();
        assert!(matches!(p.transport, Transport::Other { protocol: PROTO_TCP }));
        assert_eq!(p.scan_class(), None);
    }
}
