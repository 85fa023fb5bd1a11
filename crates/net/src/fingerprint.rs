//! Wire-level fingerprints of well-known scanning tools.
//!
//! The paper (following Durumeric et al. 2014, §4.2) attributes probes to
//! tools by invariants the tools stamp into header fields:
//!
//! * **ZMap** sets the IPv4 identification field to the constant 54321.
//! * **Masscan** sets `ip_id = dst_ip ⊕ dst_port ⊕ tcp_seq` (all reduced
//!   to 16 bits), so the receiver can validate responses statelessly.
//! * **Mirai** (used for the GreyNoise-style tagger, not in the paper's
//!   figure but the canonical botnet fingerprint) sets the TCP sequence
//!   number equal to the destination address.
//!
//! Anything else is classified `Other`.

use crate::packet::{PacketMeta, Transport};

/// The IP-ID constant stamped by ZMap.
pub const ZMAP_IP_ID: u16 = 54321;

/// Tool attribution for a single probe packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tool {
    /// ZMap (fixed IP-ID 54321).
    ZMap,
    /// Masscan (IP-ID = dst xor port xor seq).
    Masscan,
    /// Mirai-style bots (seq = destination address).
    Mirai,
    /// No recognized fingerprint.
    Other,
}

impl Tool {}

/// Compute the Masscan validation cookie for a probe.
///
/// Real masscan uses `syn_cookie(ip_them, port_them, ip_me, port_me, entropy)`;
/// the telescope-visible invariant reduced by Durumeric et al. is the
/// 16-bit XOR relation below, which is what both our generator and
/// classifier use.
pub fn masscan_ip_id(dst: crate::ipv4::Ipv4Addr4, dst_port: u16, tcp_seq: u32) -> u16 {
    let ip = dst.to_u32();
    let ip16 = (ip >> 16) as u16 ^ (ip & 0xffff) as u16;
    let seq16 = (tcp_seq >> 16) as u16 ^ (tcp_seq & 0xffff) as u16;
    ip16 ^ dst_port ^ seq16
}

/// The Mirai invariant: TCP sequence number equals destination address.
pub(crate) fn mirai_seq(dst: crate::ipv4::Ipv4Addr4) -> u32 {
    dst.to_u32()
}

/// Classify one packet by tool fingerprint.
///
/// Order matters: the ZMap constant is checked first (it is unambiguous),
/// then Mirai's seq==dst (checked before Masscan because a Mirai packet
/// only collides with the Masscan relation for one ip_id value in 65536),
/// then the Masscan cookie relation.
pub fn classify(pkt: &PacketMeta) -> Tool {
    if pkt.ip_id == ZMAP_IP_ID {
        return Tool::ZMap;
    }
    if let Transport::Tcp { dst_port, seq, .. } = pkt.transport {
        if seq == mirai_seq(pkt.dst) {
            return Tool::Mirai;
        }
        if pkt.ip_id == masscan_ip_id(pkt.dst, dst_port, seq) {
            return Tool::Masscan;
        }
    }
    Tool::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr4;
    use crate::time::Ts;

    const S: Ipv4Addr4 = Ipv4Addr4::new(203, 0, 113, 5);
    const D: Ipv4Addr4 = Ipv4Addr4::new(192, 0, 2, 200);

    #[test]
    fn zmap_constant_detected() {
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 40000, 443);
        m.ip_id = ZMAP_IP_ID;
        assert_eq!(classify(&m), Tool::ZMap);
    }

    #[test]
    fn zmap_on_udp_and_icmp_too() {
        // ZMap stamps the IP header, so the fingerprint is visible on any
        // probe type it sends.
        let mut u = PacketMeta::udp_probe(Ts::ZERO, S, D, 1, 53);
        u.ip_id = ZMAP_IP_ID;
        assert_eq!(classify(&u), Tool::ZMap);
        let mut i = PacketMeta::icmp_echo(Ts::ZERO, S, D);
        i.ip_id = ZMAP_IP_ID;
        assert_eq!(classify(&i), Tool::ZMap);
    }

    #[test]
    fn masscan_cookie_detected() {
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 61000, 6379);
        if let Transport::Tcp { ref mut seq, .. } = m.transport {
            *seq = 0x1234_5678;
        }
        m.ip_id = masscan_ip_id(D, 6379, 0x1234_5678);
        assert_eq!(classify(&m), Tool::Masscan);
    }

    #[test]
    fn masscan_cookie_is_dst_sensitive() {
        // The same ip_id against a different destination fails the relation.
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 61000, 6379);
        m.ip_id = masscan_ip_id(Ipv4Addr4::new(192, 0, 2, 201), 6379, 0);
        assert_eq!(classify(&m), Tool::Other);
    }

    #[test]
    fn mirai_seq_detected() {
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 9999, 23);
        if let Transport::Tcp { ref mut seq, .. } = m.transport {
            *seq = D.to_u32();
        }
        m.ip_id = 7; // arbitrary non-matching id
        assert_eq!(classify(&m), Tool::Mirai);
    }

    #[test]
    fn plain_probe_is_other() {
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, S, D, 1000, 22);
        m.ip_id = 11111;
        if let Transport::Tcp { ref mut seq, .. } = m.transport {
            *seq = 0xabcdef01;
        }
        assert_eq!(classify(&m), Tool::Other);
        let u = PacketMeta::udp_probe(Ts::ZERO, S, D, 1, 2);
        assert_eq!(classify(&u), Tool::Other);
    }

    #[test]
    fn masscan_id_is_deterministic() {
        let a = masscan_ip_id(D, 443, 99);
        let b = masscan_ip_id(D, 443, 99);
        assert_eq!(a, b);
        assert_ne!(a, masscan_ip_id(D, 444, 99));
    }
}
