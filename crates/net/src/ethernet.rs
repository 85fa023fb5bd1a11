//! Ethernet II framing.
//!
//! Mirrored packet streams and pcap files carry Ethernet frames; the
//! telescope and flow pipelines strip this layer before the IPv4 parser.

use crate::error::{NetError, Result};
use std::fmt;

/// Ethernet II header length.
pub(crate) const HEADER_LEN: usize = 14;

/// EtherType for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Locally administered unicast address derived from a small id —
    /// handy for giving simulated monitoring stations stable MACs.
    #[cfg(test)]
    pub(crate) fn local(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", o[0], o[1], o[2], o[3], o[4], o[5])
    }
}

/// An owned Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EthernetHeader {
    /// Destination MAC.
    dst: MacAddr,
    /// Source MAC.
    src: MacAddr,
    /// EtherType (0x0800 for IPv4).
    pub(crate) ethertype: u16,
}

impl EthernetHeader {
    /// An IPv4 frame between two synthetic stations.
    #[cfg(test)]
    pub(crate) fn ipv4(src: MacAddr, dst: MacAddr) -> Self {
        EthernetHeader { dst, src, ethertype: ETHERTYPE_IPV4 }
    }

    /// Parse from the front of `data`; returns header + payload.
    pub(crate) fn parse(data: &[u8]) -> Result<(EthernetHeader, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "ethernet",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: u16::from_be_bytes([data[12], data[13]]),
            },
            &data[HEADER_LEN..],
        ))
    }

    /// Serialize into `out`.
    #[cfg(test)]
    pub(crate) fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader::ipv4(MacAddr::local(1), MacAddr::local(2));
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.extend_from_slice(b"payload");
        let (parsed, rest) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn truncated_rejected() {
        assert!(EthernetHeader::parse(&[0u8; 13]).is_err());
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::local(0x01020304).to_string(), "02:00:01:02:03:04");
    }

    #[test]
    fn ethertype_constants() {
        let h = EthernetHeader::ipv4(MacAddr::local(0), MacAddr::local(1));
        assert_eq!(h.ethertype, ETHERTYPE_IPV4);
    }
}
