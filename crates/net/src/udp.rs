//! UDP header parsing and building.

use crate::checksum::{self, Sum16};
use crate::error::{NetError, Result};
use crate::ipv4::Ipv4Addr4;

/// UDP header length in bytes.
pub(crate) const HEADER_LEN: usize = 8;

/// An owned UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub(crate) src_port: u16,
    /// Destination port.
    pub(crate) dst_port: u16,
    /// Length of header + payload.
    length: u16,
}

impl UdpHeader {
    /// A header sized for `payload_len` bytes of payload.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader { src_port, dst_port, length: (HEADER_LEN + payload_len) as u16 }
    }

    /// Parse from `data` (the full L4 datagram). Returns header + payload.
    ///
    /// A zero checksum means "not computed" per RFC 768 and is accepted.
    pub fn parse(
        data: &[u8],
        verify_csum: Option<(Ipv4Addr4, Ipv4Addr4)>,
    ) -> Result<(UdpHeader, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(NetError::Truncated { layer: "udp", needed: HEADER_LEN, got: data.len() });
        }
        let length = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if length < HEADER_LEN || length > data.len() {
            return Err(NetError::BadLength { layer: "udp", value: length });
        }
        let wire_csum = u16::from_be_bytes([data[6], data[7]]);
        if wire_csum != 0 {
            if let Some((src, dst)) = verify_csum {
                let mut s =
                    checksum::pseudo_header(src, dst, crate::ipv4::PROTO_UDP, length as u16);
                s.add(&data[..length]);
                if s.finish() != 0 {
                    return Err(NetError::BadChecksum { layer: "udp" });
                }
            }
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            length: length as u16,
        };
        Ok((header, &data[HEADER_LEN..length]))
    }

    /// Serialize into `out` with a correct checksum (0x0000 results are
    /// emitted as 0xffff per RFC 768).
    pub fn emit(&self, src: Ipv4Addr4, dst: Ipv4Addr4, payload: &[u8], out: &mut Vec<u8>) {
        debug_assert_eq!(usize::from(self.length), HEADER_LEN + payload.len());
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        let mut s: Sum16 = checksum::pseudo_header(src, dst, crate::ipv4::PROTO_UDP, self.length);
        s.add(&out[start..]);
        let csum = match s.finish() {
            0 => 0xffff,
            c => c,
        };
        out[start + 6..start + 8].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr4 = Ipv4Addr4::new(198, 51, 100, 1);
    const DST: Ipv4Addr4 = Ipv4Addr4::new(192, 0, 2, 77);

    #[test]
    fn roundtrip() {
        let payload = b"\x00\x01\x00\x00"; // tiny fake DNS-ish payload
        let h = UdpHeader::new(5353, 53, payload.len());
        let mut buf = Vec::new();
        h.emit(SRC, DST, payload, &mut buf);
        let (parsed, got) = UdpHeader::parse(&buf, Some((SRC, DST))).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(got, payload);
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let h = UdpHeader::new(1, 2, 0);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        buf[6] = 0;
        buf[7] = 0;
        assert!(UdpHeader::parse(&buf, Some((SRC, DST))).is_ok());
    }

    #[test]
    fn corrupted_payload_fails_verification() {
        let h = UdpHeader::new(9, 123, 4);
        let mut buf = Vec::new();
        h.emit(SRC, DST, b"abcd", &mut buf);
        buf[HEADER_LEN] ^= 0x80;
        assert_eq!(
            UdpHeader::parse(&buf, Some((SRC, DST))),
            Err(NetError::BadChecksum { layer: "udp" })
        );
        // Without verification the corruption passes through.
        assert!(UdpHeader::parse(&buf, None).is_ok());
    }

    #[test]
    fn rejects_bad_length_field() {
        let h = UdpHeader::new(9, 123, 0);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // < header
        assert!(matches!(UdpHeader::parse(&buf, None), Err(NetError::BadLength { .. })));
        buf[4..6].copy_from_slice(&100u16.to_be_bytes()); // > buffer
        assert!(matches!(UdpHeader::parse(&buf, None), Err(NetError::BadLength { .. })));
    }

    #[test]
    fn rejects_truncated() {
        assert!(UdpHeader::parse(&[0u8; 7], None).is_err());
    }
}
