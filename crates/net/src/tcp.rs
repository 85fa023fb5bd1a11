//! TCP header parsing and building.

use crate::checksum::{self, Sum16};
use crate::error::{NetError, Result};
use crate::ipv4::Ipv4Addr4;

/// Minimum TCP header length (no options).
pub(crate) const HEADER_LEN: usize = 20;

/// TCP flag bits, as a transparent wrapper over the low 8 flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// Connection open (the scanning probe flag).
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// Connection reset.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Acknowledgment.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// SYN|ACK, the shape of DoS backscatter.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);

    /// A bare SYN: SYN set and ACK clear. This is the telescope's
    /// definition of a TCP scanning packet.
    pub const fn is_bare_syn(self) -> bool {
        self.0 & 0x12 == 0x02
    }
}

/// An owned TCP header. Options are carried verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number. Scanner fingerprints live here (Masscan, Mirai).
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Raw options bytes, length must be a multiple of 4 and ≤ 40.
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// A conventional SYN probe as emitted by port scanners.
    pub(crate) fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Header length in bytes including options.
    pub(crate) fn header_len(&self) -> usize {
        HEADER_LEN + self.options.len()
    }

    /// Parse from `data` (the full L4 segment). Returns header + payload.
    ///
    /// `verify_csum` optionally checks the transport checksum against the
    /// given IPv4 pseudo-header addresses. Flow collectors skip this on
    /// the fast path; the telescope verifies on capture.
    pub fn parse(
        data: &[u8],
        verify_csum: Option<(Ipv4Addr4, Ipv4Addr4)>,
    ) -> Result<(TcpHeader, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(NetError::Truncated { layer: "tcp", needed: HEADER_LEN, got: data.len() });
        }
        let offset = usize::from(data[12] >> 4) * 4;
        if !(HEADER_LEN..=60).contains(&offset) || offset > data.len() {
            return Err(NetError::BadLength { layer: "tcp", value: offset });
        }
        if let Some((src, dst)) = verify_csum {
            let mut s =
                checksum::pseudo_header(src, dst, crate::ipv4::PROTO_TCP, data.len() as u16);
            s.add(data);
            if s.finish() != 0 {
                return Err(NetError::BadChecksum { layer: "tcp" });
            }
        }
        let header = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            urgent: u16::from_be_bytes([data[18], data[19]]),
            options: data[HEADER_LEN..offset].to_vec(),
        };
        Ok((header, &data[offset..]))
    }

    /// Serialize into `out` with a correct checksum over the pseudo-header
    /// and `payload`.
    pub fn emit(&self, src: Ipv4Addr4, dst: Ipv4Addr4, payload: &[u8], out: &mut Vec<u8>) {
        debug_assert!(self.options.len().is_multiple_of(4) && self.options.len() <= 40);
        let start = out.len();
        let total = self.header_len() + payload.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((self.header_len() / 4) as u8) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.urgent.to_be_bytes());
        out.extend_from_slice(&self.options);
        out.extend_from_slice(payload);
        let mut s: Sum16 = checksum::pseudo_header(src, dst, crate::ipv4::PROTO_TCP, total as u16);
        s.add(&out[start..]);
        let csum = s.finish();
        out[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr4 = Ipv4Addr4::new(198, 51, 100, 1);
    const DST: Ipv4Addr4 = Ipv4Addr4::new(192, 0, 2, 77);

    #[test]
    fn flags_predicates() {
        assert!(TcpFlags::SYN.is_bare_syn());
        assert!(!TcpFlags::SYN_ACK.is_bare_syn());
        assert!(!TcpFlags::ACK.is_bare_syn());
    }

    #[test]
    fn roundtrip_syn() {
        let h = TcpHeader::syn(40000, 6379, 0xdead_beef);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        let (parsed, payload) = TcpHeader::parse(&buf, Some((SRC, DST))).unwrap();
        assert_eq!(parsed, h);
        assert!(payload.is_empty());
    }

    #[test]
    fn roundtrip_with_payload_and_options() {
        let mut h = TcpHeader::syn(1234, 22, 7);
        h.options = vec![2, 4, 0x05, 0xb4]; // MSS 1460
        h.flags = TcpFlags::SYN_ACK;
        let payload = b"hello scanners";
        let mut buf = Vec::new();
        h.emit(SRC, DST, payload, &mut buf);
        let (parsed, got) = TcpHeader::parse(&buf, Some((SRC, DST))).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(got, payload);
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        // Same bytes but different IP addresses must fail verification.
        let h = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        let other = Ipv4Addr4::new(10, 0, 0, 1);
        assert_eq!(
            TcpHeader::parse(&buf, Some((other, DST))),
            Err(NetError::BadChecksum { layer: "tcp" })
        );
        // Skipping verification accepts them.
        assert!(TcpHeader::parse(&buf, None).is_ok());
    }

    #[test]
    fn rejects_truncated() {
        let h = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        for cut in 0..HEADER_LEN {
            assert!(TcpHeader::parse(&buf[..cut], None).is_err());
        }
    }

    #[test]
    fn rejects_bad_data_offset() {
        let h = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        h.emit(SRC, DST, &[], &mut buf);
        buf[12] = 0x30; // offset 12 bytes < 20
        assert!(matches!(TcpHeader::parse(&buf, None), Err(NetError::BadLength { .. })));
        buf[12] = 0xf0; // offset 60 > buffer
        assert!(matches!(TcpHeader::parse(&buf, None), Err(NetError::BadLength { .. })));
    }
}
