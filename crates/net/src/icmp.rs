//! ICMPv4 message parsing and building.
//!
//! The telescope only treats Echo Requests as scanning packets, but the
//! parser understands the common message shapes (echo, unreachable, time
//! exceeded) so that backscatter and misconfiguration noise can be
//! represented faithfully.

use crate::checksum;
use crate::error::{NetError, Result};

/// ICMP header length in bytes (type, code, checksum, rest-of-header).
pub(crate) const HEADER_LEN: usize = 8;

/// ICMP type number: echo request.
pub(crate) const TYPE_ECHO_REQUEST: u8 = 8;

/// An owned ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type number.
    pub icmp_type: u8,
    /// Type-specific code.
    pub code: u8,
    /// For echo messages: identifier (first half of rest-of-header).
    pub ident: u16,
    /// For echo messages: sequence number (second half of rest-of-header).
    pub seq: u16,
    /// Payload after the 8-byte header.
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// An Echo Request as a ping scanner would send it.
    #[cfg(test)]
    pub(crate) fn echo_request(ident: u16, seq: u16) -> Self {
        IcmpMessage { icmp_type: TYPE_ECHO_REQUEST, code: 0, ident, seq, payload: Vec::new() }
    }

    /// Parse an ICMP message, verifying its checksum.
    pub fn parse(data: &[u8]) -> Result<IcmpMessage> {
        if data.len() < HEADER_LEN {
            return Err(NetError::Truncated { layer: "icmp", needed: HEADER_LEN, got: data.len() });
        }
        if !checksum::verify(data) {
            return Err(NetError::BadChecksum { layer: "icmp" });
        }
        Ok(IcmpMessage {
            icmp_type: data[0],
            code: data[1],
            ident: u16::from_be_bytes([data[4], data[5]]),
            seq: u16::from_be_bytes([data[6], data[7]]),
            payload: data[HEADER_LEN..].to_vec(),
        })
    }

    /// Serialize into `out` with a correct checksum.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.icmp_type);
        out.push(self.code);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.payload);
        let csum = checksum::checksum(&out[start..]);
        out[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_echo() {
        let mut m = IcmpMessage::echo_request(0xbeef, 42);
        m.payload = b"abcdefgh".to_vec();
        let mut buf = Vec::new();
        m.emit(&mut buf);
        let parsed = IcmpMessage::parse(&buf).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let m = IcmpMessage::echo_request(7, 7);
        let mut buf = Vec::new();
        m.emit(&mut buf);
        buf[0] = 0; // echo reply: change type without fixing checksum
        assert_eq!(IcmpMessage::parse(&buf), Err(NetError::BadChecksum { layer: "icmp" }));
    }

    #[test]
    fn truncated_rejected() {
        assert!(IcmpMessage::parse(&[8, 0, 0]).is_err());
    }
}
