//! IPv4 addresses and headers.

use crate::checksum;
use crate::error::{NetError, Result};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// We use our own compact type (rather than `std::net::Ipv4Addr`) because
/// the pipeline keeps hundreds of millions of these in hash maps and
/// arrays: a transparent `u32` gives free ordering, masking and dense
/// indexing into the dark space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr4(pub u32);

impl Ipv4Addr4 {
    /// 0.0.0.0.
    pub const UNSPECIFIED: Ipv4Addr4 = Ipv4Addr4(0);

    /// From dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr4(u32::from_be_bytes([a, b, c, d]))
    }

    /// From a host-order `u32`.
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Addr4(v)
    }

    /// Host-order `u32` value.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Network-order octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// From network-order octets.
    pub const fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr4(u32::from_be_bytes(o))
    }

    /// The /24 network containing this address (used for per-/24
    /// normalization in the impact analysis).
    pub const fn slash24(self) -> Ipv4Addr4 {
        Ipv4Addr4(self.0 & 0xffff_ff00)
    }
}

impl fmt::Display for Ipv4Addr4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4Addr4 {
    // Debug delegates to Display: addresses read better as dotted quads.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Addr4 {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for o in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| NetError::BadAddressSyntax(s.to_string()))?;
            *o = part.parse::<u8>().map_err(|_| NetError::BadAddressSyntax(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(NetError::BadAddressSyntax(s.to_string()));
        }
        Ok(Ipv4Addr4::from_octets(octets))
    }
}

/// IP protocol number: ICMP.
pub(crate) const PROTO_ICMP: u8 = 1;
/// IP protocol number: TCP.
pub(crate) const PROTO_TCP: u8 = 6;
/// IP protocol number: UDP.
pub(crate) const PROTO_UDP: u8 = 17;

/// Minimum IPv4 header length in bytes (no options).
pub(crate) const HEADER_LEN: usize = 20;

/// An owned IPv4 header ("repr" in smoltcp terms).
///
/// Options are carried opaquely; the parser accepts any IHL in 5..=15 and
/// the emitter re-emits options verbatim, so roundtrips are lossless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// DSCP and ECN bits, as one byte.
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload).
    pub total_len: u16,
    /// Identification field. Scanner fingerprints live here (ZMap: 54321).
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// More-fragments flag.
    more_frags: bool,
    /// Fragment offset in 8-byte units.
    pub(crate) frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number.
    pub(crate) protocol: u8,
    /// Source address.
    pub(crate) src: Ipv4Addr4,
    /// Destination address.
    pub(crate) dst: Ipv4Addr4,
    /// Raw options bytes (empty when IHL = 5).
    options: Vec<u8>,
}

impl Ipv4Header {
    /// A conventional header for a scanning probe.
    pub fn probe(src: Ipv4Addr4, dst: Ipv4Addr4, protocol: u8, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (HEADER_LEN + payload_len) as u16,
            ident: 0,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Parse from the front of `data`. Returns the header and the payload
    /// slice (`total_len` bytes minus header; trailing bytes beyond
    /// `total_len`, e.g. Ethernet padding, are excluded).
    ///
    /// The header checksum is verified; packets failing it are rejected,
    /// mirroring what a router line card would do.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(NetError::Truncated { layer: "ipv4", needed: HEADER_LEN, got: data.len() });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(NetError::Unsupported {
                layer: "ipv4",
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if !(HEADER_LEN..=60).contains(&ihl) {
            return Err(NetError::BadLength { layer: "ipv4", value: ihl });
        }
        if data.len() < ihl {
            return Err(NetError::Truncated { layer: "ipv4", needed: ihl, got: data.len() });
        }
        if !checksum::verify(&data[..ihl]) {
            return Err(NetError::BadChecksum { layer: "ipv4" });
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || total_len > data.len() {
            return Err(NetError::BadLength { layer: "ipv4", value: total_len });
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        let header = Ipv4Header {
            dscp_ecn: data[1],
            total_len: total_len as u16,
            ident: u16::from_be_bytes([data[4], data[5]]),
            dont_frag: flags_frag & 0x4000 != 0,
            more_frags: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl: data[8],
            protocol: data[9],
            src: Ipv4Addr4::from_octets([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr4::from_octets([data[16], data[17], data[18], data[19]]),
            options: data[HEADER_LEN..ihl].to_vec(),
        };
        Ok((header, &data[ihl..total_len]))
    }

    /// Serialize the header (with a freshly computed checksum) into `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        debug_assert!(self.options.len().is_multiple_of(4), "ipv4 options must be 32-bit aligned");
        let ihl_words = (HEADER_LEN + self.options.len()) / 4;
        let start = out.len();
        out.push(0x40 | ihl_words as u8);
        out.push(self.dscp_ecn);
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.dont_frag {
            flags_frag |= 0x4000;
        }
        if self.more_frags {
            flags_frag |= 0x2000;
        }
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.options);
        let csum = checksum::checksum(&out[start..]);
        out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0x10,
            total_len: 40,
            ident: 54321,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 57,
            protocol: PROTO_TCP,
            src: Ipv4Addr4::new(203, 0, 113, 9),
            dst: Ipv4Addr4::new(192, 0, 2, 254),
            options: Vec::new(),
        }
    }

    #[test]
    fn addr_display_and_parse() {
        let a: Ipv4Addr4 = "203.0.113.9".parse().unwrap();
        assert_eq!(a, Ipv4Addr4::new(203, 0, 113, 9));
        assert_eq!(a.to_string(), "203.0.113.9");
        assert!("1.2.3".parse::<Ipv4Addr4>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr4>().is_err());
        assert!("1.2.3.256".parse::<Ipv4Addr4>().is_err());
    }

    #[test]
    fn addr_masking() {
        let a = Ipv4Addr4::new(10, 20, 30, 40);
        assert_eq!(a.slash24(), Ipv4Addr4::new(10, 20, 30, 0));
    }

    #[test]
    fn addr_ordering_matches_numeric() {
        assert!(Ipv4Addr4::new(1, 0, 0, 0) < Ipv4Addr4::new(2, 0, 0, 0));
        assert!(Ipv4Addr4::new(10, 0, 0, 1) < Ipv4Addr4::new(10, 0, 0, 2));
    }

    #[test]
    fn roundtrip_no_options() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0xaa); // fake payload
        let (parsed, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload.len(), 20);
        assert!(payload.iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn roundtrip_with_options() {
        let mut h = sample();
        h.options = vec![1, 1, 1, 1]; // four NOPs
        h.total_len += 4;
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.options, vec![1, 1, 1, 1]);
    }

    #[test]
    fn trailing_padding_is_excluded() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0);
        buf.extend_from_slice(&[0u8; 6]); // ethernet-style padding
        let (_, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(payload.len(), 20);
    }

    #[test]
    fn rejects_bad_version() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(NetError::Unsupported { field: "version", .. })
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0);
        for cut in 0..buf.len() {
            assert!(Ipv4Header::parse(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_corrupted_checksum() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0);
        buf[8] ^= 0xff; // mangle TTL without fixing checksum
        assert_eq!(Ipv4Header::parse(&buf), Err(NetError::BadChecksum { layer: "ipv4" }));
    }

    #[test]
    fn rejects_total_len_below_header() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        // Set total_len = 8 (< IHL) and fix up the checksum so we reach
        // the length check.
        buf[2..4].copy_from_slice(&8u16.to_be_bytes());
        buf[10..12].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&buf[..20]);
        buf[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(matches!(Ipv4Header::parse(&buf), Err(NetError::BadLength { .. })));
    }
}
