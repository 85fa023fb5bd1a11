//! The pcapng capture format (reader and writer).
//!
//! Modern capture tools default to pcapng rather than classic pcap; a
//! telescope operator pointing this library at their archives needs both.
//! Implemented from the published block layout:
//!
//! * **SHB** (Section Header Block, type `0x0A0D0D0A`) with the
//!   byte-order magic `0x1A2B3C4D`;
//! * **IDB** (Interface Description Block, type `1`) carrying link type
//!   and snap length;
//! * **EPB** (Enhanced Packet Block, type `6`) carrying a 64-bit
//!   timestamp (microsecond resolution by default), captured and
//!   original lengths, and the padded packet data.
//!
//! Options are skipped on read and not emitted on write. Unknown block
//! types are skipped, as the format prescribes. Only little-endian
//! sections are written; both byte orders are read.

use crate::error::{NetError, Result};
use crate::time::Ts;
use std::io::{Read, Write};

/// Block type: Section Header Block.
pub const BT_SHB: u32 = 0x0A0D_0D0A;
/// Block type: Interface Description Block.
pub(crate) const BT_IDB: u32 = 0x0000_0001;
/// Block type: Enhanced Packet Block.
pub(crate) const BT_EPB: u32 = 0x0000_0006;
/// Byte-order magic inside the SHB.
pub(crate) const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

/// One captured packet from a pcapng file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapNgPacket {
    /// Interface the packet was captured on (index of its IDB).
    interface: u32,
    /// Capture timestamp.
    pub ts: Ts,
    /// Original wire length (may exceed `data.len()`).
    orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

/// Streaming pcapng writer: one section, one interface.
pub struct PcapNgWriter<W: Write> {
    inner: W,
}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

impl<W: Write> PcapNgWriter<W> {
    /// Write the SHB and one IDB for `linktype` with `snaplen`.
    pub fn new(mut inner: W, linktype: u16, snaplen: u32) -> Result<Self> {
        // SHB: type, total len (28), magic, version 1.0, section len -1.
        let mut shb = Vec::with_capacity(28);
        shb.extend_from_slice(&BT_SHB.to_le_bytes());
        shb.extend_from_slice(&28u32.to_le_bytes());
        shb.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        shb.extend_from_slice(&28u32.to_le_bytes());
        inner.write_all(&shb)?;
        // IDB: type, total len (20), linktype, reserved, snaplen.
        let mut idb = Vec::with_capacity(20);
        idb.extend_from_slice(&BT_IDB.to_le_bytes());
        idb.extend_from_slice(&20u32.to_le_bytes());
        idb.extend_from_slice(&linktype.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&snaplen.to_le_bytes());
        idb.extend_from_slice(&20u32.to_le_bytes());
        inner.write_all(&idb)?;
        Ok(PcapNgWriter { inner })
    }

    /// Append one Enhanced Packet Block on interface 0.
    pub fn write_packet(&mut self, ts: Ts, data: &[u8]) -> Result<()> {
        let padded = pad4(data.len());
        let total = 32 + padded;
        let usecs = ts.micros();
        let mut epb = Vec::with_capacity(total);
        epb.extend_from_slice(&BT_EPB.to_le_bytes());
        epb.extend_from_slice(&(total as u32).to_le_bytes());
        epb.extend_from_slice(&0u32.to_le_bytes()); // interface id
        epb.extend_from_slice(&((usecs >> 32) as u32).to_le_bytes());
        epb.extend_from_slice(&(usecs as u32).to_le_bytes());
        epb.extend_from_slice(&(data.len() as u32).to_le_bytes()); // captured
        epb.extend_from_slice(&(data.len() as u32).to_le_bytes()); // original
        epb.extend_from_slice(data);
        epb.resize(32 + padded - 4, 0); // pad packet data
        epb.extend_from_slice(&(total as u32).to_le_bytes());
        self.inner.write_all(&epb)?;
        Ok(())
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming pcapng reader.
pub struct PcapNgReader<R: Read> {
    inner: R,
    little_endian: bool,
    /// Link types of the interfaces seen so far, in IDB order.
    interfaces: Vec<u16>,
}

impl<R: Read> PcapNgReader<R> {
    /// Read and validate the leading SHB.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut head = [0u8; 12];
        inner.read_exact(&mut head)?;
        let btype = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        if btype != BT_SHB {
            return Err(NetError::BadMagic(btype));
        }
        let magic = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
        let little_endian = match magic {
            BYTE_ORDER_MAGIC => true,
            m if m == BYTE_ORDER_MAGIC.swap_bytes() => false,
            other => return Err(NetError::BadMagic(other)),
        };
        let u32_at = |b: &[u8], le: bool| {
            let arr = [b[0], b[1], b[2], b[3]];
            if le {
                u32::from_le_bytes(arr)
            } else {
                u32::from_be_bytes(arr)
            }
        };
        let total = u32_at(&head[4..8], little_endian) as usize;
        if !(28..=1 << 20).contains(&total) {
            return Err(NetError::BadLength { layer: "pcapng-shb", value: total });
        }
        // Consume the rest of the SHB (version, section length, options,
        // trailing length).
        let mut rest = vec![0u8; total - 12];
        inner.read_exact(&mut rest)?;
        Ok(PcapNgReader { inner, little_endian, interfaces: Vec::new() })
    }

    fn u32_of(&self, b: &[u8]) -> u32 {
        let arr = [b[0], b[1], b[2], b[3]];
        if self.little_endian {
            u32::from_le_bytes(arr)
        } else {
            u32::from_be_bytes(arr)
        }
    }

    /// Read blocks until the next packet; `Ok(None)` at a clean EOF.
    pub(crate) fn next_packet(&mut self) -> Result<Option<PcapNgPacket>> {
        loop {
            let mut head = [0u8; 8];
            match self.inner.read_exact(&mut head) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(e.into()),
            }
            let btype = self.u32_of(&head[0..4]);
            let total = self.u32_of(&head[4..8]) as usize;
            if !(12..=1 << 26).contains(&total) || !total.is_multiple_of(4) {
                return Err(NetError::BadLength { layer: "pcapng", value: total });
            }
            let mut body = vec![0u8; total - 8];
            self.inner.read_exact(&mut body).map_err(|_| NetError::Truncated {
                layer: "pcapng",
                needed: total - 8,
                got: 0,
            })?;
            // Verify trailing length field.
            let trail = self.u32_of(&body[body.len() - 4..]);
            if trail as usize != total {
                return Err(NetError::BadLength { layer: "pcapng-trailer", value: trail as usize });
            }
            match btype {
                BT_IDB => {
                    if body.len() < 12 {
                        return Err(NetError::Truncated {
                            layer: "pcapng-idb",
                            needed: 12,
                            got: body.len(),
                        });
                    }
                    let lt = if self.little_endian {
                        u16::from_le_bytes([body[0], body[1]])
                    } else {
                        u16::from_be_bytes([body[0], body[1]])
                    };
                    self.interfaces.push(lt);
                }
                BT_EPB => {
                    if body.len() < 24 {
                        return Err(NetError::Truncated {
                            layer: "pcapng-epb",
                            needed: 24,
                            got: body.len(),
                        });
                    }
                    let interface = self.u32_of(&body[0..4]);
                    let ts_hi = u64::from(self.u32_of(&body[4..8]));
                    let ts_lo = u64::from(self.u32_of(&body[8..12]));
                    let captured = self.u32_of(&body[12..16]) as usize;
                    let orig_len = self.u32_of(&body[16..20]);
                    if 20 + captured + 4 > body.len() {
                        return Err(NetError::BadLength { layer: "pcapng-epb", value: captured });
                    }
                    return Ok(Some(PcapNgPacket {
                        interface,
                        ts: Ts::from_micros((ts_hi << 32) | ts_lo),
                        orig_len,
                        data: body[20..20 + captured].to_vec(),
                    }));
                }
                // SHB mid-stream (multi-section file): reset interfaces.
                BT_SHB => self.interfaces.clear(),
                // Any other block type: skip, per the specification.
                _ => {}
            }
        }
    }

    /// Iterate remaining packets.
    pub fn packets(mut self) -> impl Iterator<Item = Result<PcapNgPacket>> {
        std::iter::from_fn(move || self.next_packet().transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr4;
    use crate::packet::PacketMeta;

    fn sample() -> Vec<PacketMeta> {
        let s = Ipv4Addr4::new(203, 0, 113, 1);
        let d = Ipv4Addr4::new(192, 0, 2, 9);
        vec![
            PacketMeta::tcp_syn(Ts::from_micros(1_000_001), s, d, 40000, 23),
            PacketMeta::udp_probe(Ts::from_micros(2_500_000), s, d, 40001, 161),
            PacketMeta::icmp_echo(Ts::from_micros(5_000_000_123), s, d),
        ]
    }

    #[test]
    fn roundtrip() {
        let pkts = sample();
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, 101, 65_535).unwrap();
            for p in &pkts {
                w.write_packet(p.ts, &p.to_bytes()).unwrap();
            }
            w.finish().unwrap();
        }
        let mut r = PcapNgReader::new(&buf[..]).unwrap();
        let mut got = Vec::new();
        while let Some(p) = r.next_packet().unwrap() {
            got.push(p);
        }
        assert_eq!(r.interfaces, [101]);
        assert_eq!(got.len(), 3);
        for (rec, orig) in got.iter().zip(&pkts) {
            assert_eq!(rec.ts, orig.ts);
            assert_eq!(rec.interface, 0);
            let parsed = PacketMeta::parse_ip(&rec.data, rec.ts).unwrap();
            assert_eq!(&parsed, orig);
        }
    }

    #[test]
    fn odd_length_payload_is_padded() {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, 1, 100).unwrap();
        w.write_packet(Ts::from_secs(1), &[1, 2, 3, 4, 5]).unwrap();
        w.write_packet(Ts::from_secs(2), &[9]).unwrap();
        w.finish().unwrap();
        let got: Vec<_> =
            PcapNgReader::new(&buf[..]).unwrap().packets().map(|p| p.unwrap()).collect();
        assert_eq!(got[0].data, vec![1, 2, 3, 4, 5]);
        assert_eq!(got[1].data, vec![9]);
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, 1, 100).unwrap();
        w.write_packet(Ts::from_secs(1), b"abcd").unwrap();
        w.finish().unwrap();
        // Splice in an unknown 16-byte block (e.g. a name-resolution
        // block) between IDB and EPB — offset 48 = 28 (SHB) + 20 (IDB).
        let mut custom = Vec::new();
        custom.extend_from_slice(&0x0000_0004u32.to_le_bytes());
        custom.extend_from_slice(&16u32.to_le_bytes());
        custom.extend_from_slice(&[0u8; 4]);
        custom.extend_from_slice(&16u32.to_le_bytes());
        let mut spliced = buf[..48].to_vec();
        spliced.extend_from_slice(&custom);
        spliced.extend_from_slice(&buf[48..]);
        let got: Vec<_> =
            PcapNgReader::new(&spliced[..]).unwrap().packets().map(|p| p.unwrap()).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, b"abcd");
    }

    #[test]
    fn rejects_non_pcapng() {
        // A classic pcap file must be rejected by magic.
        let mut classic = Vec::new();
        let w = crate::pcap::PcapWriter::new(&mut classic, 101, 100).unwrap();
        w.finish().unwrap();
        assert!(matches!(PcapNgReader::new(&classic[..]), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn truncated_block_errors_not_panics() {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, 1, 100).unwrap();
        w.write_packet(Ts::from_secs(1), &[0u8; 40]).unwrap();
        w.finish().unwrap();
        let cut = &buf[..buf.len() - 6];
        let mut r = PcapNgReader::new(cut).unwrap();
        assert!(r.next_packet().is_err());
    }

    #[test]
    fn corrupt_trailer_detected() {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, 1, 100).unwrap();
        w.write_packet(Ts::from_secs(1), &[0u8; 8]).unwrap();
        w.finish().unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let mut r = PcapNgReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(NetError::BadLength { .. })));
    }

    #[test]
    fn big_timestamps_survive() {
        // > 2^32 microseconds (≈ 71.6 minutes) exercises the hi/lo split.
        let ts = Ts::from_days(3) + crate::time::Dur::from_micros(123_456);
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, 1, 100).unwrap();
        w.write_packet(ts, &[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();
        let got: Vec<_> =
            PcapNgReader::new(&buf[..]).unwrap().packets().map(|p| p.unwrap()).collect();
        assert_eq!(got[0].ts, ts);
    }
}
