//! Classic libpcap file format, reader and writer.
//!
//! Implemented from the published format description: a 24-byte global
//! header (magic 0xa1b2c3d4 for microsecond timestamps, byte-swapped when
//! written on an opposite-endian machine) followed by 16-byte-headed
//! records. The reader accepts both byte orders; the writer emits
//! little-endian. Snapshot-length truncation is honored: records longer
//! than `snaplen` are truncated on write and reported with their original
//! length.
//!
//! One link type is named: `LINKTYPE_RAW` (101, bare IP packets — what a
//! telescope stores, and what [`crate::packet::PacketMeta::parse_ip`]
//! takes). The reader hands back any link type's bytes; stripping another
//! link layer is the caller's business.
//!
//! The reader is total on hostile bytes: every input ends in `Ok(None)`
//! or one `Err`, no record may claim more than `MAX_SNAPLEN`, and a
//! buffer grows with the bytes that arrive, never to a length the file
//! merely claims (`crates/net/tests/proptests.rs` holds it to that).

use crate::error::{NetError, Result};
use crate::time::Ts;
use std::io::{Read, Write};

/// Magic for microsecond-resolution pcap, native order.
pub(crate) const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// The same magic as read on an opposite-endian machine.
pub(crate) const MAGIC_MICROS_SWAPPED: u32 = 0xd4c3_b2a1;

/// Link type: raw IP packets (no link header).
pub const LINKTYPE_RAW: u32 = 101;

/// Default snapshot length (the classic tcpdump value).
pub const DEFAULT_SNAPLEN: u32 = 65_535;

/// Largest record the reader accepts (tcpdump's maximum snaplen),
/// whatever snaplen the file's own header claims.
const MAX_SNAPLEN: u32 = 262_144;

/// One 32-bit header field in the file's byte order.
fn word(b: &[u8], little_endian: bool) -> u32 {
    let arr = [b[0], b[1], b[2], b[3]];
    if little_endian {
        u32::from_le_bytes(arr)
    } else {
        u32::from_be_bytes(arr)
    }
}

/// Global header of a pcap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapHeader {
    /// Snapshot length: captured bytes per packet are capped here.
    pub snaplen: u32,
    /// Link-layer type (101 = raw IP).
    pub linktype: u32,
    /// True if the file's byte order is opposite to big-endian parse
    /// (i.e. records must be read little-endian).
    little_endian: bool,
}

/// One captured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub ts: Ts,
    /// Captured bytes.
    pub data: Vec<u8>,
}

/// Streaming pcap writer over any `Write`.
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut inner: W, linktype: u32, snaplen: u32) -> Result<Self> {
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_MICROS.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
                                                        // thiszone (4) and sigfigs (4) stay zero.
        hdr[16..20].copy_from_slice(&snaplen.to_le_bytes());
        hdr[20..24].copy_from_slice(&linktype.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner, snaplen, records: 0 })
    }

    /// Append one packet. Data longer than the snaplen is truncated, with
    /// `orig_len` recording the wire length.
    pub fn write_packet(&mut self, ts: Ts, data: &[u8]) -> Result<()> {
        let incl = data.len().min(self.snaplen as usize);
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&(ts.secs() as u32).to_le_bytes());
        rec[4..8].copy_from_slice(&ts.subsec_micros().to_le_bytes());
        rec[8..12].copy_from_slice(&(incl as u32).to_le_bytes());
        rec[12..16].copy_from_slice(&(data.len() as u32).to_le_bytes());
        self.inner.write_all(&rec)?;
        self.inner.write_all(&data[..incl])?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming pcap reader over any `Read`.
pub struct PcapReader<R: Read> {
    inner: R,
    header: PcapHeader,
}

impl<R: Read> PcapReader<R> {
    /// Read and validate the global header.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let magic_le = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let little_endian = match magic_le {
            MAGIC_MICROS => true,
            MAGIC_MICROS_SWAPPED => false,
            other => return Err(NetError::BadMagic(other)),
        };
        let header = PcapHeader {
            snaplen: word(&hdr[16..20], little_endian),
            linktype: word(&hdr[20..24], little_endian),
            little_endian,
        };
        Ok(PcapReader { inner, header })
    }

    /// The parsed global header.
    pub fn header(&self) -> PcapHeader {
        self.header
    }

    /// Read the next record; `Ok(None)` at a clean end of file (zero
    /// bytes where a record header would start). A partial record header
    /// or body is a truncated capture file and yields `Truncated`.
    pub(crate) fn next_record(&mut self) -> Result<Option<PcapRecord>> {
        // `read_exact` cannot tell zero bytes (end of file) from a few
        // (truncation); a copy through `take` counts them.
        let mut rec = [0u8; 16];
        let got = std::io::copy(&mut self.inner.by_ref().take(16), &mut &mut rec[..])? as usize;
        if got == 0 {
            return Ok(None);
        }
        if got < 16 {
            return Err(NetError::Truncated { layer: "pcap", needed: 16, got });
        }
        // The fourth field, the length on the wire, has no reader.
        let field = |at: usize| word(&rec[at..at + 4], self.header.little_endian);
        let (ts_sec, ts_usec, incl_len) = (field(0), field(4), field(8));
        if incl_len > MAX_SNAPLEN {
            return Err(NetError::BadLength { layer: "pcap", value: incl_len as usize });
        }
        // Grows with the bytes that arrive, not to the claimed length.
        let mut data = Vec::new();
        self.inner.by_ref().take(u64::from(incl_len)).read_to_end(&mut data)?;
        if data.len() < incl_len as usize {
            let (needed, got) = (incl_len as usize, data.len());
            return Err(NetError::Truncated { layer: "pcap", needed, got });
        }
        Ok(Some(PcapRecord {
            ts: Ts::from_secs(u64::from(ts_sec))
                + crate::time::Dur::from_micros(u64::from(ts_usec)),
            data,
        }))
    }

    /// Iterate over the remaining records: the intact prefix, then at
    /// most one `Err`, which is the last item — after a bad length the
    /// stream position means nothing.
    pub fn records(mut self) -> impl Iterator<Item = Result<PcapRecord>> {
        let mut failed = false;
        std::iter::from_fn(move || {
            if failed {
                return None;
            }
            let next = self.next_record().transpose();
            failed = matches!(next, Some(Err(_)));
            next
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr4;
    use crate::packet::PacketMeta;

    fn sample_packets() -> Vec<PacketMeta> {
        let s = Ipv4Addr4::new(203, 0, 113, 1);
        let d = Ipv4Addr4::new(192, 0, 2, 9);
        vec![
            PacketMeta::tcp_syn(Ts::from_micros(1_000_001), s, d, 40000, 23),
            PacketMeta::udp_probe(Ts::from_micros(2_500_000), s, d, 40001, 161),
            PacketMeta::icmp_echo(Ts::from_micros(86_400_000_123), s, d),
        ]
    }

    #[test]
    fn roundtrip_raw_ip() {
        let pkts = sample_packets();
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
            for p in &pkts {
                w.write_packet(p.ts, &p.to_bytes()).unwrap();
            }
            assert_eq!(w.record_count(), 3);
            w.finish().unwrap();
        }
        let r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.header().linktype, LINKTYPE_RAW);
        assert!(r.header().little_endian);
        let got: Vec<_> = r.records().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 3);
        for (rec, orig) in got.iter().zip(&pkts) {
            assert_eq!(rec.ts, orig.ts);
            let parsed = PacketMeta::parse_ip(&rec.data, rec.ts).unwrap();
            assert_eq!(&parsed, orig);
        }
    }

    #[test]
    fn snaplen_truncates_and_reports_orig_len() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, 24).unwrap();
        let data = vec![7u8; 100];
        w.write_packet(Ts::from_secs(1), &data).unwrap();
        w.finish().unwrap();
        assert_eq!(buf[24 + 12..24 + 16], 100u32.to_le_bytes(), "orig_len on the wire");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.data.len(), 24);
    }

    #[test]
    fn big_endian_files_are_readable() {
        // Hand-build a big-endian pcap with one 4-byte record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[0u8; 8]); // thiszone, sigfigs
        buf.extend_from_slice(&DEFAULT_SNAPLEN.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        buf.extend_from_slice(&10u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&99u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&4u32.to_be_bytes()); // incl_len
        buf.extend_from_slice(&4u32.to_be_bytes()); // orig_len
        buf.extend_from_slice(b"abcd");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(!r.header().little_endian);
        assert_eq!(r.header().linktype, LINKTYPE_RAW);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts, Ts::from_secs(10) + crate::time::Dur::from_micros(99));
        assert_eq!(rec.data, b"abcd");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn unknown_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(PcapReader::new(&buf[..]), Err(NetError::BadMagic(0))));
    }

    #[test]
    fn truncated_record_is_an_error_not_end_of_file() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        w.write_packet(Ts::from_secs(1), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        w.finish().unwrap();
        // Every cut inside the record: its 16-byte header, then its body.
        for kept in 1..16 + 8 {
            let (needed, got) = if kept < 16 { (16, kept) } else { (8, kept - 16) };
            let mut r = PcapReader::new(&buf[..24 + kept]).unwrap();
            assert_eq!(r.next_record(), Err(NetError::Truncated { layer: "pcap", needed, got }));
        }
    }

    #[test]
    fn absurd_incl_len_rejected() {
        // Whatever snaplen the file's own header claims: under a bound
        // taken from it, the second file asks for a 4 GiB buffer.
        for claimed in [DEFAULT_SNAPLEN, u32::MAX] {
            let mut buf = Vec::new();
            let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, claimed).unwrap();
            w.write_packet(Ts::from_secs(1), &[0u8; 4]).unwrap();
            w.finish().unwrap();
            // Rewrite incl_len to a huge value.
            buf[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut r = PcapReader::new(&buf[..]).unwrap();
            assert_eq!(r.header().snaplen, claimed);
            assert!(matches!(r.next_record(), Err(NetError::BadLength { .. })));
        }
    }

    #[test]
    fn empty_file_yields_no_records() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap().finish().unwrap();
        let r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.records().count(), 0);
    }
}
