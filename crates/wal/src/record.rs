//! Domain records carried in WAL frames.
//!
//! A frame payload is one encoded [`WalRecord`]: a kind byte followed by
//! a fixed, hand-rolled little-endian body (the workspace has no
//! serialization dependency; see `vendor/README.md`). Three kinds exist:
//!
//! * [`WalRecord::Meta`] — written once as frame 0 of a pipeline run:
//!   the caller's description of the run, stored as opaque
//!   length-prefixed bytes. This crate never looks inside it; a replay
//!   or resume compares it with its own description byte for byte.
//! * [`PacketMeta`] — one packet as the feeder produced it, before any
//!   fault injection: the primary stream.
//! * [`RunSeal`] — written last, after the stream ends: the packet count
//!   and the rolling packet-payload hash. A log without a seal is a
//!   suspended or crashed run.
//!
//! All decoders are total: any payload that does not parse exactly (kind,
//! lengths, enum tags, trailing bytes) yields `None` and is treated by
//! recovery as a corrupt frame.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::tcp::TcpFlags;
use ah_net::time::Ts;

/// Frame-payload kind byte for [`WalRecord::Meta`].
pub(crate) const KIND_META: u8 = 1;
/// Frame-payload kind byte for a packet record.
pub(crate) const KIND_PACKET: u8 = 2;
/// Frame-payload kind byte for [`RunSeal`].
pub(crate) const KIND_SEAL: u8 = 3;

/// The final record of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeal {
    /// Total packets the scenario generated (== packet frames in the
    /// log).
    pub generated: u64,
    /// Rolling FNV-1a over every packet record's encoded payload, in
    /// log order — an end-to-end integrity check over the whole
    /// stream, independent of the per-frame CRCs.
    pub packet_hash: u64,
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The run's description, opaque to the log (first frame).
    Meta(Vec<u8>),
    /// One generated packet.
    Packet(PacketMeta),
    /// End-of-run seal (last frame of a completed run).
    Seal(RunSeal),
}

// --- encoding ----------------------------------------------------------

/// [`RunSeal::packet_hash`] is this fold from [`FNV_OFFSET`].
pub use ah_net::hash::{fnv1a_fold, FNV_OFFSET};

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a record body.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.off..end];
        self.off = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).and_then(|s| s.try_into().ok()).map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|s| s.try_into().ok()).map(u64::from_le_bytes)
    }

    fn done(&self) -> bool {
        self.off == self.buf.len()
    }
}

fn encode_packet(out: &mut Vec<u8>, p: &PacketMeta) {
    put_u64(out, p.ts.0);
    put_u32(out, p.src.to_u32());
    put_u32(out, p.dst.to_u32());
    put_u16(out, p.ip_id);
    out.push(p.ttl);
    put_u16(out, p.wire_len);
    match p.transport {
        Transport::Tcp { src_port, dst_port, seq, flags } => {
            out.push(0);
            put_u16(out, src_port);
            put_u16(out, dst_port);
            put_u32(out, seq);
            out.push(flags.0);
        }
        Transport::Udp { src_port, dst_port } => {
            out.push(1);
            put_u16(out, src_port);
            put_u16(out, dst_port);
        }
        Transport::Icmp { icmp_type, code } => {
            out.push(2);
            out.push(icmp_type);
            out.push(code);
        }
        Transport::Other { protocol } => {
            out.push(3);
            out.push(protocol);
        }
    }
}

fn decode_packet(c: &mut Cursor<'_>) -> Option<PacketMeta> {
    let ts = Ts(c.u64()?);
    let src = Ipv4Addr4(c.u32()?);
    let dst = Ipv4Addr4(c.u32()?);
    let ip_id = c.u16()?;
    let ttl = c.u8()?;
    let wire_len = c.u16()?;
    let transport = match c.u8()? {
        0 => Transport::Tcp {
            src_port: c.u16()?,
            dst_port: c.u16()?,
            seq: c.u32()?,
            flags: TcpFlags(c.u8()?),
        },
        1 => Transport::Udp { src_port: c.u16()?, dst_port: c.u16()? },
        2 => Transport::Icmp { icmp_type: c.u8()?, code: c.u8()? },
        3 => Transport::Other { protocol: c.u8()? },
        _ => return None,
    };
    Some(PacketMeta { ts, src, dst, ip_id, ttl, wire_len, transport })
}

fn encode_seal(out: &mut Vec<u8>, s: &RunSeal) {
    put_u64(out, s.generated);
    put_u64(out, s.packet_hash);
}

fn decode_seal(c: &mut Cursor<'_>) -> Option<RunSeal> {
    Some(RunSeal { generated: c.u64()?, packet_hash: c.u64()? })
}

impl WalRecord {
    /// Append this record's frame payload (kind byte + body) to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Meta(m) => {
                out.push(KIND_META);
                put_u32(out, m.len() as u32);
                out.extend_from_slice(m);
            }
            WalRecord::Packet(p) => {
                out.push(KIND_PACKET);
                encode_packet(out, p);
            }
            WalRecord::Seal(s) => {
                out.push(KIND_SEAL);
                encode_seal(out, s);
            }
        }
    }

    /// Decode a frame payload. `None` means the payload is not a valid
    /// record (unknown kind, short body, bad enum tag, or trailing
    /// bytes) — recovery treats this exactly like a CRC failure.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            KIND_META => {
                let len = c.u32()? as usize;
                WalRecord::Meta(c.take(len)?.to_vec())
            }
            KIND_PACKET => WalRecord::Packet(decode_packet(&mut c)?),
            KIND_SEAL => WalRecord::Seal(decode_seal(&mut c)?),
            _ => return None,
        };
        if !c.done() {
            return None;
        }
        Some(rec)
    }
}
