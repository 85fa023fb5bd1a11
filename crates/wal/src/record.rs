//! Domain records carried in WAL frames.
//!
//! A frame payload is one encoded [`WalRecord`]: a kind byte followed by
//! a fixed, hand-rolled little-endian body (the workspace has no
//! serialization dependency; see `vendor/README.md`). Three kinds exist:
//!
//! * [`RunMeta`] — written once as frame 0 of a pipeline run: the
//!   scenario/options summary the log was produced under, so a replay or
//!   resume can verify it is being matched against the same world.
//! * [`PacketMeta`] — one packet as the feeder produced it, before any
//!   fault injection: the primary stream. A replay or resume re-injects
//!   from the plan in [`RunMeta`].
//! * [`RunSeal`] — written last, after the stream ends: the packet count
//!   and the rolling packet-payload hash. A log without a seal is a
//!   suspended or crashed run.
//!
//! All decoders are total: any payload that does not parse exactly (kind,
//! lengths, enum tags, trailing bytes) yields `None` and is treated by
//! recovery as a corrupt frame.

use ah_core::defs::Thresholds;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::tcp::TcpFlags;
use ah_net::time::{Dur, Ts};
use ah_simnet::faults::FaultPlan;
use ah_simnet::scenario::{BenignLevel, Year};

/// Frame-payload kind byte for [`RunMeta`].
pub(crate) const KIND_META: u8 = 1;
/// Frame-payload kind byte for a packet record.
pub(crate) const KIND_PACKET: u8 = 2;
/// Frame-payload kind byte for [`RunSeal`].
pub(crate) const KIND_SEAL: u8 = 3;

/// The run configuration summary stored as the log's first record.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Scenario label (`"tiny"`, `"darknet-2"`, …).
    pub label: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Scenario length in days.
    pub days: u64,
    /// Measurement year preset.
    pub year: Year,
    /// Benign-traffic level preset.
    pub benign: BenignLevel,
    /// Weekday of day 0.
    pub day0_weekday: u8,
    /// Whether the Merit ISP vantage point was built.
    pub merit_isp: bool,
    /// Whether the CU campus vantage point was built.
    pub cu_isp: bool,
    /// Whether the honeypot fleet was fed.
    pub greynoise: bool,
    /// NetFlow sampling rate of the ISP vantage points.
    pub sampling_rate: u64,
    /// Detection thresholds the run finalized with.
    pub thresholds: Thresholds,
    /// Packet-fault plan applied between mux and vantage points, if any.
    pub faults: Option<FaultPlan>,
}

impl PartialEq for RunMeta {
    fn eq(&self, other: &Self) -> bool {
        // `Thresholds` holds plain f64s without a PartialEq impl;
        // compare by bit pattern so round-tripping through `to_bits`
        // encoding is exact (NaN-safe, -0.0 != 0.0 — which is what we
        // want for "same configuration").
        let t = |x: &Thresholds| {
            (x.dispersion_fraction.to_bits(), x.volume_alpha.to_bits(), x.ports_alpha.to_bits())
        };
        self.label == other.label
            && self.seed == other.seed
            && self.days == other.days
            && self.year == other.year
            && self.benign == other.benign
            && self.day0_weekday == other.day0_weekday
            && self.merit_isp == other.merit_isp
            && self.cu_isp == other.cu_isp
            && self.greynoise == other.greynoise
            && self.sampling_rate == other.sampling_rate
            && t(&self.thresholds) == t(&other.thresholds)
            && self.faults == other.faults
    }
}

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
    /// Run configuration summary (first frame).
    Meta(RunMeta),
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

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
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

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
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

fn encode_meta(out: &mut Vec<u8>, m: &RunMeta) {
    let label = m.label.as_bytes();
    put_u16(out, label.len() as u16);
    out.extend_from_slice(label);
    put_u64(out, m.seed);
    put_u64(out, m.days);
    out.push(match m.year {
        Year::Y2021 => 0,
        Year::Y2022 => 1,
    });
    out.push(match m.benign {
        BenignLevel::Off => 0,
        BenignLevel::Merit => 1,
        BenignLevel::MeritAndCu => 2,
    });
    out.push(m.day0_weekday);
    let mut flags = 0u8;
    if m.merit_isp {
        flags |= 1;
    }
    if m.cu_isp {
        flags |= 2;
    }
    if m.greynoise {
        flags |= 4;
    }
    if m.faults.is_some() {
        flags |= 8;
    }
    out.push(flags);
    put_u64(out, m.sampling_rate);
    put_f64(out, m.thresholds.dispersion_fraction);
    put_f64(out, m.thresholds.volume_alpha);
    put_f64(out, m.thresholds.ports_alpha);
    if let Some(p) = m.faults.as_ref() {
        put_f64(out, p.drop);
        put_f64(out, p.duplicate);
        put_f64(out, p.reorder);
        put_u64(out, p.max_skew.0);
        put_f64(out, p.truncate);
        put_f64(out, p.bitflip);
        put_f64(out, p.zero_payload);
        put_u64(out, p.outage_period.0);
        put_u64(out, p.outage_len.0);
        put_u64(out, p.seed);
    }
}

fn decode_meta(c: &mut Cursor<'_>) -> Option<RunMeta> {
    let label_len = c.u16()? as usize;
    let label = String::from_utf8(c.take(label_len)?.to_vec()).ok()?;
    let seed = c.u64()?;
    let days = c.u64()?;
    let year = match c.u8()? {
        0 => Year::Y2021,
        1 => Year::Y2022,
        _ => return None,
    };
    let benign = match c.u8()? {
        0 => BenignLevel::Off,
        1 => BenignLevel::Merit,
        2 => BenignLevel::MeritAndCu,
        _ => return None,
    };
    let day0_weekday = c.u8()?;
    let flags = c.u8()?;
    let sampling_rate = c.u64()?;
    let thresholds =
        Thresholds { dispersion_fraction: c.f64()?, volume_alpha: c.f64()?, ports_alpha: c.f64()? };
    let faults = if flags & 8 != 0 {
        Some(FaultPlan {
            drop: c.f64()?,
            duplicate: c.f64()?,
            reorder: c.f64()?,
            max_skew: Dur(c.u64()?),
            truncate: c.f64()?,
            bitflip: c.f64()?,
            zero_payload: c.f64()?,
            outage_period: Dur(c.u64()?),
            outage_len: Dur(c.u64()?),
            seed: c.u64()?,
        })
    } else {
        None
    };
    Some(RunMeta {
        label,
        seed,
        days,
        year,
        benign,
        day0_weekday,
        merit_isp: flags & 1 != 0,
        cu_isp: flags & 2 != 0,
        greynoise: flags & 4 != 0,
        sampling_rate,
        thresholds,
        faults,
    })
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
                encode_meta(out, m);
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
            KIND_META => WalRecord::Meta(decode_meta(&mut c)?),
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
