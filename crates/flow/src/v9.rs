//! NetFlow v9 export format (RFC 3954), template-based.
//!
//! The paper's collectors speak NetFlow; this module is the crate's one
//! wire format, the template-driven v9 that current router software
//! exports. We implement the subset a flow
//! collector for this pipeline needs: one template FlowSet describing
//! our record layout, data FlowSets referencing it, and a decoder that
//! learns templates from the stream, as real collectors must. A data
//! FlowSet whose template is not known yet is undecodable: it is skipped
//! and counted ([`V9Stats::sets_undecodable`]). Nothing buffers it
//! for a later template — every exporter here puts the template in its
//! first packet, and the decoder holds no byte it was not asked to keep.
//!
//! The decoder is total on hostile bytes: any input is `Ok` or one
//! `Err`, never a panic (`crates/flow/tests/proptests.rs`).
//!
//! Field types used (RFC 3954 §8): IN_BYTES(1), IN_PKTS(2), PROTOCOL(4),
//! TCP_FLAGS(6), L4_SRC_PORT(7), IPV4_SRC_ADDR(8), L4_DST_PORT(11),
//! IPV4_DST_ADDR(12), LAST_SWITCHED(21), FIRST_SWITCHED(22),
//! INPUT_SNMP(10), OUTPUT_SNMP(14).

use crate::record::{FlowKey, FlowRecord};
use crate::router::Direction;
use ah_net::error::{NetError, Result};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::time::Ts;
use std::collections::HashMap;

/// The template id we export under (ids < 256 are reserved).
pub(crate) const TEMPLATE_ID: u16 = 260;

/// (field type, length) pairs of the exported template, in order.
const FIELDS: &[(u16, u16)] = &[
    (8, 4),  // IPV4_SRC_ADDR
    (12, 4), // IPV4_DST_ADDR
    (7, 2),  // L4_SRC_PORT
    (11, 2), // L4_DST_PORT
    (4, 1),  // PROTOCOL
    (6, 1),  // TCP_FLAGS
    (2, 4),  // IN_PKTS
    (1, 4),  // IN_BYTES
    (22, 4), // FIRST_SWITCHED (sysuptime ms)
    (21, 4), // LAST_SWITCHED
    (10, 2), // INPUT_SNMP
    (14, 2), // OUTPUT_SNMP
];

const RECORD_LEN: usize = 4 + 4 + 2 + 2 + 1 + 1 + 4 + 4 + 4 + 4 + 2 + 2;

/// Encode one v9 export packet carrying the template FlowSet (when
/// `with_template`) and the given records as one data FlowSet.
pub fn encode_v9(
    records: &[FlowRecord],
    export_ts: Ts,
    sequence: u32,
    source_id: u32,
    with_template: bool,
) -> Vec<u8> {
    let mut out = Vec::new();
    // Header: version, count (FlowSets' record count), sysUptime, unix
    // secs, sequence, source id.
    let count = records.len() as u16 + u16::from(with_template);
    out.extend_from_slice(&9u16.to_be_bytes());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&((export_ts.micros() / 1000) as u32).to_be_bytes());
    out.extend_from_slice(&(export_ts.secs() as u32).to_be_bytes());
    out.extend_from_slice(&sequence.to_be_bytes());
    out.extend_from_slice(&source_id.to_be_bytes());
    if with_template {
        // Template FlowSet: id 0.
        let len = 4 + 4 + FIELDS.len() * 4;
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&(len as u16).to_be_bytes());
        out.extend_from_slice(&TEMPLATE_ID.to_be_bytes());
        out.extend_from_slice(&(FIELDS.len() as u16).to_be_bytes());
        for (t, l) in FIELDS {
            out.extend_from_slice(&t.to_be_bytes());
            out.extend_from_slice(&l.to_be_bytes());
        }
    }
    if !records.is_empty() {
        let body = records.len() * RECORD_LEN;
        let padding = (4 - (4 + body) % 4) % 4;
        out.extend_from_slice(&TEMPLATE_ID.to_be_bytes());
        out.extend_from_slice(&((4 + body + padding) as u16).to_be_bytes());
        for r in records {
            out.extend_from_slice(&r.key.src.octets());
            out.extend_from_slice(&r.key.dst.octets());
            out.extend_from_slice(&r.key.src_port.to_be_bytes());
            out.extend_from_slice(&r.key.dst_port.to_be_bytes());
            out.push(r.key.protocol);
            out.push(r.tcp_flags);
            out.extend_from_slice(&(r.packets as u32).to_be_bytes());
            out.extend_from_slice(&(r.bytes as u32).to_be_bytes());
            out.extend_from_slice(&((r.first.micros() / 1000) as u32).to_be_bytes());
            out.extend_from_slice(&((r.last.micros() / 1000) as u32).to_be_bytes());
            let (input, output) = match r.direction {
                Direction::Ingress => (1u16, 2u16),
                Direction::Egress => (2u16, 1u16),
            };
            out.extend_from_slice(&input.to_be_bytes());
            out.extend_from_slice(&output.to_be_bytes());
        }
        out.resize(out.len() + padding, 0);
    }
    out
}

/// What a [`V9Decoder`] has counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct V9Stats {
    /// Data FlowSets skipped because their template was not known yet.
    pub sets_undecodable: u64,
    /// Templates learned.
    pub templates: u64,
}

/// A stateful v9 decoder: learns templates from the stream.
#[derive(Debug, Default)]
pub struct V9Decoder {
    /// template id -> (field type, length) list.
    templates: HashMap<u16, Vec<(u16, u16)>>,
    sets_undecodable: u64,
}

impl V9Decoder {
    /// What this decoder has counted so far.
    pub fn stats(&self) -> V9Stats {
        V9Stats { sets_undecodable: self.sets_undecodable, templates: self.templates.len() as u64 }
    }

    /// Decode one export packet, learning templates and returning the
    /// records of data FlowSets whose template is known. `router` is
    /// attached to the returned records (v9 carries it out of band via
    /// source id; we map it directly).
    pub fn decode(&mut self, data: &[u8], router: u8) -> Result<Vec<FlowRecord>> {
        if data.len() < 20 {
            return Err(NetError::Truncated { layer: "netflow-v9", needed: 20, got: data.len() });
        }
        let version = u16::from_be_bytes([data[0], data[1]]);
        if version != 9 {
            return Err(NetError::Unsupported {
                layer: "netflow-v9",
                field: "version",
                value: u64::from(version),
            });
        }
        let mut records = Vec::new();
        let mut off = 20;
        while off + 4 <= data.len() {
            let set_id = u16::from_be_bytes([data[off], data[off + 1]]);
            let set_len = usize::from(u16::from_be_bytes([data[off + 2], data[off + 3]]));
            if set_len < 4 || off + set_len > data.len() {
                return Err(NetError::BadLength { layer: "netflow-v9", value: set_len });
            }
            let body = &data[off + 4..off + set_len];
            match set_id {
                0 => self.learn_templates(body)?,
                1 => {} // options templates: skipped
                id if id >= 256 => {
                    if let Some(fields) = self.templates.get(&id) {
                        records.extend(self.decode_data(body, fields, router)?);
                    } else {
                        self.sets_undecodable += 1;
                    }
                }
                _ => {}
            }
            off += set_len;
        }
        Ok(records)
    }

    fn learn_templates(&mut self, mut body: &[u8]) -> Result<()> {
        while body.len() >= 4 {
            let id = u16::from_be_bytes([body[0], body[1]]);
            let n = usize::from(u16::from_be_bytes([body[2], body[3]]));
            if body.len() < 4 + n * 4 {
                return Err(NetError::Truncated {
                    layer: "netflow-v9-template",
                    needed: 4 + n * 4,
                    got: body.len(),
                });
            }
            let fields: Vec<(u16, u16)> = (0..n)
                .map(|i| {
                    let b = &body[4 + i * 4..];
                    (u16::from_be_bytes([b[0], b[1]]), u16::from_be_bytes([b[2], b[3]]))
                })
                .collect();
            if id >= 256 {
                self.templates.insert(id, fields);
            }
            body = &body[4 + n * 4..];
        }
        Ok(())
    }

    fn decode_data(
        &self,
        body: &[u8],
        fields: &[(u16, u16)],
        router: u8,
    ) -> Result<Vec<FlowRecord>> {
        let rec_len: usize = fields.iter().map(|&(_, l)| usize::from(l)).sum();
        if rec_len == 0 {
            return Err(NetError::BadLength { layer: "netflow-v9-data", value: 0 });
        }
        let mut out = Vec::new();
        let mut off = 0;
        // Trailing bytes shorter than one record are padding.
        while off + rec_len <= body.len() {
            let mut src = Ipv4Addr4::UNSPECIFIED;
            let mut dst = Ipv4Addr4::UNSPECIFIED;
            let (mut sp, mut dp, mut proto, mut flags) = (0u16, 0u16, 0u8, 0u8);
            let (mut pkts, mut bytes, mut first, mut last) = (0u64, 0u64, 0u64, 0u64);
            let mut input = 0u16;
            let mut f_off = off;
            for &(ftype, flen) in fields {
                let v = &body[f_off..f_off + usize::from(flen)];
                let as_u64 = v.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
                match ftype {
                    8 if flen == 4 => src = Ipv4Addr4::from_octets([v[0], v[1], v[2], v[3]]),
                    12 if flen == 4 => dst = Ipv4Addr4::from_octets([v[0], v[1], v[2], v[3]]),
                    7 => sp = as_u64 as u16,
                    11 => dp = as_u64 as u16,
                    4 => proto = as_u64 as u8,
                    6 => flags = as_u64 as u8,
                    2 => pkts = as_u64,
                    1 => bytes = as_u64,
                    // sysUptime ms is a 32-bit field; a template claiming a
                    // wider one would overflow `Ts::from_millis`.
                    22 if flen <= 4 => first = as_u64,
                    21 if flen <= 4 => last = as_u64,
                    10 => input = as_u64 as u16,
                    _ => {} // unknown field: skipped (length still consumed)
                }
                f_off += usize::from(flen);
            }
            out.push(FlowRecord {
                key: FlowKey { src, dst, src_port: sp, dst_port: dp, protocol: proto },
                router,
                direction: if input == 1 { Direction::Ingress } else { Direction::Egress },
                first: Ts::from_millis(first),
                last: Ts::from_millis(last),
                packets: pkts,
                bytes,
                tcp_flags: flags,
            });
            off += rec_len;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr4::new(100, 64, 0, n),
                dst: Ipv4Addr4::new(10, 0, 0, 1),
                src_port: 40_000 + u16::from(n),
                dst_port: 6379,
                protocol: 6,
            },
            router: 2,
            direction: if n.is_multiple_of(2) { Direction::Ingress } else { Direction::Egress },
            first: Ts::from_millis(10_000 + u64::from(n)),
            last: Ts::from_millis(20_000 + u64::from(n)),
            packets: 7 + u64::from(n),
            bytes: 280 + u64::from(n),
            tcp_flags: 0x02,
        }
    }

    #[test]
    fn header_length_boundary_is_exact() {
        let mut dec = V9Decoder::default();
        // 19 bytes is one short of the v9 export header.
        let short = [0u8; 19];
        match dec.decode(&short, 0) {
            Err(NetError::Truncated { needed: 20, got: 19, .. }) => {}
            other => panic!("19-byte packet must be Truncated, got {other:?}"),
        }
        // Exactly 20 bytes with a valid version is a legal, empty export.
        let mut bare = [0u8; 20];
        bare[1] = 9;
        assert_eq!(dec.decode(&bare, 0).unwrap(), vec![]);
    }

    #[test]
    fn roundtrip_with_template() {
        // An odd count of 34-byte records pads the data FlowSet by two
        // bytes, which are ignored; an even count needs none.
        for n in [1, 2, 5] {
            let records: Vec<_> = (0..n).map(rec).collect();
            let wire = encode_v9(&records, Ts::from_secs(50), 1, 2, true);
            let mut dec = V9Decoder::default();
            let got = dec.decode(&wire, 2).unwrap();
            assert_eq!(dec.stats().templates, 1);
            assert_eq!(got, records);
        }
    }

    #[test]
    fn template_only_packet() {
        let wire = encode_v9(&[], Ts::from_secs(1), 0, 7, true);
        let mut dec = V9Decoder::default();
        assert!(dec.decode(&wire, 1).unwrap().is_empty());
        assert_eq!(dec.stats().templates, 1);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = encode_v9(&[rec(0)], Ts::from_secs(1), 0, 1, true);
        wire[1] = 5;
        let mut dec = V9Decoder::default();
        assert!(matches!(dec.decode(&wire, 1), Err(NetError::Unsupported { .. })));
    }
}
