//! NetFlow v9 export format (RFC 3954), template-based.
//!
//! The paper's collectors speak NetFlow; this module is the crate's one
//! wire format, the template-driven v9 that current router software
//! exports. We implement the subset a flow
//! collector for this pipeline needs: one template FlowSet describing
//! our record layout, data FlowSets referencing it, and a decoder that
//! learns templates from the stream (as real collectors must — data
//! arriving before its template is undecodable and reported as such).
//!
//! Data FlowSets that arrive before their template are *buffered* in a
//! bounded FIFO (`DEFAULT_PENDING_CAP` sets) and replayed the moment
//! the template is learned, so a reordered template packet costs
//! nothing. When the buffer is full the oldest set is evicted and
//! counted in `evicted_sets` — bounded memory, accounted loss.
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
use std::collections::{HashMap, VecDeque};

/// The template id we export under (ids < 256 are reserved).
pub(crate) const TEMPLATE_ID: u16 = 260;

/// Default bound on data FlowSets buffered while waiting for their
/// template.
pub(crate) const DEFAULT_PENDING_CAP: usize = 64;

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

/// A stateful v9 decoder: learns templates from the stream.
#[derive(Debug)]
pub struct V9Decoder {
    /// template id -> (field type, length) list.
    templates: HashMap<u16, Vec<(u16, u16)>>,
    /// Data FlowSets waiting for their template: (template id, body,
    /// router). Bounded FIFO.
    pending: VecDeque<(u16, Vec<u8>, u8)>,
    pending_cap: usize,
    /// Data FlowSets seen before their template arrived (whether later
    /// replayed, evicted, or still pending).
    undecodable_sets: u64,
    /// Pending sets evicted because the buffer was full: permanent loss.
    evicted_sets: u64,
    /// Pending sets successfully decoded once their template arrived.
    replayed_sets: u64,
    /// Telemetry (inert until [`V9Decoder::set_recorder`]).
    m_records: ah_obs::Counter,
    m_pending_hwm: ah_obs::Gauge,
    m_templates: ah_obs::Gauge,
    m_evicted: ah_obs::Counter,
}

impl Default for V9Decoder {
    fn default() -> V9Decoder {
        V9Decoder::with_pending_cap(DEFAULT_PENDING_CAP)
    }
}

impl V9Decoder {
    /// A decoder whose data-before-template buffer holds at most `cap`
    /// FlowSets.
    pub(crate) fn with_pending_cap(cap: usize) -> V9Decoder {
        V9Decoder {
            templates: HashMap::new(),
            pending: VecDeque::new(),
            pending_cap: cap,
            undecodable_sets: 0,
            evicted_sets: 0,
            replayed_sets: 0,
            m_records: ah_obs::Counter::default(),
            m_pending_hwm: ah_obs::Gauge::default(),
            m_templates: ah_obs::Gauge::default(),
            m_evicted: ah_obs::Counter::default(),
        }
    }

    /// Attach live telemetry instruments (`ah_flow_v9_*`).
    /// Observation-only: decoding semantics are unchanged.
    pub fn set_recorder(&mut self, rec: &ah_obs::Recorder) {
        self.m_records = rec.counter("ah_flow_v9_records_decoded_total");
        self.m_pending_hwm = rec.gauge("ah_flow_v9_pending_sets_hwm");
        self.m_templates = rec.gauge("ah_flow_v9_templates_learned");
        self.m_evicted = rec.counter("ah_flow_v9_pending_evicted_total");
    }

    /// Number of templates learned.
    #[cfg(test)]
    pub(crate) fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Data FlowSets currently buffered awaiting a template.
    #[cfg(test)]
    pub(crate) fn pending_sets(&self) -> usize {
        self.pending.len()
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
                0 => {
                    self.learn_templates(body)?;
                    self.replay_pending(&mut records)?;
                }
                1 => {} // options templates: skipped
                id if id >= 256 => {
                    if let Some(fields) = self.templates.get(&id).cloned() {
                        records.extend(self.decode_data(body, &fields, router)?);
                    } else {
                        self.undecodable_sets += 1;
                        self.buffer_pending(id, body.to_vec(), router);
                    }
                }
                _ => {}
            }
            off += set_len;
        }
        self.m_records.add(records.len() as u64);
        self.m_pending_hwm.set_max(self.pending.len() as i64);
        self.m_templates.set(self.templates.len() as i64);
        Ok(records)
    }

    /// Buffer a data FlowSet until its template shows up, evicting the
    /// oldest pending set when the bounded buffer is full.
    fn buffer_pending(&mut self, template: u16, body: Vec<u8>, router: u8) {
        if self.pending_cap == 0 {
            self.evicted_sets += 1;
            self.m_evicted.inc();
            return;
        }
        if self.pending.len() >= self.pending_cap {
            self.pending.pop_front();
            self.evicted_sets += 1;
            self.m_evicted.inc();
        }
        self.pending.push_back((template, body, router));
    }

    /// Decode every pending set whose template is now known, in arrival
    /// order, appending the recovered records.
    fn replay_pending(&mut self, records: &mut Vec<FlowRecord>) -> Result<()> {
        let mut i = 0;
        while i < self.pending.len() {
            let template = self.pending[i].0;
            let Some(fields) = self.templates.get(&template).cloned() else {
                i += 1;
                continue;
            };
            if let Some((_, body, router)) = self.pending.remove(i) {
                records.extend(self.decode_data(&body, &fields, router)?);
                self.replayed_sets += 1;
            }
        }
        Ok(())
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
                    22 => first = as_u64,
                    21 => last = as_u64,
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
        let records: Vec<_> = (0..5).map(rec).collect();
        let wire = encode_v9(&records, Ts::from_secs(50), 1, 2, true);
        let mut dec = V9Decoder::default();
        let got = dec.decode(&wire, 2).unwrap();
        assert_eq!(dec.template_count(), 1);
        assert_eq!(got, records);
        assert_eq!(dec.undecodable_sets, 0);
    }

    #[test]
    fn data_before_template_is_buffered_then_replayed() {
        let records: Vec<_> = (0..3).map(rec).collect();
        let data_only = encode_v9(&records, Ts::from_secs(1), 1, 2, false);
        let with_tpl = encode_v9(&records, Ts::from_secs(2), 2, 2, true);
        let mut dec = V9Decoder::default();
        // First packet: no template yet — buffered, nothing returned.
        let got = dec.decode(&data_only, 2).unwrap();
        assert!(got.is_empty());
        assert_eq!(dec.undecodable_sets, 1);
        assert_eq!(dec.pending_sets(), 1);
        // Template arrives: the buffered set is replayed ahead of the
        // packet's own records — nothing was lost to the reordering.
        let got = dec.decode(&with_tpl, 2).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(&got[..3], &records[..]);
        assert_eq!(&got[3..], &records[..]);
        assert_eq!(dec.replayed_sets, 1);
        assert_eq!(dec.pending_sets(), 0);
        assert_eq!(dec.evicted_sets, 0);
        // And later data-only packets decode directly.
        let got = dec.decode(&data_only, 2).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn pending_buffer_evicts_oldest_beyond_cap() {
        let mut dec = V9Decoder::with_pending_cap(2);
        let packets: Vec<Vec<u8>> = (0..3)
            .map(|n| encode_v9(&[rec(n)], Ts::from_secs(u64::from(n) + 1), u32::from(n), 2, false))
            .collect();
        for p in &packets {
            assert!(dec.decode(p, 2).unwrap().is_empty());
        }
        assert_eq!(dec.undecodable_sets, 3);
        assert_eq!(dec.pending_sets(), 2);
        assert_eq!(dec.evicted_sets, 1, "oldest set evicted at the cap");
        // Template arrives alone: only the two retained sets replay.
        let tpl_only = encode_v9(&[], Ts::from_secs(9), 9, 2, true);
        let got = dec.decode(&tpl_only, 2).unwrap();
        assert_eq!(got, vec![rec(1), rec(2)]);
        assert_eq!(dec.replayed_sets, 2);
        assert_eq!(dec.pending_sets(), 0);
        // Ledger: every undecodable set was either replayed or evicted.
        assert_eq!(dec.undecodable_sets, dec.replayed_sets + dec.evicted_sets);
    }

    #[test]
    fn zero_pending_cap_discards_immediately() {
        let mut dec = V9Decoder::with_pending_cap(0);
        let data_only = encode_v9(&[rec(0)], Ts::from_secs(1), 1, 2, false);
        assert!(dec.decode(&data_only, 2).unwrap().is_empty());
        assert_eq!(dec.pending_sets(), 0);
        assert_eq!(dec.evicted_sets, 1);
    }

    #[test]
    fn template_only_packet() {
        let wire = encode_v9(&[], Ts::from_secs(1), 0, 7, true);
        let mut dec = V9Decoder::default();
        assert!(dec.decode(&wire, 1).unwrap().is_empty());
        assert_eq!(dec.template_count(), 1);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = encode_v9(&[rec(0)], Ts::from_secs(1), 0, 1, true);
        wire[1] = 5;
        let mut dec = V9Decoder::default();
        assert!(matches!(dec.decode(&wire, 1), Err(NetError::Unsupported { .. })));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let wire = encode_v9(&(0..4).map(rec).collect::<Vec<_>>(), Ts::from_secs(1), 0, 1, true);
        let mut dec = V9Decoder::default();
        for cut in [0usize, 10, 21, wire.len() - 3] {
            let _ = dec.decode(&wire[..cut], 1); // may Err, must not panic
        }
    }

    #[test]
    fn padding_is_ignored() {
        // One record: data FlowSet body = 34 bytes -> padded to 36.
        let records = vec![rec(1)];
        let wire = encode_v9(&records, Ts::from_secs(1), 0, 1, true);
        let mut dec = V9Decoder::default();
        let got = dec.decode(&wire, 2).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], records[0]);
    }
}
