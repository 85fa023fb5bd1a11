//! Property-based tests for the flow substrate, and the NetFlow v9
//! decoder's totality on hostile bytes (one of the three decoder gates
//! `scripts/ci.sh` runs by name, with `ah-net`'s and `ah-wal`'s).

use ah_flow::cache::FlowCache;
use ah_flow::record::FlowRecord;
use ah_flow::router::Direction;
use ah_flow::sampler::Sampler;
use ah_flow::v9::{encode_v9, V9Decoder};
use ah_net::error::NetError;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::{Dur, Ts};
use proptest::prelude::*;

/// `n` records as router 1's cache exports them, on whole milliseconds
/// so they survive the v9 wire format exactly.
fn recs(n: u8) -> Vec<FlowRecord> {
    let mut cache = FlowCache::new(1);
    for i in 0..n {
        let (src, dst) = (Ipv4Addr4::new(100, 64, 0, i), Ipv4Addr4::new(10, 0, 0, 1));
        let pkt = PacketMeta::tcp_syn(Ts::from_millis(u64::from(i)), src, dst, 40_000, 6379);
        cache.observe(&pkt, Direction::Ingress);
    }
    let mut out = cache.flush();
    out.sort();
    out
}

/// The data FlowSets `dec` skipped for want of their template.
fn undecodable(dec: &V9Decoder) -> u64 {
    dec.stats().sets_undecodable
}

proptest! {
    /// Arbitrary bytes, bare or behind a valid export header, fed twice
    /// so whatever templates the first pass learned meet the second:
    /// `decode` returns, and never with more records than bytes.
    #[test]
    fn v9_decoder_is_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..300),
        framed in any::<bool>(),
    ) {
        let mut wire = if framed { encode_v9(&[], Ts::ZERO, 0, 1, false) } else { Vec::new() };
        wire.extend_from_slice(&raw);
        let mut dec = V9Decoder::default();
        for _ in 0..2 {
            prop_assert!(dec.decode(&wire, 1).map_or(0, |got| got.len()) <= wire.len());
        }
    }

    /// An honestly framed template of arbitrary layout (unknown field
    /// types, zero and odd lengths, wide timestamps) over an arbitrary
    /// data body: exactly as many records as whole record lengths fit,
    /// and a zero-length record is an error, not a loop.
    #[test]
    fn v9_decoder_is_total_on_arbitrary_templates(
        fields in proptest::collection::vec((0u16..24, 0u16..10), 0..8),
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut wire = encode_v9(&[], Ts::ZERO, 0, 1, false);
        let words = |ws: &[u16]| ws.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>();
        wire.extend(words(&[0, 8 + 4 * fields.len() as u16, 256, fields.len() as u16]));
        for (ftype, flen) in &fields {
            wire.extend(words(&[*ftype, *flen]));
        }
        wire.extend(words(&[256, 4 + body.len() as u16]));
        wire.extend_from_slice(&body);
        let rec_len: usize = fields.iter().map(|&(_, l)| usize::from(l)).sum();
        match V9Decoder::default().decode(&wire, 1) {
            Ok(got) => prop_assert_eq!(Some(got.len()), body.len().checked_div(rec_len)),
            Err(e) => {
                let zero_len = NetError::BadLength { layer: "netflow-v9-data", value: 0 };
                prop_assert_eq!((e, rec_len), (zero_len, 0));
            }
        }
    }

    /// One byte changed in, or any suffix cut from, either packet of a
    /// valid two-packet export (template in packet 0, as every exporter
    /// here sends it): no panic, no more records than bytes, at most one
    /// undecodable count per data FlowSet. A damaged template may poison
    /// the packet after it; an intact packet 0 decodes to what was sent.
    #[test]
    fn v9_decoder_is_total_on_mutated_exports(
        sent in (1u8..6, 1u8..6),
        second in any::<bool>(),
        truncate in any::<bool>(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut packets = [
            encode_v9(&recs(sent.0), Ts::from_secs(1), 0, 1, true),
            encode_v9(&recs(sent.1), Ts::from_secs(2), 1, 1, false),
        ];
        let victim = &mut packets[usize::from(second)];
        let at = at.index(victim.len());
        if truncate {
            victim.truncate(at);
        } else {
            victim[at] ^= xor;
        }
        let mut dec = V9Decoder::default();
        for (i, wire) in packets.iter().enumerate() {
            match dec.decode(wire, 1) {
                Ok(got) if i == 0 && second => prop_assert_eq!(got, recs(sent.0)),
                Ok(got) => prop_assert!(got.len() <= wire.len()),
                Err(e) => prop_assert!(i == 1 || !second, "intact packet 0 failed: {:?}", e),
            }
        }
        prop_assert!(undecodable(&dec) <= 2);
    }

    /// A data FlowSet that arrives before its template is skipped and
    /// counted once: nothing is held back for it, the template's own
    /// packet returns only its own records, and later data decodes.
    #[test]
    fn v9_data_before_template_is_counted_once(n in 1u8..40) {
        let records = recs(n);
        let data_only = encode_v9(&records, Ts::from_secs(1), 0, 1, false);
        let with_template = encode_v9(&records, Ts::from_secs(2), 1, 1, true);
        let mut dec = V9Decoder::default();
        prop_assert_eq!(dec.decode(&data_only, 1), Ok(vec![]));
        prop_assert_eq!(undecodable(&dec), 1);
        prop_assert_eq!(dec.decode(&with_template, 1), Ok(records.clone()));
        prop_assert_eq!(dec.decode(&data_only, 1), Ok(records));
        prop_assert_eq!(undecodable(&dec), 1);
    }

    /// The systematic sampler's estimate is never off by more than one
    /// sampling interval, for any rate, phase and stream length.
    #[test]
    fn sampler_estimate_error_is_bounded(
        rate in 1u64..5000,
        phase in any::<u64>(),
        n in 0u64..100_000,
    ) {
        let mut s = Sampler::new(rate, phase);
        let picked = (0..n).filter(|_| s.sample(rate)).count() as u64;
        let est = picked * rate;
        prop_assert!(est.abs_diff(n) < rate, "rate {} n {} est {}", rate, n, est);
    }

    /// The flow cache conserves packets and bytes across arbitrary
    /// interleavings and timeout-driven chops.
    #[test]
    fn cache_conserves_traffic(
        steps in proptest::collection::vec((0u64..60_000, 0u8..6, 0u8..4), 1..400),
    ) {
        let mut cache = FlowCache::new(1);
        let mut t = Ts::ZERO;
        let mut packets_in = 0u64;
        let mut bytes_in = 0u64;
        for (gap_ms, src, port_sel) in steps {
            t += Dur::from_millis(gap_ms);
            let pkt = PacketMeta::tcp_syn(
                t,
                Ipv4Addr4::new(100, 0, 0, src),
                Ipv4Addr4::new(10, 0, 0, 1),
                40_000,
                [22u16, 80, 443, 6379][port_sel as usize],
            );
            packets_in += 1;
            bytes_in += u64::from(pkt.wire_len);
            cache.observe(&pkt, Direction::Ingress);
        }
        let records = cache.flush();
        prop_assert_eq!(records.iter().map(|r| r.packets).sum::<u64>(), packets_in);
        prop_assert_eq!(records.iter().map(|r| r.bytes).sum::<u64>(), bytes_in);
        for r in &records {
            prop_assert!(r.first <= r.last);
            prop_assert!(r.packets >= 1);
        }
    }
}
