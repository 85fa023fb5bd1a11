//! Property-based tests for the packet substrate.

use ah_net::checksum;
use ah_net::fingerprint::{self, Tool};
use ah_net::icmp::IcmpMessage;
use ah_net::ipv4::{Ipv4Addr4, Ipv4Header};
use ah_net::packet::{PacketMeta, Transport};
use ah_net::pcap::{PcapReader, PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_RAW};
use ah_net::prefix::{Prefix, PrefixMap, PrefixSet};
use ah_net::tcp::{TcpFlags, TcpHeader};
use ah_net::time::Ts;
use ah_net::udp::UdpHeader;
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr4> {
    any::<u32>().prop_map(Ipv4Addr4::from_u32)
}

proptest! {
    #[test]
    fn checksum_verifies_any_buffer(mut data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Appending a correct checksum always verifies — provided the
        // checksum field is 16-bit aligned, as in every real protocol
        // (odd-length payloads are zero-padded before the field).
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let c = checksum::checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&c.to_be_bytes());
        prop_assert!(checksum::verify(&with));
    }

    #[test]
    fn checksum_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        split in any::<prop::sample::Index>(),
    ) {
        let at = split.index(data.len());
        let mut s = checksum::Sum16::new();
        s.add(&data[..at]);
        s.add(&data[at..]);
        prop_assert_eq!(s.finish(), checksum::checksum(&data));
    }

    #[test]
    fn ipv4_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        ident in any::<u16>(),
        ttl in any::<u8>(),
        dscp in any::<u8>(),
        proto in any::<u8>(),
        payload_len in 0usize..64,
        df in any::<bool>(),
    ) {
        let mut h = Ipv4Header::probe(src, dst, proto, payload_len);
        h.ident = ident;
        h.ttl = ttl;
        h.dscp_ecn = dscp;
        h.dont_frag = df;
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0x5a);
        let (parsed, payload) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(payload.len(), payload_len);
    }

    #[test]
    fn tcp_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let h = TcpHeader {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags(flags), window, urgent: 0, options: Vec::new(),
        };
        let mut buf = Vec::new();
        h.emit(src, dst, &payload, &mut buf);
        let (parsed, got) = TcpHeader::parse(&buf, Some((src, dst))).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn udp_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let h = UdpHeader::new(sp, dp, payload.len());
        let mut buf = Vec::new();
        h.emit(src, dst, &payload, &mut buf);
        let (parsed, got) = UdpHeader::parse(&buf, Some((src, dst))).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn icmp_roundtrip(
        t in any::<u8>(),
        code in any::<u8>(),
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let m = IcmpMessage { icmp_type: t, code, ident, seq, payload };
        let mut buf = Vec::new();
        m.emit(&mut buf);
        prop_assert_eq!(IcmpMessage::parse(&buf).unwrap(), m);
    }

    #[test]
    fn packet_meta_wire_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        ip_id in any::<u16>(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        kind in 0u8..3,
        ts in any::<u32>(),
    ) {
        let ts = Ts::from_micros(u64::from(ts));
        let mut m = match kind {
            0 => {
                let mut m = PacketMeta::tcp_syn(ts, src, dst, sp, dp);
                if let Transport::Tcp { seq: ref mut s, .. } = m.transport { *s = seq; }
                m
            }
            1 => PacketMeta::udp_probe(ts, src, dst, sp, dp),
            _ => PacketMeta::icmp_echo(ts, src, dst),
        };
        m.ip_id = ip_id;
        let parsed = PacketMeta::parse_ip(&m.to_bytes(), ts).unwrap();
        prop_assert_eq!(parsed, m);
    }

    #[test]
    fn truncated_packets_never_panic(
        src in arb_addr(),
        dst in arb_addr(),
        cut in any::<prop::sample::Index>(),
    ) {
        let m = PacketMeta::tcp_syn(Ts::ZERO, src, dst, 40000, 443);
        let bytes = m.to_bytes();
        let at = cut.index(bytes.len());
        // Must return an error or a valid packet, never panic.
        let _ = PacketMeta::parse_ip(&bytes[..at], Ts::ZERO);
    }

    #[test]
    fn corrupted_packets_never_panic(
        src in arb_addr(),
        dst in arb_addr(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let m = PacketMeta::udp_probe(Ts::ZERO, src, dst, 53, 53);
        let mut bytes = m.to_bytes();
        let at = idx.index(bytes.len());
        bytes[at] ^= 1 << bit;
        let _ = PacketMeta::parse_ip(&bytes, Ts::ZERO);
    }

    #[test]
    fn prefix_set_matches_naive_model(
        prefixes in proptest::collection::vec((any::<u32>(), 8u8..=32), 1..20),
        probes in proptest::collection::vec(any::<u32>(), 50),
    ) {
        let prefixes: Vec<Prefix> = prefixes
            .into_iter()
            .map(|(a, l)| Prefix::new(Ipv4Addr4(a), l).unwrap())
            .collect();
        let set = PrefixSet::from_prefixes(prefixes.clone());
        for probe in probes {
            let addr = Ipv4Addr4(probe);
            let naive = prefixes.iter().any(|p| p.contains(addr));
            prop_assert_eq!(set.contains(addr), naive, "addr {}", addr);
        }
        // Members of every prefix are always contained.
        for p in &prefixes {
            prop_assert!(set.contains(p.first()));
            prop_assert!(set.contains(p.last()));
        }
    }

    /// The range table against a naive longest match, at the edges a
    /// range table can get wrong: every entry's first and last address and
    /// the one after it, both ends of the space, every prefix length,
    /// nested prefixes, and repeated ones (the later entry wins).
    #[test]
    fn prefix_map_matches_naive_lpm(
        entries in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<u8>()), 1..=64),
        probes in proptest::collection::vec(any::<u32>(), 30),
    ) {
        let mut built: Vec<(Prefix, usize)> = Vec::new();
        for (i, &(a, l, reuse)) in entries.iter().enumerate() {
            // A quarter repeat an earlier prefix; a quarter sit on an
            // earlier prefix's network, so they nest in it or around it.
            let earlier = built.get(usize::from(reuse) % i.max(1)).map(|&(p, _)| p);
            let p = match (reuse % 4, earlier) {
                (0, Some(q)) => q,
                (1, Some(q)) => Prefix::new(q.first(), l).unwrap(),
                _ => Prefix::new(Ipv4Addr4(a), l).unwrap(),
            };
            built.push((p, i));
        }
        let map: PrefixMap<usize> = built.iter().copied().collect();
        let edges: Vec<u32> = built
            .iter()
            .flat_map(|(p, _)| {
                let last = p.last().to_u32();
                [p.first().to_u32(), last, last.wrapping_add(1)]
            })
            .collect();
        for probe in probes.into_iter().chain(edges).chain([0, u32::MAX]) {
            let addr = Ipv4Addr4(probe);
            let expect = built
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|&&(p, i)| (p.len, i))
                .map(|&(_, v)| v);
            prop_assert_eq!(map.lookup(addr).copied(), expect, "addr {}", addr);
        }
    }

    #[test]
    fn pcap_roundtrip_any_payload(
        packets in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..20,
        ),
    ) {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        for (ts, data) in &packets {
            w.write_packet(Ts::from_micros(u64::from(*ts)), data).unwrap();
        }
        w.finish().unwrap();
        let got: Vec<_> = PcapReader::new(&buf[..]).unwrap().records().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got.len(), packets.len());
        for (rec, (ts, data)) in got.iter().zip(&packets) {
            prop_assert_eq!(rec.ts, Ts::from_micros(u64::from(*ts)));
            prop_assert_eq!(&rec.data, data);
        }
    }

    #[test]
    fn masscan_fingerprint_self_consistent(
        src in arb_addr(),
        dst in arb_addr(),
        dp in any::<u16>(),
        seq in any::<u32>(),
    ) {
        // A generator that stamps the masscan cookie is always classified
        // Masscan (unless it collides with ZMap's constant or Mirai's rule,
        // which are checked first).
        let mut m = PacketMeta::tcp_syn(Ts::ZERO, src, dst, 61000, dp);
        if let Transport::Tcp { seq: ref mut s, .. } = m.transport { *s = seq; }
        m.ip_id = fingerprint::masscan_ip_id(dst, dp, seq);
        let tool = fingerprint::classify(&m);
        if m.ip_id == fingerprint::ZMAP_IP_ID {
            prop_assert_eq!(tool, Tool::ZMap);
        } else if seq == dst.to_u32() {
            prop_assert_eq!(tool, Tool::Mirai);
        } else {
            prop_assert_eq!(tool, Tool::Masscan);
        }
    }
}

proptest! {
    /// Truncating a valid pcap stream of real packets at ANY offset never
    /// panics the reader or the packet parser, and the reader keeps its
    /// contract: the intact prefix, then exactly one `Err` unless the cut
    /// fell on a record boundary — a cut inside a record *header* is not
    /// a clean end of file. Mirrors what the fault injector's `truncate`
    /// category does to capture files.
    #[test]
    fn pcap_stream_truncation_is_total(
        srcs in proptest::collection::vec(any::<u32>(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        const GLOBAL: usize = 24;
        const RECORD: usize = 16 + 40; // record header + one bare TCP SYN
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            let ts = Ts::from_micros(i as u64 * 1000);
            let m = PacketMeta::tcp_syn(ts, Ipv4Addr4(*s), Ipv4Addr4(!*s), 40000, 443);
            w.write_packet(ts, &m.to_bytes()).unwrap();
        }
        w.finish().unwrap();
        let at = cut.index(buf.len() + 1);
        if let Ok(r) = PcapReader::new(&buf[..at]) {
            let (intact, partial) = ((at - GLOBAL) / RECORD, (at - GLOBAL) % RECORD);
            let items: Vec<_> = r.records().collect();
            prop_assert_eq!(items.len(), intact + usize::from(partial != 0), "cut at {}", at);
            for (i, rec) in items.iter().enumerate() {
                prop_assert_eq!(rec.is_ok(), i < intact, "record {} of a stream cut at {}", i, at);
                if let Ok(rec) = rec {
                    prop_assert!(PacketMeta::parse_ip(&rec.data, rec.ts).is_ok());
                }
            }
        }
    }

    /// Records whose headers lie about their length (so the reader loses
    /// step and parses arbitrary body bytes as headers), behind a global
    /// header of either byte order claiming any snaplen: the reader
    /// terminates, hands back no more bytes than it was given, and says
    /// nothing after an `Err`.
    #[test]
    fn pcap_reader_is_total_on_arbitrary_records(
        big_endian in any::<bool>(),
        snaplen in any::<u32>(),
        records in proptest::collection::vec(
            (0u32..80, proptest::collection::vec(any::<u8>(), 0..64)),
            0..6,
        ),
    ) {
        let word = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut buf = word(0xa1b2_c3d4).to_vec();
        buf.extend_from_slice(&[0u8; 12]); // version, thiszone, sigfigs: unread
        buf.extend_from_slice(&word(snaplen));
        buf.extend_from_slice(&word(LINKTYPE_RAW));
        for (claimed, body) in &records {
            buf.extend_from_slice(&[0u8; 8]); // timestamp
            buf.extend_from_slice(&word(*claimed));
            buf.extend_from_slice(&word(*claimed)); // length on the wire: unread
            buf.extend_from_slice(body);
        }
        let items: Vec<_> = PcapReader::new(&buf[..]).unwrap().records().collect();
        let good: Vec<_> = items.iter().map_while(|r| r.as_ref().ok()).collect();
        prop_assert!(good.len() + 1 >= items.len(), "nothing follows an error");
        prop_assert!(good.iter().map(|r| 16 + r.data.len()).sum::<usize>() <= buf.len() - 24);
    }

    /// Flipping any single bit of a valid pcap stream never panics the
    /// reader or the packet parser.
    #[test]
    fn pcap_stream_bitflip_is_total(
        srcs in proptest::collection::vec(any::<u32>(), 1..8),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            let ts = Ts::from_micros(i as u64 * 1000);
            let m = PacketMeta::udp_probe(ts, Ipv4Addr4(*s), Ipv4Addr4(!*s), 53, 53);
            w.write_packet(ts, &m.to_bytes()).unwrap();
        }
        w.finish().unwrap();
        let at = idx.index(buf.len());
        buf[at] ^= 1 << bit;
        if let Ok(r) = PcapReader::new(&buf[..]) {
            for (n, rec) in r.records().enumerate() {
                // A flipped length field may yield bogus records, but the
                // reader must stay bounded by the stream it was given.
                prop_assert!(n <= srcs.len() + 1, "reader must terminate");
                let Ok(rec) = rec else { break };
                let _ = PacketMeta::parse_ip(&rec.data, rec.ts);
            }
        }
    }
}
