//! Property-based tests for the telescope substrate.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, ScanClass};
use ah_net::time::{Dur, Ts};
use ah_telescope::dstset::DstSet;
use ah_telescope::event::EventAggregator;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// DstSet behaves exactly like a BTreeSet on every universe size that
    /// picks a different upgrade path (none, straight to bitmap, through
    /// the hash form, the entry ceiling), including the edges around one
    /// bitmap word.
    #[test]
    fn dstset_matches_set_model(
        which in 0usize..9,
        ids in proptest::collection::vec(any::<u32>(), 0..6000),
        split in any::<prop::sample::Index>(),
    ) {
        let universe = [0u32, 1, 63, 64, 65, 1024, 16_384, 1 << 16, 1 << 24][which];
        // No id is inside an empty universe.
        let ids: Vec<u32> =
            if universe == 0 { Vec::new() } else { ids.iter().map(|raw| raw % universe).collect() };
        let (left, right) = ids.split_at(split.index(ids.len() + 1));
        let mut sets = [DstSet::new(universe), DstSet::new(universe)];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for (side, half) in [left, right].into_iter().enumerate() {
            for &id in half {
                prop_assert_eq!(sets[side].insert(id), models[side].insert(id), "insert {}", id);
            }
            prop_assert_eq!(sets[side].count() as usize, models[side].len());
        }
        let [mut a, b] = sets;
        let [mut model, other] = models;
        a.union_with(&b);
        model.extend(other);
        prop_assert_eq!(a.count() as usize, model.len(), "union in {}", a.repr_name());
        // Members, near misses, and ids outside the universe.
        let probes = ids.iter().flat_map(|&id| [id, id ^ 1, id.wrapping_add(64)]);
        for id in probes.chain([0, universe.wrapping_sub(1), universe, u32::MAX]) {
            prop_assert_eq!(a.contains(id), model.contains(&id), "contains {}", id);
        }
        prop_assert!((0.0..=1.0).contains(&a.coverage()));
    }

    /// Event aggregation conserves packets: whatever goes in comes out
    /// across completed events, regardless of timing patterns.
    #[test]
    fn aggregation_conserves_packets(
        steps in proptest::collection::vec((0u64..100_000, 0u8..8, 1u32..500, 0u8..3), 1..300),
    ) {
        let dark = 1u32 << 12;
        let mut agg = EventAggregator::new(dark, Dur::from_mins(10));
        let mut t = Ts::ZERO;
        let mut packets_in = 0u64;
        for (gap_ms, src, dst, class) in steps {
            t += Dur::from_millis(gap_ms);
            let src_ip = Ipv4Addr4::new(10, 0, 0, src);
            let dst_ip = Ipv4Addr4(0x1400_0000 + dst % dark);
            let (pkt, cls) = match class {
                0 => (PacketMeta::tcp_syn(t, src_ip, dst_ip, 1, 23), ScanClass::TcpSyn),
                1 => (PacketMeta::udp_probe(t, src_ip, dst_ip, 1, 53), ScanClass::Udp),
                _ => (PacketMeta::icmp_echo(t, src_ip, dst_ip), ScanClass::IcmpEcho),
            };
            packets_in += 1;
            agg.observe(&pkt, cls, dst % dark);
        }
        let events = agg.flush();
        let packets_out: u64 = events.iter().map(|e| u64::from(e.packets)).sum();
        prop_assert_eq!(packets_in, packets_out);
        // Structural sanity on every event.
        for e in &events {
            prop_assert!(e.start_day <= e.end_day);
            prop_assert!(e.unique_dsts >= 1);
            prop_assert!(e.unique_dsts <= e.packets);
            prop_assert!(e.unique_dsts <= dark);
            prop_assert!(u64::from(e.zmap) + u64::from(e.masscan) <= u64::from(e.packets));
        }
    }

    /// No completed event contains an internal silence longer than the
    /// timeout: splitting a uniform packet train at the timeout boundary
    /// produces ceil-like event counts.
    #[test]
    fn uniform_train_splits_predictably(
        gap_s in 1u64..1200,
        n in 2u64..50,
    ) {
        let timeout = Dur::from_mins(10);
        let dark = 1024;
        let mut agg = EventAggregator::new(dark, timeout);
        for i in 0..n {
            let pkt = PacketMeta::tcp_syn(
                Ts::from_secs(i * gap_s),
                Ipv4Addr4::new(10, 0, 0, 1),
                Ipv4Addr4(0x1400_0000 + (i as u32 % dark)),
                1,
                23,
            );
            agg.observe(&pkt, ScanClass::TcpSyn, i as u32 % dark);
        }
        let events = agg.flush();
        let expected = if gap_s * 1_000_000 > timeout.micros() { n } else { 1 };
        prop_assert_eq!(events.len() as u64, expected, "gap {}s n {}", gap_s, n);
    }
}
