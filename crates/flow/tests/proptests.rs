//! Property-based tests for the flow substrate.

use ah_flow::cache::FlowCache;
use ah_flow::router::Direction;
use ah_flow::sampler::Sampler;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::{Dur, Ts};
use proptest::prelude::*;

proptest! {
    /// The systematic sampler's estimate is never off by more than one
    /// sampling interval, for any rate, phase and stream length.
    #[test]
    fn sampler_estimate_error_is_bounded(
        rate in 1u64..5000,
        phase in any::<u64>(),
        n in 0u64..100_000,
    ) {
        let mut s = Sampler::new(rate, phase);
        let mut picked = 0u64;
        for _ in 0..n {
            if s.sample() {
                picked += 1;
            }
        }
        let est = s.estimate(picked);
        prop_assert!(est.abs_diff(n) < rate, "rate {} n {} est {}", rate, n, est);
        prop_assert_eq!(s.seen(), n);
        prop_assert_eq!(s.selected(), picked);
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
