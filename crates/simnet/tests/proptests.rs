//! Property-based tests for the simulator substrate.

use ah_net::time::Ts;
use ah_simnet::permute::Permutation;
use ah_simnet::rng::Rng64;
use ah_simnet::space::ObservableSpace;
use proptest::prelude::*;

/// `Rng64::below` as it was before the early accept: Lemire's rejection
/// with the threshold `2^64 mod n` computed on every draw.
fn below_reference(rng: &mut Rng64, n: u64) -> u64 {
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if (m as u64) >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
    }
}

proptest! {
    /// The Feistel permutation is a bijection on [0, n) for any n and key.
    #[test]
    fn permutation_bijection(n in 1u64..5000, key in any::<u64>()) {
        let p = Permutation::new(n, key);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let y = p.apply(i);
            prop_assert!(y < n);
            prop_assert!(!seen[y as usize], "collision at {}", y);
            seen[y as usize] = true;
        }
    }

    /// Observable-space index/address mapping is a bijection over any
    /// disjoint prefix layout.
    #[test]
    fn space_index_roundtrip(
        lens in proptest::collection::vec(20u8..30, 1..6),
    ) {
        // Build disjoint prefixes spaced far apart.
        let prefixes: Vec<ah_net::prefix::Prefix> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                ah_net::prefix::Prefix::new(
                    ah_net::ipv4::Ipv4Addr4((10 + i as u32) << 24),
                    l,
                )
                .unwrap()
            })
            .collect();
        let space = ObservableSpace::new(prefixes.clone());
        let total: u64 = prefixes.iter().map(|p| p.size()).sum();
        prop_assert_eq!(space.len(), total);
        // Probe a sample of indices.
        let step = (total / 64).max(1);
        let mut i = 0;
        while i < total {
            let addr = space.addr_at(i).unwrap();
            prop_assert_eq!(space.index_of(addr), Some(i));
            i += step;
        }
        prop_assert!(space.addr_at(total).is_none());
    }

    /// RNG helpers stay in their contracts for arbitrary seeds.
    #[test]
    fn rng_contracts(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = Rng64::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(n) < n);
            let f = r.f64();
            prop_assert!((0.0..1.0).contains(&f));
            prop_assert!(r.exp(2.0) > 0.0);
        }
    }

    /// `below`'s early accept (`lo >= n` before `2^64 mod n`) changes
    /// neither any result nor how many draws a call consumes.
    #[test]
    fn below_matches_the_unconditional_modulus(seed in any::<u64>(), arbitrary in 1u64..=u64::MAX) {
        let edges =
            [1, 2, 3, (1 << 32) - 1, (1 << 32) + 1, 1 << 63, (1 << 63) + 1, u64::MAX, arbitrary];
        for n in edges {
            let (mut fast, mut reference) = (Rng64::new(seed), Rng64::new(seed));
            for _ in 0..1_000 {
                prop_assert_eq!(fast.below(n), below_reference(&mut reference, n), "n = {}", n);
            }
            // `Debug` prints the whole xoshiro state.
            prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "state after n = {}", n);
        }
    }

    /// Scenario traffic is time-ordered and deterministic for any seed
    /// (smoke property on a very small run).
    #[test]
    fn tiny_scenario_time_ordered(seed in 0u64..50) {
        use ah_simnet::scenario::{Scenario, ScenarioConfig};
        let mut sc = Scenario::build(ScenarioConfig::tiny(1, seed));
        let mut last = Ts::ZERO;
        let mut n = 0u64;
        while let Some(p) = sc.mux.next_packet() {
            prop_assert!(p.ts >= last);
            last = p.ts;
            n += 1;
            if n > 20_000 {
                break; // enough evidence per case
            }
        }
        prop_assert!(n > 100);
    }
}
