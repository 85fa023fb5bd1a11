//! Property-based tests for the detection core.

use ah_core::defs::Definition;
use ah_core::detector::{Detector, DetectorConfig};
use ah_core::ecdf::Ecdf;
use ah_core::lists::{intersect, jaccard, level_counts};
use ah_intel::asn::AsnDb;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::ScanClass;
use ah_telescope::event::{DarknetEvent, EventKey};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// ECDF invariants: cdf is monotone in x, quantile is the inverse in
    /// the sense that cdf(quantile(q)) >= q, and count_above is exact.
    #[test]
    fn ecdf_coherence(samples in proptest::collection::vec(0u64..10_000, 1..2000)) {
        let e = Ecdf::from_samples(samples.clone());
        // Quantile inverse property.
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.9999, 1.0] {
            let v = e.quantile(q).unwrap();
            prop_assert!(e.cdf(v) >= q - 1e-12, "q {} v {} cdf {}", q, v, e.cdf(v));
        }
        // count_above matches a naive count for arbitrary probes.
        for probe in [0u64, 1, 50, 500, 5000, 9_999, 20_000] {
            let naive = samples.iter().filter(|&&s| s > probe).count();
            prop_assert_eq!(e.count_above(probe), naive);
        }
        // cdf is monotone.
        let mut prev = 0.0;
        for x in (0..10_500).step_by(500) {
            let c = e.cdf(x);
            prop_assert!(c >= prev);
            prev = c;
        }
    }

    /// The histogram ECDF answers every query as the sorted sample
    /// vector it stands for. `shape` 0 is the empty set and 1 a single
    /// value repeated; otherwise the samples come from a domain of
    /// 2^`bits` values, narrow enough in most cases for heavy duplicates,
    /// and `high` moves them to the top of the `u64` range.
    #[test]
    fn histogram_ecdf_matches_sorted_samples(
        shape in 0u8..4,
        bits in 0u32..17,
        high in any::<bool>(),
        raw in proptest::collection::vec(any::<u64>(), 1..1500),
    ) {
        let bits = if shape == 1 { 0 } else { bits };
        let samples: Vec<u64> = match shape {
            0 => Vec::new(),
            _ => raw
                .iter()
                .map(|&r| r % (1u64 << bits))
                .map(|v| if high { u64::MAX - v } else { v })
                .collect(),
        };
        let e = Ecdf::from_values(samples.iter().copied());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let at_most = |x: u64| sorted.partition_point(|&s| s <= x);
        prop_assert_eq!(e.len(), n);
        prop_assert_eq!(e.is_empty(), n == 0);
        prop_assert_eq!(e.max(), sorted.last().copied());
        let probes = sorted
            .iter()
            .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)])
            .chain([0, u64::MAX / 2, u64::MAX]);
        for x in probes {
            let cdf = if n == 0 { 0.0 } else { at_most(x) as f64 / n as f64 };
            prop_assert_eq!(e.cdf(x).to_bits(), cdf.to_bits(), "cdf({})", x);
            prop_assert_eq!(e.count_above(x), n - at_most(x), "count_above({})", x);
        }
        // The top-α rank at α = 10⁻⁴ is the cut D2 and D3 take.
        for q in [0.0, 1e-9, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-9, 1.0] {
            let naive = (n > 0).then(|| {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                sorted[rank - 1]
            });
            prop_assert_eq!(e.quantile(q), naive, "quantile({})", q);
        }
    }

    /// Jaccard similarity: bounded, symmetric, and 1.0 iff sets equal
    /// (for nonempty sets).
    #[test]
    fn jaccard_properties(
        a in proptest::collection::hash_set(0u32..200, 0..60),
        b in proptest::collection::hash_set(0u32..200, 0..60),
    ) {
        let sa: HashSet<Ipv4Addr4> = a.iter().map(|&x| Ipv4Addr4(x)).collect();
        let sb: HashSet<Ipv4Addr4> = b.iter().map(|&x| Ipv4Addr4(x)).collect();
        let j = jaccard(&sa, &sb);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, jaccard(&sb, &sa));
        if sa == sb {
            prop_assert!((j - 1.0).abs() < 1e-12);
        }
        if !sa.is_empty() && !sb.is_empty() && sa.is_disjoint(&sb) {
            prop_assert_eq!(j, 0.0);
        }
        // Intersection is symmetric and bounded.
        let i = intersect(&sa, &sb);
        prop_assert!(i.len() <= sa.len().min(sb.len()));
        prop_assert_eq!(&i, &intersect(&sb, &sa));
    }

    /// Level counts never exceed IP count and behave monotonically under
    /// the trivial registry.
    #[test]
    fn level_counts_bounds(ips in proptest::collection::hash_set(any::<u32>(), 0..100)) {
        let set: HashSet<Ipv4Addr4> = ips.iter().map(|&x| Ipv4Addr4(x)).collect();
        let db = AsnDb::default();
        let c = level_counts(&set, &db);
        prop_assert_eq!(c.ips as usize, set.len());
        prop_assert!(c.asns <= c.ips);
        prop_assert!(c.orgs <= c.ips);
        prop_assert!(c.countries <= c.ips);
    }

    /// Detector structural invariants over random event streams: daily ⊆
    /// yearly, active ⊆ yearly, D1 membership matches a naive filter,
    /// per-day packet attributions are conservative.
    #[test]
    fn detector_invariants(
        events in proptest::collection::vec(
            (0u8..40, 0u16..100, 0u16..10, 0u16..3, 1u32..5000, 1u32..1500),
            1..400,
        ),
    ) {
        let dark = 4096u32;
        let mut det = Detector::new(DetectorConfig::new(dark));
        let mut naive_d1: HashSet<Ipv4Addr4> = HashSet::new();
        for (src, port, day, span, packets, unique) in events {
            let unique = unique.min(packets);
            let src_ip = Ipv4Addr4::new(10, 0, 0, src);
            let ev = DarknetEvent {
                key: EventKey { src: src_ip, dst_port: port, class: ScanClass::TcpSyn },
                start_day: day,
                end_day: day + span,
                packets,
                unique_dsts: unique,
                zmap: 0,
                masscan: 0,
            };
            if f64::from(unique) / f64::from(dark) >= 0.10 {
                naive_d1.insert(src_ip);
            }
            det.ingest(&ev);
        }
        let report = det.finalize();
        prop_assert_eq!(report.hitters(Definition::AddressDispersion), &naive_d1);
        for def in Definition::ALL {
            let yearly = report.hitters(def);
            for day in 0..15u64 {
                if let Some(d) = report.daily_hitters(def, day) {
                    prop_assert!(d.is_subset(yearly));
                }
                if let Some(a) = report.active_hitters(def, day) {
                    prop_assert!(a.is_subset(yearly));
                }
                let ah = report.ah_packets(def, day);
                let all = report.day_all_packets.get(&day).copied().unwrap_or(0);
                prop_assert!(ah <= all);
            }
        }
    }
}
