//! Property-based tests for the detection core, and a naive reference
//! detector, written straight from PAPER.md §1 over events, that the
//! engine's `Detector` must agree with field by field.

use ah_core::defs::{Definition, Thresholds};
use ah_core::detector::{Detector, DetectorConfig};
use ah_core::ecdf::Ecdf;
use ah_core::lists::{intersect, jaccard, level_counts};
use ah_intel::asn::AsnDb;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::ScanClass;
use ah_telescope::event::{DarknetEvent, EventKey};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// What PAPER.md §1 says every hitter list and per-day total is, computed
/// the plain way: one map entry per event, source, day or port, no order
/// assumed of the input.
struct Reference {
    d2_threshold: u64,
    d3_threshold: u64,
    hitters: [HashSet<Ipv4Addr4>; 3],
    /// Hitters whose qualifying activity starts on a day.
    daily: [HashMap<u64, HashSet<Ipv4Addr4>>; 3],
    /// Hitters whose qualifying activity spans a day.
    active: [HashMap<u64, HashSet<Ipv4Addr4>>; 3],
    /// Packets of events starting on a day whose source is a daily hitter
    /// on it.
    ah_packets: [HashMap<u64, u64>; 3],
    /// Sources and packets of all events starting on a day.
    all_sources: HashMap<u64, HashSet<Ipv4Addr4>>,
    all_packets: HashMap<u64, u64>,
}

/// The top-α cut of a sample: the smallest value with at least a 1 − α
/// share of the samples at or below it. `None` for no samples.
fn top_alpha(mut samples: Vec<u64>, alpha: f64) -> Option<u64> {
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((1.0 - alpha) * n as f64).ceil() as usize;
    samples.get(rank.clamp(1, n.max(1)) - 1).copied()
}

impl Reference {
    fn new(events: &[DarknetEvent], dark: u32, t: Thresholds) -> Reference {
        // D2: an event's packets strictly above the top-α packets per event.
        let packets: Vec<u64> = events.iter().map(|e| u64::from(e.packets)).collect();
        let d2_threshold = top_alpha(packets, t.volume_alpha).unwrap_or(u64::MAX);

        // D3: distinct destination ports a source probes on a day, over
        // every day an event spans; ICMP has no port. At or above the top-α
        // count qualifies the (source, day), and never fewer than 2 ports.
        let mut ports: HashMap<(Ipv4Addr4, u64), HashSet<u16>> = HashMap::new();
        for e in events.iter().filter(|e| e.key.class != ScanClass::IcmpEcho) {
            for day in e.start_day..=e.end_day {
                ports.entry((e.key.src, u64::from(day))).or_default().insert(e.key.dst_port);
            }
        }
        let counts = ports.values().map(|p| p.len() as u64).collect();
        let d3_threshold = top_alpha(counts, t.ports_alpha).unwrap_or(u64::MAX).max(2);

        let mut r = Reference {
            d2_threshold,
            d3_threshold,
            hitters: Default::default(),
            daily: Default::default(),
            active: Default::default(),
            ah_packets: Default::default(),
            all_sources: HashMap::new(),
            all_packets: HashMap::new(),
        };
        let mut qualify = |i: usize, src: Ipv4Addr4, start: u64, span: Vec<u64>| {
            r.hitters[i].insert(src);
            r.daily[i].entry(start).or_default().insert(src);
            for day in span {
                r.active[i].entry(day).or_default().insert(src);
            }
        };
        for e in events {
            let start = u64::from(e.start_day);
            let span: Vec<u64> = (e.start_day..=e.end_day).map(u64::from).collect();
            // D1: the event touches at least a tenth of the dark space.
            if f64::from(e.unique_dsts) / f64::from(dark.max(1)) >= t.dispersion_fraction {
                qualify(Definition::AddressDispersion.index(), e.key.src, start, span.clone());
            }
            if u64::from(e.packets) > d2_threshold {
                qualify(Definition::PacketVolume.index(), e.key.src, start, span);
            }
        }
        for (&(src, day), p) in &ports {
            if p.len() as u64 >= d3_threshold {
                qualify(Definition::DistinctPorts.index(), src, day, vec![day]);
            }
        }

        // Packets count on the day their event starts.
        for e in events {
            let day = u64::from(e.start_day);
            r.all_sources.entry(day).or_default().insert(e.key.src);
            *r.all_packets.entry(day).or_default() += u64::from(e.packets);
            for i in 0..3 {
                if r.daily[i].get(&day).is_some_and(|s| s.contains(&e.key.src)) {
                    *r.ah_packets[i].entry(day).or_default() += u64::from(e.packets);
                }
            }
        }
        r
    }
}

/// A random event: `src` among a few dozen sources so each has many
/// events, a dozen ports, a week of days.
fn event_of(
    (src, port, class, day, span, packets, unique): (u8, u16, u8, u16, u16, u32, u32),
) -> DarknetEvent {
    DarknetEvent {
        key: EventKey {
            src: Ipv4Addr4::new(10, 0, 0, src),
            dst_port: if class == 2 { 0 } else { port },
            class: ScanClass::ALL[usize::from(class)],
        },
        start_day: day,
        end_day: day + span,
        packets,
        unique_dsts: unique.min(packets),
        zmap: 0,
        masscan: 0,
    }
}

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

    /// The detector agrees with [`Reference`] on every report field, fed
    /// random events in three forms: `form` 0 sorted by key (the engine's
    /// canonical sequence, walked as source runs in place), 1 shuffled
    /// (walked in a copy sorted by source), 2 with ICMP events and
    /// multi-day spans, sorted or shuffled. `alpha` widens the tails so D2
    /// and D3 qualify some sources out of a few hundred events; the dark
    /// space is a multiple of 10 so some events sit exactly on D1's tenth.
    #[test]
    fn detector_matches_the_reference(
        form in 0u8..3,
        sorted in any::<bool>(),
        alpha in 0usize..4,
        tenth in 100u32..600,
        raw in proptest::collection::vec(
            (
                (0u8..24, 0u16..12, 0u8..3, 0u16..7, 0u16..4, 1u32..3000, 1u32..1200),
                any::<u64>(),
            ),
            0..300,
        ),
    ) {
        let mut raw = raw;
        if form < 2 {
            // TCP and UDP only, one day each.
            for ((_, _, class, _, span, _, _), _) in &mut raw {
                *class %= 2;
                *span = 0;
            }
        }
        if form == 0 || (form == 2 && sorted) {
            raw.sort_by_key(|&(e, _)| event_of(e).key);
        } else {
            raw.sort_by_key(|&(_, shuffle)| shuffle);
        }
        let events: Vec<DarknetEvent> = raw.into_iter().map(|(e, _)| event_of(e)).collect();
        let dark = tenth * 10;
        let a = [1e-4, 0.01, 0.05, 0.2][alpha];
        let thresholds = Thresholds { volume_alpha: a, ports_alpha: a, ..Thresholds::default() };

        let want = Reference::new(&events, dark, thresholds);
        let mut det = Detector::new(DetectorConfig { thresholds, dark_size: dark });
        det.ingest_all(&events);
        let got = det.finalize();

        prop_assert_eq!(got.records(), events.as_slice(), "records keep ingest order");
        prop_assert_eq!(got.d2_threshold, want.d2_threshold);
        prop_assert_eq!(got.d3_threshold, want.d3_threshold);
        let last_day = events.iter().map(|e| u64::from(e.end_day)).max().unwrap_or(0);
        for def in Definition::ALL {
            let i = def.index();
            prop_assert_eq!(got.hitters(def), &want.hitters[i], "{:?} hitters", def);
            for day in 0..=last_day {
                prop_assert_eq!(got.daily_hitters(def, day), want.daily[i].get(&day));
                prop_assert_eq!(got.active_hitters(def, day), want.active[i].get(&day));
                let ah = want.ah_packets[i].get(&day).copied().unwrap_or(0);
                prop_assert_eq!(got.ah_packets(def, day), ah, "{:?} day {}", def, day);
            }
        }
        let sources: BTreeMap<u64, u64> =
            want.all_sources.iter().map(|(&d, s)| (d, s.len() as u64)).collect();
        let packets: BTreeMap<u64, u64> = want.all_packets.into_iter().collect();
        prop_assert_eq!(&got.day_all_sources, &sources);
        prop_assert_eq!(&got.day_all_packets, &packets);
    }
}
