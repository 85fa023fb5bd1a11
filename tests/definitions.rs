//! Invariants of the three hitter definitions on seeded runs.

use aggressive_scanners::core::defs::{Definition, Thresholds};
use aggressive_scanners::core::detector::{Detector, DetectorConfig};
use aggressive_scanners::core::ecdf::Ecdf;
use aggressive_scanners::pipeline::{self, RunOptions};
use aggressive_scanners::simnet::scenario::{Scenario, ScenarioConfig};
use aggressive_scanners::telescope::capture::Telescope;
use aggressive_scanners::telescope::timeout;
use std::collections::HashSet;

fn run(seed: u64) -> pipeline::RunOutput {
    pipeline::run(ScenarioConfig::tiny(3, seed), RunOptions::darknet_only())
}

#[test]
fn daily_sets_are_subsets_of_yearly() {
    let out = run(31);
    for def in Definition::ALL {
        let yearly = out.report.hitters(def);
        for day in 0..out.days {
            if let Some(daily) = out.report.daily_hitters(def, day) {
                assert!(daily.is_subset(yearly), "{def:?} day {day}");
            }
            if let Some(active) = out.report.active_hitters(def, day) {
                assert!(active.is_subset(yearly), "{def:?} day {day}");
            }
        }
    }
}

#[test]
fn active_covers_daily_for_event_definitions() {
    let out = run(32);
    for def in [Definition::AddressDispersion, Definition::PacketVolume] {
        for day in 0..out.days {
            let daily: HashSet<_> = out.report.daily_hitters(def, day).cloned().unwrap_or_default();
            let active: HashSet<_> =
                out.report.active_hitters(def, day).cloned().unwrap_or_default();
            assert!(daily.is_subset(&active), "{def:?} day {day}");
        }
    }
}

#[test]
fn d2_threshold_sits_in_the_tail() {
    let out = run(33);
    let e = Ecdf::from_samples(out.report.records().iter().map(|r| u64::from(r.packets)).collect());
    let t = out.report.d2_threshold;
    assert!(t >= e.quantile(0.99).unwrap(), "threshold below the 99th percentile");
    assert!(t <= e.max().unwrap());
    // The number of qualifying events matches the ECDF's own count.
    let above = e.count_above(t);
    assert!(above as f64 <= e.len() as f64 * 2e-4 + 1.0, "tail too fat: {above}");
}

#[test]
fn dispersion_qualification_matches_event_records() {
    let out = run(34);
    let dark = out.report.cfg.dark_size as f64;
    let d1 = out.report.hitters(Definition::AddressDispersion);
    // Every D1 member has at least one record at or above the cut; every
    // record at or above the cut belongs to a member.
    let mut qualified_srcs = HashSet::new();
    for r in out.report.records() {
        if f64::from(r.unique_dsts) / dark >= 0.10 {
            qualified_srcs.insert(r.key.src);
        }
    }
    assert_eq!(&qualified_srcs, d1);
}

#[test]
fn stricter_dispersion_shrinks_population_monotonically() {
    // Re-detect from the same event stream under increasing cuts.
    let cfg = ScenarioConfig::tiny(2, 35);
    let mut sc = Scenario::build(cfg);
    let mut telescope = Telescope::new(sc.world.config.dark, timeout::paper_default());
    while let Some(pkt) = sc.mux.next_packet() {
        telescope.observe(&pkt);
    }
    let events = telescope.flush();
    let mut last = usize::MAX;
    for cut in [0.02, 0.05, 0.10, 0.25, 0.50] {
        let mut det = Detector::new(DetectorConfig {
            thresholds: Thresholds { dispersion_fraction: cut, ..Thresholds::default() },
            dark_size: telescope.dark_space().size(),
        });
        det.ingest_all(&events);
        let n = det.finalize().hitters(Definition::AddressDispersion).len();
        assert!(n <= last, "population must shrink: cut {cut} gave {n} > {last}");
        last = n;
    }
    assert!(last < usize::MAX);
}

#[test]
fn event_packet_conservation_through_detection() {
    let out = run(36);
    let from_records: u64 = out.report.records().iter().map(|r| u64::from(r.packets)).sum();
    let from_days: u64 = out.report.day_all_packets.values().sum();
    assert_eq!(from_records, from_days);
    // And they equal what the telescope classified as scanning.
    assert_eq!(from_records, out.capture.scan_packets);
}

#[test]
fn ah_packets_never_exceed_all_packets() {
    let out = run(37);
    for def in Definition::ALL {
        for day in 0..out.days {
            let ah = out.report.ah_packets(def, day);
            let all = out.report.day_all_packets.get(&day).copied().unwrap_or(0);
            assert!(ah <= all, "{def:?} day {day}: {ah} > {all}");
        }
    }
}
