//! End-to-end integration: simulate → capture → detect → join, asserting
//! the paper's qualitative shape targets on a seeded miniature world.

use aggressive_scanners::core::characterize::{
    protocol_mix_darknet, top_ports, zipf_concentration,
};
use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::core::impact::flow_impact;
use aggressive_scanners::core::lists::jaccard;
use aggressive_scanners::core::validate::acked_validation;
use aggressive_scanners::pipeline::{self, RunOptions};
use aggressive_scanners::simnet::scenario::ScenarioConfig;

fn tiny_run(days: u64, seed: u64) -> pipeline::RunOutput {
    pipeline::run(ScenarioConfig::tiny(days, seed), RunOptions::full())
}

#[test]
fn detects_aggressive_hitters_under_all_definitions() {
    let run = tiny_run(3, 1);
    let d1 = run.report.hitters(Definition::AddressDispersion);
    let d2 = run.report.hitters(Definition::PacketVolume);
    assert!(!d1.is_empty(), "D1 must find hitters");
    assert!(!d2.is_empty(), "D2 must find hitters");
    // D1 and D2 largely overlap (the paper reports Jaccard ≈ 0.8 in 2021
    // and containment in 2022); at miniature scale we only require
    // substantial similarity.
    assert!(jaccard(d1, d2) > 0.3, "J = {}", jaccard(d1, d2));
}

#[test]
fn hitters_are_tiny_fraction_but_most_packets() {
    let run = tiny_run(3, 2);
    let d1 = run.report.hitters(Definition::AddressDispersion);
    let frac_sources = d1.len() as f64 / run.capture.unique_sources.max(1) as f64;
    assert!(frac_sources < 0.15, "hitters are a small source fraction: {frac_sources}");
    // Packets from daily hitters dominate darknet scanning traffic.
    let mut ah = 0u64;
    let mut all = 0u64;
    for day in 0..run.days {
        ah += run.report.ah_packets(Definition::AddressDispersion, day);
        all += run.report.day_all_packets.get(&day).copied().unwrap_or(0);
    }
    let share = ah as f64 / all.max(1) as f64;
    assert!(share > 0.4, "AH packet share {share}");
}

#[test]
fn tcp_syn_dominates_hitter_protocol_mix() {
    let run = tiny_run(3, 3);
    let mix = protocol_mix_darknet(&run.report, Definition::AddressDispersion, None);
    assert!(mix[0] > 60.0, "TCP-SYN dominates: {mix:?}");
    assert!((mix[0] + mix[1] + mix[2] - 100.0).abs() < 1e-6);
}

#[test]
fn flow_impact_is_nonzero_and_bounded() {
    let run = tiny_run(2, 4);
    let ds = run.merit_flows.as_ref().unwrap();
    let rows = flow_impact(ds, |day| {
        run.report.active_hitters(Definition::AddressDispersion, day).cloned()
    });
    assert!(!rows.is_empty());
    let any_positive = rows.iter().any(|r| r.ah_packets > 0);
    assert!(any_positive, "hitter packets must reach the routers");
    for r in &rows {
        assert!(r.pct() <= 100.0);
    }
}

#[test]
fn acked_scanners_are_found_with_both_stages() {
    let run = tiny_run(3, 5);
    let acked = run.world.acked_list(4);
    let rdns = run.world.rdns(64);
    let v = acked_validation(&run.report, Definition::AddressDispersion, &acked, &rdns);
    assert!(v.total_ips > 0, "research sweeps must be detected as hitters");
    assert!(v.orgs > 0);
    assert!(v.packets_pct_of_ah < 100.0);
}

#[test]
fn top_ports_follow_the_configured_profile() {
    let run = tiny_run(3, 6);
    let ports = top_ports(&run.report, Definition::AddressDispersion, 25);
    assert!(!ports.is_empty());
    let labels: Vec<String> = ports.iter().take(8).map(|p| p.label()).collect();
    // Redis, Telnet and SSH are the configured heavyweights.
    let heavy = ["tcp/6379", "tcp/23", "tcp/22"];
    let hits = heavy.iter().filter(|h| labels.iter().any(|l| l == *h)).count();
    assert!(hits >= 2, "expected heavy ports near the top, got {labels:?}");
}

#[test]
fn zipf_concentration_is_heavy_tailed() {
    let run = tiny_run(3, 7);
    let z = zipf_concentration(&run.report, Definition::AddressDispersion);
    assert!(!z.is_empty());
    // The top 20% of hitters carry well over 20% of hitter traffic.
    let idx = (z.len() / 5).max(1) - 1;
    assert!(z[idx] > 25.0, "top-20% share {}", z[idx]);
}

#[test]
fn greynoise_sees_nearly_all_hitters() {
    let run = tiny_run(3, 8);
    let seen = run.gn_entries.as_ref().unwrap();
    let d1 = run.report.hitters(Definition::AddressDispersion);
    let overlap =
        d1.iter().filter(|ip| seen.contains_key(ip)).count() as f64 / d1.len().max(1) as f64;
    assert!(overlap > 0.9, "internet-wide hitters hit distributed sensors: {overlap}");
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let a = tiny_run(2, 99);
    let b = tiny_run(2, 99);
    assert_eq!(a.generated_packets, b.generated_packets);
    assert_eq!(a.report.d2_threshold, b.report.d2_threshold);
    for def in Definition::ALL {
        assert_eq!(a.report.hitters(def), b.report.hitters(def));
    }
    let fa = a.merit_flows.as_ref().unwrap();
    let fb = b.merit_flows.as_ref().unwrap();
    assert_eq!(fa.records.len(), fb.records.len());
}

#[test]
fn different_seeds_differ() {
    let a = tiny_run(2, 100);
    let b = tiny_run(2, 101);
    assert_ne!(a.generated_packets, b.generated_packets);
}

#[test]
fn spoofed_sources_never_become_hitters() {
    // The tiny scenario includes a spoofed-source flood (bogons + random
    // forged unicast). Bogon sources must be filtered before capture and
    // no forged source may qualify under any definition.
    let run = tiny_run(3, 55);
    // The pipeline's reduced filter set (the synthetic plan deliberately
    // reuses RFC1918/CGNAT space for its networks, so the full
    // standard_bogons() list does not apply here).
    let bogons = aggressive_scanners::net::prefix::PrefixSet::from_prefixes(
        ["0.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16", "224.0.0.0/4", "240.0.0.0/4"]
            .iter()
            .map(|p| p.parse().unwrap()),
    );
    for def in Definition::ALL {
        for ip in run.report.hitters(def) {
            assert!(!bogons.contains(*ip), "bogon source {ip} became a {def:?} hitter");
            // Forged random-unicast sources live in 80.0.0.0/12.
            assert!(
                !aggressive_scanners::net::prefix::Prefix::new(
                    aggressive_scanners::net::ipv4::Ipv4Addr4::new(80, 0, 0, 0),
                    4
                )
                .unwrap()
                .contains(*ip),
                "forged source {ip} became a {def:?} hitter"
            );
        }
    }
}
