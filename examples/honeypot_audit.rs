//! Honeypot cross-validation: what does a GreyNoise-style distributed
//! sensor fleet say about the hitters the telescope detected?
//!
//! Runs telescope + honeypot over the same simulated traffic, removes
//! acknowledged research scanners, and prints the behavioral tags and
//! benign/malicious/unknown classification of the remainder — the
//! analysis behind the paper's Table 9 and Figure 6.
//!
//! ```sh
//! cargo run --release --example honeypot_audit
//! ```

use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::core::validate::{
    acked_validation, daily_gn_overlap, gn_breakdown, gn_tag_table,
};
use aggressive_scanners::pipeline::{self, RunOptions};
use aggressive_scanners::simnet::scenario::{BenignLevel, ScenarioConfig, Year};

fn main() {
    let days = 7;
    println!("simulating {days} days with a distributed honeypot fleet...");
    let mut cfg = ScenarioConfig::darknet(Year::Y2022, days, 2023);
    cfg.benign = BenignLevel::Off;
    let run = pipeline::run(cfg, RunOptions { greynoise: true, ..RunOptions::darknet_only() });

    let entries = run.gn_entries.as_ref().expect("honeypot entries");
    println!("honeypot observed {} distinct sources", entries.len());

    let def = Definition::AddressDispersion;
    let hitters = run.report.hitters(def);
    let acked = run.world.acked_list(8);
    let rdns = run.world.rdns(64);
    let v = acked_validation(&run.report, def, &acked, &rdns);
    println!(
        "{} hitters total; {} acknowledged research scanners removed",
        hitters.len(),
        v.total_ips
    );

    let overlap = daily_gn_overlap(&run.report, def, entries, 0..days);
    println!("daily hitters also present at the honeypot: {:.1}% (paper: 99.3%)", 100.0 * overlap);

    let b = gn_breakdown(hitters, entries, &v.ips);
    println!();
    println!("classification of the non-acknowledged hitters:");
    println!("  malicious: {:>4}", b.malicious);
    println!("  unknown:   {:>4}", b.unknown);
    println!("  benign:    {:>4}", b.benign);
    println!("  not in GN: {:>4}", b.absent);

    println!();
    println!("top behavioral tags:");
    for (i, (tag, n)) in gn_tag_table(hitters, entries, &v.ips, 15).iter().enumerate() {
        println!("  #{:<3} {:<36} {n}", i + 1, tag);
    }
}
