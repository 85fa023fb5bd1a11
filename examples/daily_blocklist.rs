//! The paper's operational deliverable: daily lists of aggressive
//! scanners that operators could subscribe to and block.
//!
//! Simulates a week at the telescope, then writes one JSON blocklist per
//! day per definition under `out/blocklists/`, separating acknowledged
//! research scanners (which an operator may want to allow) from the
//! unacknowledged remainder. Also demonstrates the pcap writer by saving
//! a capture excerpt of the first day's darknet traffic.
//!
//! The simulation is durable: the first invocation writes every generated
//! packet to a write-ahead log under `out/wal-blocklist/` and seals it.
//! Every later invocation finds the sealed log and *replays* it — the
//! detectors re-run over stored history without re-simulating the world,
//! producing the identical blocklists in a fraction of the wall time
//! (the timing line printed at the end shows which path ran). Delete the
//! directory to force a fresh simulation.
//!
//! ```sh
//! cargo run --release --example daily_blocklist
//! ```

use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::net::pcap::{PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_RAW};
use aggressive_scanners::obs::json;
use aggressive_scanners::pipeline::{self, RunOptions, Telemetry, WalRun};
use aggressive_scanners::simnet::scenario::{ScenarioConfig, Year};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

struct Blocklist {
    day: u64,
    definition: &'static str,
    threshold_note: String,
    /// Hitters with no disclosed research intent — block candidates.
    unacknowledged: Vec<String>,
    /// Acknowledged research scanners — review before blocking.
    acknowledged: Vec<String>,
}

fn json_string_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let body: Vec<String> =
        items.iter().map(|s| format!("{indent}  \"{}\"", json::escape(s))).collect();
    format!("[\n{}\n{indent}]", body.join(",\n"))
}

impl Blocklist {
    /// Pretty-printed JSON; serialization in this workspace is
    /// hand-rolled (see vendor/README.md).
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"day\": {},\n  \"definition\": \"{}\",\n  \"threshold_note\": \"{}\",\n  \
             \"unacknowledged\": {},\n  \"acknowledged\": {}\n}}\n",
            self.day,
            json::escape(self.definition),
            json::escape(&self.threshold_note),
            json_string_array(&self.unacknowledged, "  "),
            json_string_array(&self.acknowledged, "  "),
        )
    }
}

fn main() -> std::io::Result<()> {
    let days = 7;
    let cfg = || {
        let mut cfg = ScenarioConfig::darknet(Year::Y2022, days, 7);
        cfg.label = "blocklist-demo".into();
        cfg
    };
    let wal_dir = Path::new("out/wal-blocklist");
    let mut tel = Telemetry::disabled();

    // Replay the sealed log when one exists for this exact scenario
    // (`replay_wal` refuses any other before feeding a packet);
    // otherwise simulate once, durably, so the next run can.
    let t0 = std::time::Instant::now();
    let (run, simulated) =
        match pipeline::replay_wal(cfg(), RunOptions::darknet_only(), wal_dir, &mut tel) {
            Ok(out) => {
                println!(
                    "replayed {days} days of stored darknet history from {}",
                    wal_dir.display()
                );
                (*out, false)
            }
            Err(e) => {
                // No log yet, an unsealed (interrupted) or damaged one, or
                // one of another scenario or format version: start over.
                println!("replay unavailable ({e}); simulating");
                if wal_dir.exists() {
                    fs::remove_dir_all(wal_dir)?;
                }
                durable_simulation(cfg(), wal_dir, &mut tel)?
            }
        };
    let wall = t0.elapsed().as_secs_f64();

    let acked = run.world.acked_list(8);
    let rdns = run.world.rdns(64);
    let out_dir = Path::new("out/blocklists");
    fs::create_dir_all(out_dir)?;

    let mut written = 0;
    for day in 0..days {
        for def in Definition::ALL {
            let Some(hitters) = run.report.active_hitters(def, day) else { continue };
            let mut unacknowledged = BTreeSet::new();
            let mut acknowledged = BTreeSet::new();
            for ip in hitters {
                if acked.matches(*ip, &rdns).is_some() {
                    acknowledged.insert(ip.to_string());
                } else {
                    unacknowledged.insert(ip.to_string());
                }
            }
            let list = Blocklist {
                day,
                definition: def.short(),
                threshold_note: match def {
                    Definition::AddressDispersion => "event touched >= 10% of dark space".into(),
                    Definition::PacketVolume => {
                        format!("event packets > {} (top-0.01% ECDF)", run.report.d2_threshold)
                    }
                    Definition::DistinctPorts => {
                        format!("distinct ports/day >= {}", run.report.d3_threshold)
                    }
                },
                unacknowledged: unacknowledged.into_iter().collect(),
                acknowledged: acknowledged.into_iter().collect(),
            };
            let path = out_dir.join(format!("day{day}-{}.json", def.short().to_lowercase()));
            fs::write(&path, list.to_json())?;
            written += 1;
        }
    }
    println!("wrote {written} blocklists under {}", out_dir.display());

    if simulated {
        // Bonus: persist a capture excerpt like a telescope operator
        // would. (Re-run the same seeded scenario and write the first 10k
        // dark-bound packets as a raw-IP pcap.) Replay invocations skip
        // this — their whole point is not re-simulating.
        let mut cfg = ScenarioConfig::darknet(Year::Y2022, 1, 7);
        cfg.label = "pcap-excerpt".into();
        let mut sc = aggressive_scanners::simnet::scenario::Scenario::build(cfg);
        let dark = sc.world.config.dark;
        let file = fs::File::create("out/darknet_excerpt.pcap")?;
        let mut w = PcapWriter::new(std::io::BufWriter::new(file), LINKTYPE_RAW, DEFAULT_SNAPLEN)
            .expect("pcap header");
        while let Some(pkt) = sc.mux.next_packet() {
            if !dark.contains(pkt.dst) {
                continue;
            }
            w.write_packet(pkt.ts, &pkt.to_bytes()).expect("pcap record");
            if w.record_count() >= 10_000 {
                break;
            }
        }
        println!("wrote out/darknet_excerpt.pcap ({} records)", w.record_count());
        w.finish().expect("flush pcap");
    }

    println!(
        "{} in {wall:.1}s (fingerprint {:016x}); run again to {}",
        if simulated { "simulated + journaled" } else { "replayed" },
        run.fingerprint(),
        if simulated { "replay the stored history" } else { "replay again" },
    );
    Ok(())
}

/// Simulate the scenario while journaling every generated packet to a
/// fresh write-ahead log, sealing it so later invocations can replay.
fn durable_simulation(
    cfg: ScenarioConfig,
    wal_dir: &Path,
    tel: &mut Telemetry,
) -> std::io::Result<(pipeline::RunOutput, bool)> {
    println!("simulating {} days of darknet traffic (journal: {})...", cfg.days, wal_dir.display());
    let out = pipeline::run_wal(cfg, RunOptions::darknet_only(), &WalRun::new(wal_dir), tel)?
        .completed()
        .expect("a run with no suspension points always completes");
    Ok((*out, true))
}
