//! Bring-your-own-capture: run the detection pipeline over a pcap file.
//!
//! This is the workflow a telescope operator would actually use: point
//! the tool at a capture of dark-space traffic and get darknet events
//! plus aggressive-hitter lists out.
//!
//! ```sh
//! cargo run --release --example pcap_events -- <file.pcap> <dark-prefix>
//! # e.g. after `cargo run --release --example daily_blocklist`:
//! cargo run --release --example pcap_events -- out/darknet_excerpt.pcap 20.0.0.0/18
//! ```
//!
//! With no arguments, a demo capture is synthesized in memory first.

use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::core::detector::{Detector, DetectorConfig};
use aggressive_scanners::net::packet::PacketMeta;
use aggressive_scanners::net::pcap::{PcapReader, PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_RAW};
use aggressive_scanners::net::prefix::Prefix;
use aggressive_scanners::telescope::capture::Telescope;
use aggressive_scanners::telescope::timeout;

fn synthesize_demo() -> (Vec<u8>, Prefix) {
    use aggressive_scanners::simnet::scenario::{Scenario, ScenarioConfig};
    eprintln!("no pcap given; synthesizing a demo capture...");
    let mut sc = Scenario::build(ScenarioConfig::tiny(1, 5));
    let dark = sc.world.config.dark;
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf, LINKTYPE_RAW, DEFAULT_SNAPLEN).expect("header");
    while let Some(pkt) = sc.mux.next_packet() {
        if dark.contains(pkt.dst) {
            w.write_packet(pkt.ts, &pkt.to_bytes()).expect("record");
        }
    }
    w.finish().expect("flush");
    (buf, dark)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (bytes, dark) = match args.as_slice() {
        [path, prefix] => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let dark: Prefix = prefix.parse().unwrap_or_else(|e| {
                eprintln!("bad prefix {prefix}: {e}");
                std::process::exit(1);
            });
            (bytes, dark)
        }
        [] => synthesize_demo(),
        _ => {
            eprintln!("usage: pcap_events [<file.pcap> <dark-prefix>]");
            std::process::exit(2);
        }
    };

    let reader = PcapReader::new(&bytes[..]).unwrap_or_else(|e| {
        eprintln!("not a classic pcap file: {e}");
        std::process::exit(1);
    });
    let header = reader.header();
    if header.linktype != LINKTYPE_RAW {
        eprintln!("link type {} is not raw IP ({LINKTYPE_RAW})", header.linktype);
        std::process::exit(1);
    }
    eprintln!("classic pcap, raw IP, snaplen {}", header.snaplen);

    let mut telescope = Telescope::new(dark, timeout::paper_default());
    let mut parsed = 0u64;
    let mut skipped = 0u64;
    for rec in reader.records() {
        let Ok(rec) = rec.inspect_err(|e| eprintln!("capture ends early: {e}")) else { break };
        match PacketMeta::parse_ip(&rec.data, rec.ts) {
            Ok(p) => {
                parsed += 1;
                telescope.observe(&p);
            }
            Err(_) => skipped += 1,
        }
    }
    println!("parsed {parsed} packets ({skipped} unparsable records skipped)");

    let events = telescope.flush();
    println!(
        "captured {} scanning packets from {} sources -> {} darknet events",
        telescope.stats().scan_packets(),
        telescope.stats().unique_sources(),
        events.len()
    );

    let mut det = Detector::new(DetectorConfig::new(telescope.dark_space().size()));
    det.ingest_all(&events);
    let report = det.finalize();
    for def in Definition::ALL {
        let hitters = report.hitters(def);
        println!("{}: {} hitters", def.short(), hitters.len());
        let mut v: Vec<String> = hitters.iter().map(|ip| ip.to_string()).collect();
        v.sort();
        for ip in v.iter().take(10) {
            println!("    {ip}");
        }
    }
}
