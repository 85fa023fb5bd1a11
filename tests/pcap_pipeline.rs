//! Byte-level path equivalence: writing the simulated traffic to a pcap
//! file, reading it back, and running the telescope over the parsed
//! packets must produce exactly the same events as the direct in-memory
//! path. This exercises serialization, the pcap format, and parsing as a
//! single system the way a real telescope deployment would.

use aggressive_scanners::net::packet::PacketMeta;
use aggressive_scanners::net::pcap::{PcapReader, PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_RAW};
use aggressive_scanners::simnet::scenario::{Scenario, ScenarioConfig};
use aggressive_scanners::telescope::capture::Telescope;
use aggressive_scanners::telescope::timeout;

#[test]
fn pcap_roundtrip_preserves_all_darknet_events() {
    let cfg = ScenarioConfig::tiny(1, 77);
    // Path A: direct.
    let mut sc = Scenario::build(cfg.clone());
    let dark = sc.world.config.dark;
    let mut direct = Telescope::new(dark, timeout::paper_default());
    let mut pcap_bytes = Vec::new();
    {
        let mut w = PcapWriter::new(&mut pcap_bytes, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        while let Some(pkt) = sc.mux.next_packet() {
            direct.observe(&pkt);
            if dark.contains(pkt.dst) {
                // Serialize exactly what the telescope would store.
                w.write_packet(pkt.ts, &pkt.to_bytes()).unwrap();
            }
        }
        w.finish().unwrap();
    }
    let direct_events = direct.flush();
    assert!(!direct_events.is_empty());

    // Path B: through the capture file.
    let mut replayed = Telescope::new(dark, timeout::paper_default());
    let reader = PcapReader::new(&pcap_bytes[..]).unwrap();
    let mut records = 0u64;
    for rec in reader.records() {
        let rec = rec.unwrap();
        let pkt = PacketMeta::parse_ip(&rec.data, rec.ts).unwrap();
        replayed.observe(&pkt);
        records += 1;
    }
    assert!(records > 1000, "the dark space must receive traffic: {records}");
    let replayed_events = replayed.flush();

    assert_eq!(direct_events, replayed_events);
    assert_eq!(direct.stats().scan_packets(), replayed.stats().scan_packets());
}

#[test]
fn truncated_capture_file_fails_cleanly_midstream() {
    let cfg = ScenarioConfig::tiny(1, 78);
    let mut sc = Scenario::build(cfg);
    let dark = sc.world.config.dark;
    let mut pcap_bytes = Vec::new();
    {
        let mut w = PcapWriter::new(&mut pcap_bytes, LINKTYPE_RAW, DEFAULT_SNAPLEN).unwrap();
        let mut wrote = 0;
        while let Some(pkt) = sc.mux.next_packet() {
            if dark.contains(pkt.dst) {
                w.write_packet(pkt.ts, &pkt.to_bytes()).unwrap();
                wrote += 1;
                if wrote >= 100 {
                    break;
                }
            }
        }
        w.finish().unwrap();
    }
    // Cut the file mid-record: the reader must yield the intact prefix
    // and then exactly one error, never a panic.
    let cut = &pcap_bytes[..pcap_bytes.len() - 7];
    let reader = PcapReader::new(cut).unwrap();
    let mut ok = 0;
    let mut errs = 0;
    for rec in reader.records() {
        match rec {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
    }
    assert_eq!(ok, 99);
    assert_eq!(errs, 1);
}
