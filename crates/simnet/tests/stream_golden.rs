//! Stream identity: the packet stream a scenario emits is pinned, field
//! by field, to constants taken at the commit *before* the per-packet
//! cost work on the generator (`Rng64::below`'s early accept, the
//! skipped `%`s, the cached diurnal rate, the const radiation weights,
//! the in-place heap-top replacement). Any change to what an actor
//! draws, in which order, or to how the mux orders ties moves a hash
//! here before it moves a fingerprint three layers downstream. The
//! failure messages carry the observed count and hash.

use ah_net::hash::{fnv1a_fold as fold, FNV_OFFSET};
use ah_net::packet::{PacketMeta, Transport};
use ah_simnet::scenario::{Scenario, ScenarioConfig, Year};

/// Every field of the packet, fixed-width little-endian, with a
/// transport discriminant so equal bytes under different variants
/// cannot collide.
fn fold_packet(mut h: u64, p: &PacketMeta) -> u64 {
    h = fold(h, &p.ts.micros().to_le_bytes());
    h = fold(h, &p.src.to_u32().to_le_bytes());
    h = fold(h, &p.dst.to_u32().to_le_bytes());
    h = fold(h, &p.ip_id.to_le_bytes());
    h = fold(h, &[p.ttl]);
    h = fold(h, &p.wire_len.to_le_bytes());
    match p.transport {
        Transport::Tcp { src_port, dst_port, seq, flags } => {
            h = fold(h, &[0]);
            h = fold(h, &src_port.to_le_bytes());
            h = fold(h, &dst_port.to_le_bytes());
            h = fold(h, &seq.to_le_bytes());
            fold(h, &[flags.0])
        }
        Transport::Udp { src_port, dst_port } => {
            h = fold(h, &[1]);
            h = fold(h, &src_port.to_le_bytes());
            fold(h, &dst_port.to_le_bytes())
        }
        Transport::Icmp { icmp_type, code } => fold(h, &[2, icmp_type, code]),
        Transport::Other { protocol } => fold(h, &[3, protocol]),
    }
}

/// Drain the scenario's mux: `(packets, hash over every field)`.
fn drain(cfg: ScenarioConfig) -> (u64, u64) {
    let mut sc = Scenario::build(cfg);
    let (mut n, mut h) = (0u64, FNV_OFFSET);
    while let Some(p) = sc.mux.next_packet() {
        n += 1;
        h = fold_packet(h, &p);
    }
    assert_eq!(n, sc.mux.emitted());
    (n, h)
}

fn check(name: &str, cfg: ScenarioConfig, packets: u64, hash: u64) {
    let (n, h) = drain(cfg);
    assert_eq!(n, packets, "{name}: packet count moved (hash {h:#018x})");
    assert_eq!(h, hash, "{name}: stream hash moved (got {h:#018x})");
}

#[test]
fn darknet_2022_two_days_seed_42() {
    check("darknet", ScenarioConfig::darknet(Year::Y2022, 2, 42), 3_280_633, 0xc110_3c5b_b186_0dd4);
}

#[test]
fn flows_one_day_seed_42() {
    check("flows", ScenarioConfig::flows(1, 42), 60_708_439, 0xbd22_ffa7_f978_29de);
}

#[test]
fn tiny_eight_days_seed_42() {
    check("tiny", ScenarioConfig::tiny(8, 42), 3_558_332, 0x98a2_ba87_e010_fa3c);
}
