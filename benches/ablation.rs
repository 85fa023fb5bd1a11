//! Ablation tables over the design choices DESIGN.md calls out: the
//! event idle-timeout, the flow sampling rate and the dispersion
//! threshold. Prints the *output* effect of each parameterization
//! (event splitting, estimate bias, population size) — the figures
//! EXPERIMENTS.md §Ablations quotes.
//! Timing is `ah-perf`'s job (`crates/perf`), not this target's.

use ah_core::defs::{Definition, Thresholds};
use ah_core::detector::{Detector, DetectorConfig};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, ScanClass};
use ah_net::time::{Dur, Ts};
use ah_telescope::capture::Telescope;
use ah_telescope::event::{DarknetEvent, EventKey};

/// A slow scanner whose darknet hits arrive ~2 minutes apart: short
/// timeouts shred it into many events.
fn slow_scan(n: u32) -> Vec<PacketMeta> {
    (0..n)
        .map(|i| {
            PacketMeta::tcp_syn(
                Ts::from_secs(u64::from(i) * 117),
                Ipv4Addr4::new(100, 64, 0, 1),
                Ipv4Addr4(0x1400_0000 + (i * 37) % 16_384),
                40_000,
                23,
            )
        })
        .collect()
}

fn ablate_timeout() {
    let pkts = slow_scan(2000);
    for mins in [1u64, 5, 10, 30] {
        let mut t = Telescope::new("20.0.0.0/18".parse().unwrap(), Dur::from_mins(mins));
        for p in &pkts {
            t.observe(p);
        }
        let events = t.flush().len();
        println!("[ablation] timeout={mins}min -> {events} events from one 2k-probe slow scan");
    }
}

fn ablate_sampling() {
    // A flow of 10,000 packets, sampled at different rates: the inverse
    // estimator's error grows with the rate.
    for rate in [1u64, 10, 100, 1000] {
        let mut s = ah_flow::sampler::Sampler::new(rate, 3);
        let sampled = (0..10_000).filter(|_| s.sample(rate)).count() as u64;
        let est = sampled * rate;
        println!(
            "[ablation] sampling 1:{rate} -> estimate {est} of 10000 true ({}% error)",
            (est as i64 - 10_000).abs() * 100 / 10_000
        );
    }
}

fn ablate_dispersion() {
    // Events with geometrically-spread dispersion.
    let events: Vec<DarknetEvent> = (0..20_000u32)
        .map(|i| DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4(0x6500_0000 + i),
                dst_port: 23,
                class: ScanClass::TcpSyn,
            },
            start_day: 0,
            end_day: 0,
            packets: 10,
            unique_dsts: 1 + (i * 7919) % 16_384,
            zmap: 0,
            masscan: 0,
        })
        .collect();
    for pct in [5u32, 10, 20, 50] {
        let cfg = DetectorConfig {
            thresholds: Thresholds {
                dispersion_fraction: f64::from(pct) / 100.0,
                ..Thresholds::default()
            },
            dark_size: 16_384,
        };
        let mut d = Detector::new(cfg);
        d.ingest_all(&events);
        let n = d.finalize().hitters(Definition::AddressDispersion).len();
        println!("[ablation] dispersion>={pct}% -> {n} hitters of 20000 sources");
    }
}

fn main() {
    ablate_timeout();
    ablate_sampling();
    ablate_dispersion();
}
