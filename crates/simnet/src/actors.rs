//! Behavioral traffic actors.
//!
//! Each actor reproduces the *wire-visible invariants* of one real-world
//! traffic class — the properties the paper's pipeline keys on
//! (fingerprints, address dispersion, rates, port profiles) — while
//! drawing targets from the [`ObservableSpace`] (see [`crate::space`] for
//! the rate-thinning argument).
//!
//! | Actor | Real-world counterpart | Invariants reproduced |
//! |---|---|---|
//! | [`SweepScanner`] | ZMap / Masscan / custom horizontal scans, incl. acknowledged research sweeps | permutation target order, IP-ID fingerprints, coverage fraction, per-target retries |
//! | [`MiraiBot`] | IoT botnet propagation | seq = dst IP, 23/2323 port mix, low rate, churn via lifetime |
//! | [`PortSweeper`] | vertical scanners (definition-3 hitters) | thousands of distinct ports/day on few targets |
//! | [`Backscatter`] | DoS victims answering spoofed SYNs | SYN-ACK/RST to random addresses — must NOT count as scanning |
//! | [`Radiation`] | misconfigurations and the "small scan" long tail | many sources, few packets each, 445-heavy port mix |
//! | [`Benign`] | user traffic incl. content caching | diurnal + weekend rate shape, cache-served traffic bypassing the ISP border |

use crate::mux::Actor;
use crate::permute::Permutation;
use crate::rng::{hash64, Rng64};
use crate::space::{wrap_index, ObservableSpace};
use ah_net::fingerprint::{masscan_ip_id, ZMAP_IP_ID};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::prefix::Prefix;
use ah_net::tcp::TcpFlags;
use ah_net::time::{Dur, Ts};
use std::sync::Arc;

/// The timestamp [`Actor::emit`] was scheduled for. The mux only calls
/// `emit` on the actor whose [`Actor::peek`] just returned `Some`, so
/// the contract violation is unreachable from the public API; keeping
/// the check in one audited place removes a panic path from every
/// actor.
fn due(next: Option<Ts>) -> Ts {
    // ah-lint: allow(panic-path, reason = "Actor contract: emit() is only called while peek() returns Some; TrafficMux upholds this and it is the only caller")
    next.expect("emit called while peek() is None")
}

/// Scanning tool whose fingerprint a sweep stamps on its probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ToolKind {
    /// ZMap (IP id 54321, fixed initial window).
    ZMap,
    /// Masscan (IP id derived from dst/port, distinctive seq).
    Masscan,
    /// No distinctive fingerprint ("Other" in Figure 4).
    Plain,
}

/// Transport used for a probed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanProto {
    /// TCP SYN probing.
    Tcp,
    /// UDP datagram probing.
    Udp,
    /// ICMP echo; the port field is ignored.
    Icmp,
}

/// One probed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortSpec {
    /// Destination port (ignored for ICMP).
    pub(crate) port: u16,
    /// Transport the probe uses.
    proto: ScanProto,
}

impl PortSpec {
    /// A TCP port.
    pub(crate) const fn tcp(port: u16) -> PortSpec {
        PortSpec { port, proto: ScanProto::Tcp }
    }

    /// A UDP port.
    pub(crate) const fn udp(port: u16) -> PortSpec {
        PortSpec { port, proto: ScanProto::Udp }
    }

    /// ICMP echo probing (portless).
    pub(crate) const fn icmp() -> PortSpec {
        PortSpec { port: 0, proto: ScanProto::Icmp }
    }
}

fn exp_gap(rng: &mut Rng64, rate_pps: f64) -> Dur {
    let gap_s = rng.exp(1.0 / rate_pps.max(1e-9));
    Dur::from_micros(((gap_s * 1e6) as u64).max(1))
}

fn ephemeral_port(rng: &mut Rng64) -> u16 {
    rng.range(32768, 61000) as u16
}

/// A horizontal sweep scanner: covers a fraction of the observable space
/// in a keyed-permutation order, optionally repeating (daily research
/// sweeps), optionally retrying each target several times (bruteforce-
/// flavored scanning).
pub(crate) struct SweepScanner {
    src: Ipv4Addr4,
    tool: ToolKind,
    ports: Vec<PortSpec>,
    rate_pps: f64,
    targets_per_sweep: u64,
    probes_per_target: u32,
    repeat_every: Option<Dur>,
    end: Ts,
    space: Arc<ObservableSpace>,
    /// Initial TTL, a pure function of `src` (one OS/hop-count per host).
    ttl: u8,
    // state
    sweep_no: u64,
    pos: u64,
    probe_no: u32,
    perm: Permutation,
    next: Option<Ts>,
    src_port: u16,
    rng: Rng64,
    seed: u64,
}

/// Configuration for [`SweepScanner`].
pub(crate) struct SweepConfig {
    /// Source address probes are sent from.
    pub(crate) src: Ipv4Addr4,
    /// Tool fingerprint stamped on the probes.
    pub(crate) tool: ToolKind,
    /// Ports rotated across sweeps (sweep *n* probes `ports[n % len]`).
    pub(crate) ports: Vec<PortSpec>,
    /// Observable-space packet rate (see [`ObservableSpace::thin_rate`]).
    pub(crate) rate_pps: f64,
    /// Fraction of the observable space covered per sweep, in (0, 1].
    pub(crate) coverage: f64,
    /// SYNs sent to each target (>1 looks like credential probing).
    pub(crate) probes_per_target: u32,
    /// First probe time.
    pub(crate) start: Ts,
    /// Re-sweep interval (`None` = a single sweep).
    pub(crate) repeat_every: Option<Dur>,
    /// Hard stop; no packets at or after this time.
    pub(crate) end: Ts,
    /// Seed for the permutation and timing jitter.
    pub(crate) seed: u64,
}

impl SweepScanner {
    /// A scanner from its config, probing targets drawn from `space`.
    pub(crate) fn new(cfg: SweepConfig, space: Arc<ObservableSpace>) -> SweepScanner {
        assert!(cfg.coverage > 0.0 && cfg.coverage <= 1.0);
        assert!(!cfg.ports.is_empty());
        assert!(cfg.probes_per_target >= 1);
        let mut rng = Rng64::new(cfg.seed);
        let targets = ((space.len() as f64 * cfg.coverage) as u64).clamp(1, space.len());
        let perm = Permutation::new(space.len(), hash64(cfg.seed));
        let src_port = ephemeral_port(&mut rng);
        SweepScanner {
            src: cfg.src,
            tool: cfg.tool,
            ports: cfg.ports,
            rate_pps: cfg.rate_pps,
            targets_per_sweep: targets,
            probes_per_target: cfg.probes_per_target,
            repeat_every: cfg.repeat_every,
            end: cfg.end,
            space,
            ttl: 48 + (hash64(cfg.src.to_u32() as u64) % 64) as u8,
            sweep_no: 0,
            pos: 0,
            probe_no: 0,
            perm,
            next: (cfg.start < cfg.end).then_some(cfg.start),
            src_port,
            rng,
            seed: cfg.seed,
        }
    }

    fn current_port(&self) -> PortSpec {
        self.ports[wrap_index(self.sweep_no, self.ports.len() as u64) as usize]
    }

    fn advance(&mut self, from: Ts) {
        self.probe_no += 1;
        if self.probe_no >= self.probes_per_target {
            self.probe_no = 0;
            self.pos += 1;
        }
        let mut next = from + exp_gap(&mut self.rng, self.rate_pps);
        if self.pos >= self.targets_per_sweep {
            // Sweep complete.
            match self.repeat_every {
                Some(gap) => {
                    self.pos = 0;
                    self.sweep_no += 1;
                    // New permutation key per sweep, like re-running the tool.
                    self.perm =
                        Permutation::new(self.space.len(), hash64(self.seed ^ self.sweep_no));
                    self.src_port = ephemeral_port(&mut self.rng);
                    // Next sweep starts one repeat interval after this
                    // one *started*; if the sweep overran, start soon.
                    let sweep_start = next;
                    next = sweep_start.max(from + gap);
                }
                None => {
                    self.next = None;
                    return;
                }
            }
        }
        self.next = (next < self.end).then_some(next);
    }
}

impl Actor for SweepScanner {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        let dst = self.space.addr_mod(self.perm.apply(wrap_index(self.pos, self.perm.len())));
        let spec = self.current_port();
        let mut pkt = match spec.proto {
            ScanProto::Tcp => {
                let seq = self.rng.next_u64() as u32;
                let mut p = PacketMeta::tcp_syn(ts, self.src, dst, self.src_port, spec.port);
                if let Transport::Tcp { seq: ref mut s, .. } = p.transport {
                    *s = seq;
                }
                p
            }
            ScanProto::Udp => PacketMeta::udp_probe(ts, self.src, dst, self.src_port, spec.port),
            ScanProto::Icmp => PacketMeta::icmp_echo(ts, self.src, dst),
        };
        pkt.ip_id = match (self.tool, &pkt.transport) {
            (ToolKind::ZMap, _) => ZMAP_IP_ID,
            (ToolKind::Masscan, Transport::Tcp { seq, dst_port, .. }) => {
                masscan_ip_id(dst, *dst_port, *seq)
            }
            _ => (self.rng.next_u64() & 0xffff) as u16,
        };
        pkt.ttl = self.ttl;
        self.advance(ts);
        pkt
    }
}

/// A Mirai-style bot: stateless uniform scanning of 23/2323 with the
/// `seq == dst` fingerprint, at a low per-bot rate, alive for a bounded
/// window (botnet churn comes from populations of bots with staggered
/// lifetimes and rotating source addresses).
pub(crate) struct MiraiBot {
    src: Ipv4Addr4,
    rate_pps: f64,
    end: Ts,
    space: Arc<ObservableSpace>,
    next: Option<Ts>,
    rng: Rng64,
}

impl MiraiBot {
    /// A bot probing from `src` at `rate_pps` between `start` and `end`.
    pub(crate) fn new(
        src: Ipv4Addr4,
        rate_pps: f64,
        start: Ts,
        end: Ts,
        seed: u64,
        space: Arc<ObservableSpace>,
    ) -> MiraiBot {
        MiraiBot {
            src,
            rate_pps,
            end,
            space,
            next: (start < end).then_some(start),
            rng: Rng64::new(seed),
        }
    }
}

impl Actor for MiraiBot {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        let dst = self.space.addr_mod(self.rng.below(self.space.len()));
        // Mirai probes 23 with probability 0.9, else 2323.
        let port = if self.rng.chance(0.9) { 23 } else { 2323 };
        let mut pkt = PacketMeta::tcp_syn(ts, self.src, dst, ephemeral_port(&mut self.rng), port);
        if let Transport::Tcp { ref mut seq, .. } = pkt.transport {
            *seq = dst.to_u32(); // the Mirai invariant
        }
        pkt.ip_id = (self.rng.next_u64() & 0xffff) as u16;
        pkt.ttl = 64;
        let next = ts + exp_gap(&mut self.rng, self.rate_pps);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

/// A vertical port sweeper: walks thousands of destination ports on a
/// small set of targets — the definition-3 population.
pub(crate) struct PortSweeper {
    src: Ipv4Addr4,
    targets: Vec<Ipv4Addr4>,
    port_count: u16,
    rate_pps: f64,
    end: Ts,
    next: Option<Ts>,
    pos: u64,
    rng: Rng64,
}

impl PortSweeper {
    /// Sweeps ports `1..=port_count` on `target_count` targets drawn from
    /// the observable space, cycling indefinitely until `end`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        src: Ipv4Addr4,
        target_count: usize,
        port_count: u16,
        rate_pps: f64,
        start: Ts,
        end: Ts,
        seed: u64,
        space: &ObservableSpace,
    ) -> PortSweeper {
        let mut rng = Rng64::new(seed);
        let targets =
            (0..target_count.max(1)).map(|_| space.addr_mod(rng.below(space.len()))).collect();
        PortSweeper {
            src,
            targets,
            port_count: port_count.max(1),
            rate_pps,
            end,
            next: (start < end).then_some(start),
            pos: 0,
            rng,
        }
    }
}

impl Actor for PortSweeper {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        // Walk ports in the outer loop so each day covers many ports even
        // at modest rates.
        let port = 1 + (self.pos % u64::from(self.port_count)) as u16;
        let dst = self.targets[((self.pos / u64::from(self.port_count)) as usize
            + (self.pos % self.targets.len() as u64) as usize)
            % self.targets.len()];
        self.pos += 1;
        let mut pkt = PacketMeta::tcp_syn(ts, self.src, dst, ephemeral_port(&mut self.rng), port);
        if let Transport::Tcp { ref mut seq, .. } = pkt.transport {
            *seq = self.rng.next_u64() as u32;
        }
        pkt.ip_id = (self.rng.next_u64() & 0xffff) as u16;
        let next = ts + exp_gap(&mut self.rng, self.rate_pps);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

/// DoS backscatter: victims of spoofed-source floods answer to random
/// addresses. Emits SYN-ACK and RST packets that the telescope must
/// capture but *not* classify as scanning.
pub(crate) struct Backscatter {
    victims: Vec<Ipv4Addr4>,
    rate_pps: f64,
    end: Ts,
    space: Arc<ObservableSpace>,
    next: Option<Ts>,
    rng: Rng64,
}

impl Backscatter {
    /// Backscatter from DoS `victims`, spread across the observable space.
    pub(crate) fn new(
        victims: Vec<Ipv4Addr4>,
        rate_pps: f64,
        start: Ts,
        end: Ts,
        seed: u64,
        space: Arc<ObservableSpace>,
    ) -> Backscatter {
        assert!(!victims.is_empty());
        Backscatter {
            victims,
            rate_pps,
            end,
            space,
            next: (start < end).then_some(start),
            rng: Rng64::new(seed),
        }
    }
}

impl Actor for Backscatter {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        let src = *self.rng.choice(&self.victims);
        let dst = self.space.addr_mod(self.rng.below(self.space.len()));
        let flags = if self.rng.chance(0.7) { TcpFlags::SYN_ACK } else { TcpFlags::RST };
        let mut pkt = PacketMeta::tcp_syn(ts, src, dst, 80, ephemeral_port(&mut self.rng));
        if let Transport::Tcp { flags: ref mut f, ref mut seq, .. } = pkt.transport {
            *f = flags;
            *seq = self.rng.next_u64() as u32;
        }
        pkt.ip_id = (self.rng.next_u64() & 0xffff) as u16;
        let next = ts + exp_gap(&mut self.rng, self.rate_pps);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

/// The "small scan" long tail: a large pool of sources (misconfigured
/// devices, one-off probes) each sending a handful of packets. Port mix
/// is deliberately 445-heavy — the paper observes TCP/445 to be a
/// small-scan port that aggressive hitters do *not* prefer.
pub(crate) struct Radiation {
    pool: Vec<Ipv4Addr4>,
    rate_pps: f64,
    end: Ts,
    space: Arc<ObservableSpace>,
    next: Option<Ts>,
    rng: Rng64,
}

/// (port, weight, proto) rows for radiation's port mix.
const RADIATION_PORTS: &[(u16, f64, ScanProto)] = &[
    (445, 3.0, ScanProto::Tcp),
    (1433, 1.2, ScanProto::Tcp),
    (3389, 1.2, ScanProto::Tcp),
    (8080, 1.0, ScanProto::Tcp),
    (5060, 0.8, ScanProto::Udp),
    (53, 0.8, ScanProto::Udp),
    (123, 0.6, ScanProto::Udp),
    (0, 0.8, ScanProto::Icmp),
    (139, 0.6, ScanProto::Tcp),
    (21, 0.5, ScanProto::Tcp),
];

/// The weight column of [`RADIATION_PORTS`], for [`Rng64::weighted`].
const RADIATION_WEIGHTS: [f64; RADIATION_PORTS.len()] = {
    let mut w = [0.0; RADIATION_PORTS.len()];
    let mut i = 0;
    while i < w.len() {
        w[i] = RADIATION_PORTS[i].1;
        i += 1;
    }
    w
};

impl Radiation {
    /// `pool_size` synthetic sources drawn from `source_org_hosts` (a
    /// function index → address, typically an org's `host`).
    pub(crate) fn new(
        pool: Vec<Ipv4Addr4>,
        rate_pps: f64,
        start: Ts,
        end: Ts,
        seed: u64,
        space: Arc<ObservableSpace>,
    ) -> Radiation {
        assert!(!pool.is_empty());
        Radiation {
            pool,
            rate_pps,
            end,
            space,
            next: (start < end).then_some(start),
            rng: Rng64::new(seed),
        }
    }
}

impl Actor for Radiation {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        // Quadratic skew: low indices reappear more often, so some
        // sources form multi-packet events while most send one or two.
        let u = self.rng.f64();
        let idx = ((u * u) * self.pool.len() as f64) as usize;
        let src = self.pool[idx.min(self.pool.len() - 1)];
        let dst = self.space.addr_mod(self.rng.below(self.space.len()));
        let (port, _, proto) = RADIATION_PORTS[self.rng.weighted(&RADIATION_WEIGHTS)];
        let sp = ephemeral_port(&mut self.rng);
        let mut pkt = match proto {
            ScanProto::Tcp => PacketMeta::tcp_syn(ts, src, dst, sp, port),
            ScanProto::Udp => PacketMeta::udp_probe(ts, src, dst, sp, port),
            ScanProto::Icmp => PacketMeta::icmp_echo(ts, src, dst),
        };
        if let Transport::Tcp { ref mut seq, .. } = pkt.transport {
            *seq = self.rng.next_u64() as u32;
        }
        pkt.ip_id = (self.rng.next_u64() & 0xffff) as u16;
        pkt.ttl = 32 + (self.rng.next_u64() % 96) as u8;
        let next = ts + exp_gap(&mut self.rng, self.rate_pps);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

/// A spoofed-source probe flood: an attacker (or a grossly misconfigured
/// device) sprays SYNs across the monitored space with *forged* sources —
/// bogons and random addresses. The telescope's source filter must drop
/// the bogon-sourced ones, and no single forged source ever sends enough
/// to qualify as an aggressive hitter (the paper's false-positive
/// robustness argument, §7).
pub(crate) struct SpoofFlood {
    rate_pps: f64,
    end: Ts,
    space: Arc<ObservableSpace>,
    next: Option<Ts>,
    rng: Rng64,
}

impl SpoofFlood {
    /// A spoofed-source flood at `rate_pps` between `start` and `end`.
    pub(crate) fn new(
        rate_pps: f64,
        start: Ts,
        end: Ts,
        seed: u64,
        space: Arc<ObservableSpace>,
    ) -> SpoofFlood {
        SpoofFlood {
            rate_pps,
            end,
            space,
            next: (start < end).then_some(start),
            rng: Rng64::new(seed),
        }
    }

    fn forged_source(&mut self) -> Ipv4Addr4 {
        match self.rng.below(3) {
            // Multicast / reserved bogons: filterable.
            0 => Ipv4Addr4(0xe000_0000 | (self.rng.next_u64() as u32 & 0x0fff_ffff)),
            1 => Ipv4Addr4(0x7f00_0000 | (self.rng.next_u64() as u32 & 0x00ff_ffff)),
            // Random unicast: unfilterable, but each value recurs ~never.
            _ => Ipv4Addr4(0x5000_0000 | (self.rng.next_u64() as u32 & 0x0fff_ffff)),
        }
    }
}

impl Actor for SpoofFlood {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        let src = self.forged_source();
        let dst = self.space.addr_mod(self.rng.below(self.space.len()));
        let mut pkt = PacketMeta::tcp_syn(ts, src, dst, ephemeral_port(&mut self.rng), 80);
        if let Transport::Tcp { ref mut seq, .. } = pkt.transport {
            *seq = self.rng.next_u64() as u32;
        }
        pkt.ip_id = (self.rng.next_u64() & 0xffff) as u16;
        let next = ts + exp_gap(&mut self.rng, self.rate_pps);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

/// Benign user traffic for one ISP, with diurnal and weekend shape and an
/// optional in-network content-cache bypass.
///
/// The actor maintains a rotating set of "flow slots" (user ↔ remote
/// pairs). Each emission picks a slot and a direction; slots are
/// resampled with a small probability so flows have heavy-ish tails.
/// When `caches` is set, a configurable fraction of *download* traffic is
/// served by a cache host instead of the remote — producing internal ↔
/// internal packets that never cross the border routers.
pub(crate) struct Benign {
    users: Prefix,
    caches: Option<Prefix>,
    cache_fraction: f64,
    remotes: Vec<Prefix>,
    base_rate_pps: f64,
    /// Multiplier applied on weekend days.
    weekend_factor: f64,
    /// Weekday of day 0 (0 = Monday .. 6 = Sunday).
    day0_weekday: u8,
    end: Ts,
    slots: Vec<BenignSlot>,
    next: Option<Ts>,
    rng: Rng64,
    /// `(ts.secs(), rate_of(ts))` of the last [`Benign::rate_at`] call.
    rate_cache: (u64, f64),
}

#[derive(Clone, Copy)]
struct BenignSlot {
    user: Ipv4Addr4,
    remote: Ipv4Addr4,
    /// Cache host standing in for `remote` (when cache-served).
    cache: Option<Ipv4Addr4>,
    user_port: u16,
    remote_port: u16,
}

impl Benign {
    /// Benign user sessions from `users` to `remotes`, a `cache_fraction`
    /// of which are served from `caches` instead of crossing the border.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        users: Prefix,
        caches: Option<Prefix>,
        cache_fraction: f64,
        remotes: Vec<Prefix>,
        base_rate_pps: f64,
        weekend_factor: f64,
        day0_weekday: u8,
        start: Ts,
        end: Ts,
        seed: u64,
    ) -> Benign {
        assert!(!remotes.is_empty());
        let rng = Rng64::new(seed);
        let mut b = Benign {
            users,
            caches,
            cache_fraction,
            remotes,
            base_rate_pps,
            weekend_factor,
            day0_weekday,
            end,
            slots: Vec::new(),
            next: (start < end).then_some(start),
            rng,
            rate_cache: (u64::MAX, 0.0),
        };
        let n_slots = 256;
        for _ in 0..n_slots {
            let slot = b.sample_slot();
            b.slots.push(slot);
        }
        b
    }

    fn sample_slot(&mut self) -> BenignSlot {
        let user = self.users.addr_mod(self.rng.below(self.users.size()) as u32);
        let remote_prefix = *self.rng.choice(&self.remotes);
        let remote = remote_prefix.addr_mod(self.rng.below(remote_prefix.size()) as u32);
        let cache = match (&self.caches, self.rng.chance(self.cache_fraction)) {
            (Some(c), true) => Some(c.addr_mod(self.rng.below(c.size()) as u32)),
            _ => None,
        };
        BenignSlot {
            user,
            remote,
            cache,
            user_port: ephemeral_port(&mut self.rng),
            remote_port: if self.rng.chance(0.8) { 443 } else { 80 },
        }
    }

    /// Time-varying rate: diurnal sinusoid (trough at 04:00, peak at
    /// 16:00 local) times a weekend dampening factor. A step function
    /// of `ts.secs()`: both inputs, second-of-day and day, are.
    fn rate_of(&self, ts: Ts) -> f64 {
        let sod = ts.second_of_day() as f64;
        // sin argument hits +τ/4 (peak) at 16:00 and −τ/4 (trough) at 04:00.
        let phase = (sod / 86_400.0 - 5.0 / 12.0) * std::f64::consts::TAU;
        let diurnal = 1.0 + 0.45 * phase.sin();
        let weekday = (u64::from(self.day0_weekday) + ts.day()) % 7;
        let wk = if weekday >= 5 { self.weekend_factor } else { 1.0 };
        self.base_rate_pps * diurnal * wk
    }

    /// [`Benign::rate_of`], recomputed only when the second changes —
    /// at hundreds of packets per second the `sin` is paid once for all
    /// of them.
    fn rate_at(&mut self, ts: Ts) -> f64 {
        let sec = ts.secs();
        if self.rate_cache.0 != sec {
            self.rate_cache = (sec, self.rate_of(ts));
        }
        self.rate_cache.1
    }
}

impl Actor for Benign {
    fn peek(&self) -> Option<Ts> {
        self.next
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = due(self.next);
        // Occasionally rotate a slot (new flow).
        if self.rng.chance(0.02) {
            let i = self.rng.below(self.slots.len() as u64) as usize;
            self.slots[i] = self.sample_slot();
        }
        let slot = *self.rng.choice(&self.slots);
        let download = self.rng.chance(0.72); // eyeball networks pull
        let remote = slot.cache.unwrap_or(slot.remote);
        let (src, dst, sport, dport, len) = if download {
            (remote, slot.user, slot.remote_port, slot.user_port, 1300u16)
        } else {
            (slot.user, remote, slot.user_port, slot.remote_port, 88u16)
        };
        let mut pkt = PacketMeta {
            ts,
            src,
            dst,
            ip_id: (self.rng.next_u64() & 0xffff) as u16,
            ttl: 57,
            wire_len: len,
            transport: Transport::Tcp {
                src_port: sport,
                dst_port: dport,
                seq: self.rng.next_u64() as u32,
                flags: TcpFlags::ACK, // established-flow traffic, not scans
            },
        };
        if self.rng.chance(0.05) {
            // A sprinkle of pure ACK-less UDP (video/QUIC-ish).
            pkt.transport = Transport::Udp { src_port: sport, dst_port: 443 };
        }
        let rate = self.rate_at(ts);
        let next = ts + exp_gap(&mut self.rng, rate);
        self.next = (next < self.end).then_some(next);
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::fingerprint::{classify, Tool};
    use ah_net::packet::ScanClass;
    use std::collections::HashSet;

    fn space() -> Arc<ObservableSpace> {
        Arc::new(ObservableSpace::new(vec![
            "20.0.0.0/24".parse().unwrap(),
            "10.0.0.0/25".parse().unwrap(),
        ]))
    }

    fn drain(actor: &mut dyn Actor, max: usize) -> Vec<PacketMeta> {
        let mut out = Vec::new();
        while actor.peek().is_some() && out.len() < max {
            out.push(actor.emit());
        }
        out
    }

    const SRC: Ipv4Addr4 = Ipv4Addr4::new(100, 64, 0, 1);

    fn sweep_cfg() -> SweepConfig {
        SweepConfig {
            src: SRC,
            tool: ToolKind::ZMap,
            ports: vec![PortSpec::tcp(6379)],
            rate_pps: 100.0,
            coverage: 1.0,
            probes_per_target: 1,
            start: Ts::from_secs(10),
            repeat_every: None,
            end: Ts::from_days(30),
            seed: 7,
        }
    }

    #[test]
    fn sweep_covers_space_without_duplicates() {
        let sp = space();
        let mut s = SweepScanner::new(sweep_cfg(), sp.clone());
        let pkts = drain(&mut s, 10_000);
        assert_eq!(pkts.len() as u64, sp.len());
        let dsts: HashSet<_> = pkts.iter().map(|p| p.dst).collect();
        assert_eq!(dsts.len() as u64, sp.len(), "full coverage, no duplicates");
        assert!(pkts.iter().all(|p| p.scan_class() == Some(ScanClass::TcpSyn)));
        assert!(pkts.iter().all(|p| p.dst_port() == Some(6379)));
        // Time-ordered.
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn zmap_fingerprint_stamped() {
        let mut s = SweepScanner::new(sweep_cfg(), space());
        let pkts = drain(&mut s, 50);
        assert!(pkts.iter().all(|p| classify(p) == Tool::ZMap));
    }

    #[test]
    fn masscan_fingerprint_stamped() {
        let mut cfg = sweep_cfg();
        cfg.tool = ToolKind::Masscan;
        let mut s = SweepScanner::new(cfg, space());
        let pkts = drain(&mut s, 50);
        assert!(pkts.iter().all(|p| classify(p) == Tool::Masscan));
    }

    #[test]
    fn plain_tool_is_mostly_other() {
        let mut cfg = sweep_cfg();
        cfg.tool = ToolKind::Plain;
        let mut s = SweepScanner::new(cfg, space());
        let pkts = drain(&mut s, 200);
        let other = pkts.iter().filter(|p| classify(p) == Tool::Other).count();
        assert!(other > 195, "{other}/200"); // rare accidental collisions allowed
    }

    #[test]
    fn coverage_fraction_respected() {
        let mut cfg = sweep_cfg();
        cfg.coverage = 0.25;
        let sp = space();
        let mut s = SweepScanner::new(cfg, sp.clone());
        let pkts = drain(&mut s, 10_000);
        assert_eq!(pkts.len() as u64, sp.len() / 4);
    }

    #[test]
    fn probes_per_target_repeats() {
        let mut cfg = sweep_cfg();
        cfg.probes_per_target = 3;
        cfg.coverage = 0.1;
        let sp = space();
        let mut s = SweepScanner::new(cfg, sp.clone());
        let pkts = drain(&mut s, 10_000);
        let expected = (sp.len() as f64 * 0.1) as u64 * 3;
        assert_eq!(pkts.len() as u64, expected);
        // Consecutive triples share a destination.
        assert_eq!(pkts[0].dst, pkts[1].dst);
        assert_eq!(pkts[1].dst, pkts[2].dst);
        assert_ne!(pkts[2].dst, pkts[3].dst);
    }

    #[test]
    fn repeat_sweeps_use_fresh_permutations() {
        let mut cfg = sweep_cfg();
        cfg.coverage = 0.5;
        cfg.repeat_every = Some(Dur::from_mins(1));
        cfg.end = Ts::from_secs(10) + Dur::from_secs(600);
        let sp = space();
        let mut s = SweepScanner::new(cfg, sp.clone());
        let pkts = drain(&mut s, 100_000);
        let per_sweep = (sp.len() / 2) as usize;
        assert!(pkts.len() > per_sweep, "should re-sweep");
        let first: Vec<_> = pkts[..per_sweep].iter().map(|p| p.dst).collect();
        let second: Vec<_> =
            pkts[per_sweep..(2 * per_sweep).min(pkts.len())].iter().map(|p| p.dst).collect();
        assert_ne!(first[..second.len()], second[..], "orders should differ across sweeps");
    }

    #[test]
    fn port_rotation_across_sweeps() {
        let mut cfg = sweep_cfg();
        cfg.ports = vec![PortSpec::tcp(23), PortSpec::udp(161)];
        cfg.coverage = 0.1;
        cfg.repeat_every = Some(Dur::from_secs(1));
        cfg.end = Ts::from_secs(200);
        let mut s = SweepScanner::new(cfg, space());
        let pkts = drain(&mut s, 100_000);
        let tcp23 = pkts.iter().any(|p| p.dst_port() == Some(23) && p.protocol() == 6);
        let udp161 = pkts.iter().any(|p| p.dst_port() == Some(161) && p.protocol() == 17);
        assert!(tcp23 && udp161);
    }

    #[test]
    fn sweep_respects_end_time() {
        let mut cfg = sweep_cfg();
        cfg.rate_pps = 0.1; // far too slow to finish
        cfg.end = Ts::from_secs(100);
        let mut s = SweepScanner::new(cfg, space());
        let pkts = drain(&mut s, 10_000);
        assert!(pkts.iter().all(|p| p.ts < Ts::from_secs(100)));
        assert!(pkts.len() < 30);
    }

    #[test]
    fn mirai_bot_invariants() {
        let sp = space();
        let mut b = MiraiBot::new(SRC, 50.0, Ts::ZERO, Ts::from_secs(60), 3, sp);
        let pkts = drain(&mut b, 100_000);
        assert!(!pkts.is_empty());
        for p in &pkts {
            assert_eq!(classify(p), Tool::Mirai);
            let port = p.dst_port().unwrap();
            assert!(port == 23 || port == 2323);
        }
        let p23 = pkts.iter().filter(|p| p.dst_port() == Some(23)).count();
        assert!(p23 * 10 > pkts.len() * 7, "23 should dominate");
    }

    #[test]
    fn port_sweeper_covers_many_ports() {
        let sp = space();
        let mut s = PortSweeper::new(SRC, 4, 500, 1000.0, Ts::ZERO, Ts::from_secs(30), 5, &sp);
        let pkts = drain(&mut s, 5000);
        let ports: HashSet<_> = pkts.iter().filter_map(|p| p.dst_port()).collect();
        assert!(ports.len() >= 400, "distinct ports: {}", ports.len());
        let dsts: HashSet<_> = pkts.iter().map(|p| p.dst).collect();
        assert!(dsts.len() <= 4);
    }

    #[test]
    fn backscatter_is_never_scanning() {
        let sp = space();
        let victims = vec![Ipv4Addr4::new(150, 0, 0, 1), Ipv4Addr4::new(150, 0, 0, 2)];
        let mut b = Backscatter::new(victims.clone(), 100.0, Ts::ZERO, Ts::from_secs(10), 9, sp);
        let pkts = drain(&mut b, 10_000);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.scan_class().is_none()));
        assert!(pkts.iter().all(|p| victims.contains(&p.src)));
    }

    #[test]
    fn radiation_tail_shape() {
        let sp = space();
        let pool: Vec<Ipv4Addr4> = (0..500).map(|i| Ipv4Addr4(0x6e00_0000 + i)).collect();
        let mut r = Radiation::new(pool, 500.0, Ts::ZERO, Ts::from_secs(20), 11, sp);
        let pkts = drain(&mut r, 100_000);
        assert!(pkts.len() > 5000);
        // Many distinct sources, each with few packets on average.
        let srcs: HashSet<_> = pkts.iter().map(|p| p.src).collect();
        assert!(srcs.len() > 200, "{}", srcs.len());
        // 445 is the plurality port.
        let p445 = pkts.iter().filter(|p| p.dst_port() == Some(445)).count();
        let p21 = pkts.iter().filter(|p| p.dst_port() == Some(21)).count();
        assert!(p445 > p21);
        // All three scan classes appear.
        let classes: HashSet<_> = pkts.iter().filter_map(|p| p.scan_class()).collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn spoof_flood_sources_never_repeat_much() {
        let sp = space();
        let mut f = SpoofFlood::new(200.0, Ts::ZERO, Ts::from_secs(60), 21, sp);
        let pkts = drain(&mut f, 50_000);
        assert!(pkts.len() > 2000);
        let srcs: HashSet<_> = pkts.iter().map(|p| p.src).collect();
        // Essentially every packet has a fresh forged source.
        assert!(srcs.len() * 10 > pkts.len() * 9, "{} srcs / {} pkts", srcs.len(), pkts.len());
        // A third-ish are filterable bogons.
        let bogons = ah_net::prefix::standard_bogons();
        let filtered = pkts.iter().filter(|p| bogons.contains(p.src)).count();
        assert!(filtered * 3 > pkts.len(), "{filtered}");
        assert!(pkts.iter().all(|p| p.scan_class().is_some()));
    }

    fn benign() -> Benign {
        Benign::new(
            "10.0.0.0/25".parse().unwrap(),
            Some("10.128.0.0/28".parse().unwrap()),
            0.6,
            vec!["150.0.0.0/24".parse().unwrap()],
            200.0,
            0.6,
            5, // day 0 = Saturday
            Ts::ZERO,
            Ts::from_days(3),
            13,
        )
    }

    #[test]
    fn benign_traffic_is_not_scanning() {
        let mut b = benign();
        let pkts = drain(&mut b, 2000);
        assert!(pkts.iter().all(|p| p.scan_class() != Some(ScanClass::TcpSyn)));
    }

    #[test]
    fn cache_fraction_stays_internal() {
        let mut b = benign();
        let cache_prefix: Prefix = "10.128.0.0/28".parse().unwrap();
        let pkts = drain(&mut b, 5000);
        let cache_pkts = pkts
            .iter()
            .filter(|p| cache_prefix.contains(p.src) || cache_prefix.contains(p.dst))
            .count();
        let frac = cache_pkts as f64 / pkts.len() as f64;
        assert!((0.4..0.8).contains(&frac), "cache fraction {frac}");
    }

    #[test]
    fn weekend_rate_is_lower() {
        let b = benign(); // day 0 = Saturday, day 2 = Monday
        let sat = b.rate_of(Ts::from_days(0) + Dur::from_secs(12 * 3600));
        let mon = b.rate_of(Ts::from_days(2) + Dur::from_secs(12 * 3600));
        assert!(mon > sat * 1.3, "mon {mon} vs sat {sat}");
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let b = benign();
        let peak = b.rate_of(Ts::from_days(2) + Dur::from_secs(16 * 3600));
        let trough = b.rate_of(Ts::from_days(2) + Dur::from_secs(4 * 3600));
        assert!(peak > trough * 1.8, "peak {peak} trough {trough}");
    }

    #[test]
    fn cached_rate_equals_uncached_across_boundaries() {
        let mut b = benign(); // day 0 = Saturday, day 1 = Sunday, day 2 = Monday
        let us = Dur::from_micros;
        // Walk forwards over a second boundary, the Saturday→Sunday day
        // boundary and the Sunday→Monday weekend boundary, with repeats
        // inside one second so both the hit and the miss arm run.
        let walk = [
            Ts::from_secs(3600),
            Ts::from_secs(3600) + us(1),
            Ts::from_secs(3600) + us(999_999),
            Ts::from_secs(3601),
            Ts::from_micros(Ts::from_days(1).micros() - 1),
            Ts::from_days(1),
            Ts::from_days(1) + us(500_000),
            Ts::from_micros(Ts::from_days(2).micros() - 1),
            Ts::from_days(2),
            Ts::from_days(2) + us(1),
        ];
        for ts in walk {
            let (cached, fresh) = (b.rate_at(ts), b.rate_of(ts));
            assert_eq!(cached.to_bits(), fresh.to_bits(), "at {ts}");
        }
        // The boundaries really are boundaries: the rate steps at each.
        assert_ne!(b.rate_of(walk[2]).to_bits(), b.rate_of(walk[3]).to_bits());
        assert!(b.rate_of(walk[8]) > b.rate_of(walk[7]) * 1.3, "weekday after weekend");
        // And a clock that steps back into an earlier second misses too.
        assert_eq!(b.rate_at(walk[0]).to_bits(), b.rate_of(walk[0]).to_bits());
    }

    #[test]
    fn mostly_download_heavy() {
        let mut b = benign();
        let pkts = drain(&mut b, 3000);
        let big = pkts.iter().filter(|p| p.wire_len > 1000).count();
        assert!(big * 10 > pkts.len() * 5, "download-dominant: {big}/{}", pkts.len());
    }
}
