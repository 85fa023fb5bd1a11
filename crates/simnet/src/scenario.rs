//! Paper-shaped scenario presets.
//!
//! A scenario assembles a [`World`] and a population of actors whose mix
//! reproduces the *shape* of the paper's observations (who the hitters
//! are, what they target, how they grow year over year), at a scale that
//! runs on a laptop. Absolute counts are scaled down roughly 1:50 from
//! the paper; every definition downstream is a fraction or percentile, so
//! the detector semantics survive the scaling (see DESIGN.md §2).

use crate::actors::{
    Backscatter, Benign, MiraiBot, PortSpec, PortSweeper, Radiation, SweepConfig, SweepScanner,
    ToolKind,
};
use crate::mux::TrafficMux;
use crate::rng::Rng64;
use crate::world::{World, WorldConfig};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::time::{Dur, Ts, MICROS_PER_DAY};
use std::sync::Arc;

/// Which measurement year's population mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Year {
    /// Darknet-1 (calendar 2021).
    Y2021,
    /// Darknet-2 (2022 through mid-October).
    Y2022,
}

/// Whether to generate benign ISP traffic (expensive; only the flow/tap
/// experiments need it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenignLevel {
    /// Scanning traffic only (darknet characterization runs).
    Off,
    /// Merit user traffic only.
    Merit,
    /// Merit and CU user traffic (packet-tap experiments).
    MeritAndCu,
}

/// Population intensities. All "alive" figures are time-averaged targets;
/// arrivals ramp up over the run to reproduce Figure 3's growth.
#[derive(Debug, Clone)]
pub struct Intensity {
    /// Concurrently-alive aggressive cloud/ISP sweep scanners.
    cloud_sweepers_alive: f64,
    /// Mean sweeper lifetime in days.
    sweeper_lifetime_days: f64,
    /// Concurrently-alive Mirai-style bots.
    mirai_alive: f64,
    /// Mean bot lifetime in days (IP churn).
    mirai_lifetime_days: f64,
    /// Research (acknowledged) source IPs actively sweeping.
    research_ips: usize,
    /// Days between consecutive sweeps of one research IP.
    research_cycle_days: f64,
    /// Concurrently-alive vertical port sweepers (definition-3 hitters).
    port_sweepers_alive: f64,
    /// Mean port-sweeper lifetime in days.
    port_sweeper_lifetime_days: f64,
    /// Aggregate background-radiation rate into the observable space (pps).
    radiation_pps: f64,
    /// Size of the radiation source window alive at any time.
    radiation_window: u64,
    /// How many fresh radiation sources appear per day (DHCP-like churn).
    radiation_drift_per_day: u64,
    /// Concurrently-alive volume floods: high packet volume on few
    /// targets (definition-2-only hitters; the paper's 2022 D2
    /// population is ~2x D1 with D1 fully contained).
    flood_alive: f64,
    /// Aggregate DoS-backscatter rate (pps).
    backscatter_pps: f64,
    /// Merit benign border traffic (pps, before diurnal shaping).
    pub benign_merit_pps: f64,
    /// CU benign border traffic (pps).
    benign_cu_pps: f64,
    /// Growth of arrival rates across the run (0.3 = +30% by the end).
    growth: f64,
}

impl Intensity {
    /// The 2022 mix (Darknet-2).
    pub(crate) fn year2022() -> Intensity {
        Intensity {
            cloud_sweepers_alive: 16.0,
            sweeper_lifetime_days: 5.0,
            mirai_alive: 20.0,
            mirai_lifetime_days: 5.0,
            research_ips: 18,
            research_cycle_days: 7.0,
            port_sweepers_alive: 6.0,
            port_sweeper_lifetime_days: 18.0,
            radiation_pps: 1.8,
            radiation_window: 20_000,
            radiation_drift_per_day: 700,
            flood_alive: 18.0,
            backscatter_pps: 0.25,
            benign_merit_pps: 680.0,
            benign_cu_pps: 150.0,
            growth: 0.35,
        }
    }

    /// The 2021 mix (Darknet-1): ~20% fewer hitters, same structure.
    pub(crate) fn year2021() -> Intensity {
        Intensity {
            cloud_sweepers_alive: 13.0,
            mirai_alive: 16.0,
            research_ips: 16,
            port_sweepers_alive: 5.0,
            radiation_pps: 2.1,
            flood_alive: 5.0,
            growth: 0.30,
            ..Intensity::year2022()
        }
    }

    /// Small population for tests (pairs with [`WorldConfig::tiny`]).
    pub(crate) fn tiny() -> Intensity {
        Intensity {
            cloud_sweepers_alive: 3.0,
            sweeper_lifetime_days: 4.0,
            mirai_alive: 5.0,
            mirai_lifetime_days: 2.0,
            research_ips: 4,
            research_cycle_days: 2.0,
            port_sweepers_alive: 1.0,
            port_sweeper_lifetime_days: 4.0,
            radiation_pps: 0.8,
            radiation_window: 500,
            radiation_drift_per_day: 50,
            flood_alive: 1.0,
            backscatter_pps: 0.1,
            benign_merit_pps: 2.0,
            benign_cu_pps: 0.8,
            growth: 0.2,
        }
    }

    fn for_year(year: Year) -> Intensity {
        match year {
            Year::Y2021 => Intensity::year2021(),
            Year::Y2022 => Intensity::year2022(),
        }
    }
}

/// (port, weight) profile of aggressive-hitter sweeps for one year —
/// shaped after Figure 4 (Redis and Telnet lead, SSH third; TCP
/// dominates; four UDP services and ICMP complete the top-25).
fn ah_port_profile(year: Year) -> Vec<(PortSpec, f64)> {
    let mut v = vec![
        (PortSpec::tcp(6379), 30.0), // Redis
        (PortSpec::tcp(23), 14.0),   // Telnet (bots supply most 23/tcp)
        (PortSpec::tcp(22), 14.0),   // SSH
        (PortSpec::tcp(80), 9.0),
        (PortSpec::tcp(8080), 7.0),
        (PortSpec::tcp(443), 6.0),
        (PortSpec::tcp(3389), 4.0),
        (PortSpec::tcp(5900), 3.0),
        (PortSpec::tcp(2323), 3.0),
        (PortSpec::tcp(81), 2.5),
        (PortSpec::tcp(8443), 2.0),
        (PortSpec::tcp(1023), 2.0),
        (PortSpec::tcp(5555), 2.0),
        (PortSpec::tcp(7547), 1.5),
        (PortSpec::tcp(8088), 1.5),
        (PortSpec::tcp(60001), 1.5),
        (PortSpec::tcp(2375), 1.5),
        (PortSpec::tcp(6443), 1.0),
        (PortSpec::tcp(9527), 1.0),
        (PortSpec::tcp(52869), 1.0),
        (PortSpec::udp(5060), 2.5),
        (PortSpec::udp(53), 1.5),
        (PortSpec::udp(123), 1.0),
        (PortSpec::udp(161), 1.0),
        (PortSpec::icmp(), 2.0),
    ];
    if year == Year::Y2021 {
        // 2021 tail differs in 5 of the top-25 (the paper observes 20/25
        // stable year-over-year).
        v.truncate(20);
        v.push((PortSpec::tcp(1433), 1.5));
        v.push((PortSpec::udp(5060), 2.5));
        v.push((PortSpec::udp(1900), 1.2));
        v.push((PortSpec::udp(123), 1.0));
        v.push((PortSpec::icmp(), 2.2));
    }
    v
}

/// Weighted origin orgs for aggressive sweepers, per year (Table 5 shape:
/// the same US cloud dominates both years; 2021 ranks a CN cloud second,
/// 2022 a CN ISP second).
fn sweeper_origins(year: Year) -> Vec<(&'static str, f64)> {
    match year {
        Year::Y2021 => vec![
            ("Umbra Cloud", 0.30),
            ("Jade Cloud", 0.14),
            ("Great Wall Telecom", 0.08),
            ("Dragon Hosting", 0.10),
            ("Formosa Net", 0.06),
            ("Red Lantern Broadband", 0.07),
            ("Taiga Net", 0.05),
            ("Prairie ISP", 0.05),
            ("Nimbus Compute", 0.06),
            ("Vapor Cloud", 0.04),
            ("Elbe Hosting", 0.03),
            ("Polder Cloud", 0.02),
        ],
        Year::Y2022 => vec![
            ("Umbra Cloud", 0.28),
            ("Great Wall Telecom", 0.15),
            ("Red Lantern Broadband", 0.12),
            ("Jade Cloud", 0.11),
            ("Han River Telecom", 0.07),
            ("Dragon Hosting", 0.08),
            ("Formosa Net", 0.06),
            ("Nimbus Compute", 0.05),
            ("Vapor Cloud", 0.05),
            ("Stratus Platform", 0.03),
            ("Elbe Hosting", 0.02),
            ("Polder Cloud", 0.02),
        ],
    }
}

/// Weighted origin orgs for Mirai-style bots (IoT-heavy access ISPs).
fn bot_origins() -> Vec<(&'static str, f64)> {
    vec![
        ("Great Wall Telecom", 0.18),
        ("Red Lantern Broadband", 0.15),
        ("Umbra Cloud", 0.14),
        ("Formosa Net", 0.14),
        ("Han River Telecom", 0.13),
        ("Misc Internet", 0.13),
        ("Taiga Net", 0.07),
        ("Prairie ISP", 0.06),
    ]
}

/// A fully-assembled scenario: world + time-ordered traffic.
pub struct Scenario {
    /// Address plan and org registry.
    pub world: World,
    /// The time-ordered traffic source, ready to drain.
    pub mux: TrafficMux,
}

#[derive(Debug, Clone)]
/// Builder inputs for [`Scenario::build`].
pub struct ScenarioConfig {
    /// Human-readable name ("darknet-2021", ...).
    pub label: String,
    /// Measurement year (drives the actor mix).
    pub(crate) year: Year,
    /// Scenario length in days.
    pub days: u64,
    /// Address plan to build the world from.
    pub world: WorldConfig,
    /// Scanner population scale.
    pub intensity: Intensity,
    /// Benign-traffic volume.
    pub benign: BenignLevel,
    /// Master seed; all actor seeds derive from it.
    pub(crate) seed: u64,
    /// Weekday of day 0 (0 = Monday .. 6 = Sunday). The paper's flow week
    /// starts Saturday 2022-01-15.
    pub(crate) day0_weekday: u8,
}

impl ScenarioConfig {
    /// Darknet characterization run (no benign traffic).
    pub fn darknet(year: Year, days: u64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            label: match year {
                Year::Y2021 => "darknet-1".into(),
                Year::Y2022 => "darknet-2".into(),
            },
            year,
            days,
            world: WorldConfig::default(),
            intensity: Intensity::for_year(year),
            benign: BenignLevel::Off,
            seed,
            day0_weekday: 4, // 2021-01-01 and 2022-01-01 were Fri/Sat; Fri.
        }
    }

    /// Flow-measurement run with Merit benign traffic. Day 0 is a
    /// Saturday, like 2022-01-15.
    pub fn flows(days: u64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            label: "flows".into(),
            year: Year::Y2022,
            days,
            world: WorldConfig::default(),
            intensity: Intensity::year2022(),
            benign: BenignLevel::Merit,
            seed,
            day0_weekday: 4, // day 0 is a warm-up Friday; the reported week starts Saturday
        }
    }

    /// Packet-tap run with both networks' benign traffic (72 h default).
    pub fn taps(days: u64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            label: "taps".into(),
            year: Year::Y2022,
            days,
            world: WorldConfig::default(),
            intensity: Intensity::year2022(),
            benign: BenignLevel::MeritAndCu,
            seed,
            day0_weekday: 0, // 2022-11-28 was a Monday
        }
    }

    /// Tiny run for tests.
    pub fn tiny(days: u64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            label: "tiny".into(),
            year: Year::Y2022,
            days,
            world: WorldConfig::tiny(),
            intensity: Intensity::tiny(),
            benign: BenignLevel::MeritAndCu,
            seed,
            day0_weekday: 5,
        }
    }
}

impl Scenario {
    /// Assemble the world and actor population.
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        // The whole substrate — world model, actor population and the
        // mux's window buffers, reserved in `TrafficMux::new` — is
        // charged to the mux account.
        let _mem = ah_mem::MemScope::enter(ah_mem::Tag::Mux);
        let world = World::new(cfg.world.clone());
        let space = Arc::new(world.observable().clone());
        let mut rng = Rng64::new(cfg.seed);
        let mut mux = TrafficMux::new();
        let end = Ts::from_days(cfg.days);
        let ports = ah_port_profile(cfg.year);
        let port_weights: Vec<f64> = ports.iter().map(|(_, w)| *w).collect();

        // --- Aggressive cloud/ISP sweepers -------------------------------
        let origins = sweeper_origins(cfg.year);
        let origin_weights: Vec<f64> = origins.iter().map(|(_, w)| *w).collect();
        let mut arrivals = ArrivalProcess::new(
            cfg.intensity.cloud_sweepers_alive,
            cfg.intensity.sweeper_lifetime_days,
            cfg.days,
            cfg.intensity.growth,
        );
        while let Some((start_day, life_days)) = arrivals.next(&mut rng) {
            let org = world.registry_org(origins[rng.weighted(&origin_weights)].0);
            let src = org.host_cycled(rng.below(org.size()));
            // Rotate through 1-3 ports across sweeps; heavier hitters
            // retry targets (bruteforce flavor) on 22/23.
            let mut my_ports = Vec::new();
            for _ in 0..rng.range(1, 4) {
                my_ports.push(ports[rng.weighted(&port_weights)].0);
            }
            let brute = my_ports.iter().any(|p| p.port == 22 || p.port == 23 || p.port == 2323)
                && rng.chance(0.4);
            // ~40% of hitters scan *continuously* at a lower rate (their
            // darknet event spans their whole lifetime — the paper's
            // "active" population exceeding the "daily" one ~3x); the
            // rest run a discrete sweep roughly once a day.
            let persistent = rng.chance(0.6);
            let (rate_pps, repeat_every) = if persistent {
                (rng.pareto(0.06, 1.0, 1.2), Some(Dur::from_micros(1)))
            } else {
                (
                    rng.pareto(0.6, 9.0, 1.1),
                    Some(Dur::from_secs((86_400.0 * (0.7 + 0.8 * rng.f64())) as u64)),
                )
            };
            mux.add(Box::new(SweepScanner::new(
                SweepConfig {
                    src,
                    tool: match rng.weighted(&[0.40, 0.30, 0.30]) {
                        0 => ToolKind::ZMap,
                        1 => ToolKind::Masscan,
                        _ => ToolKind::Plain,
                    },
                    ports: my_ports,
                    rate_pps,
                    coverage: 0.15 + 0.85 * rng.f64(),
                    probes_per_target: if brute { 3 } else { 1 },
                    start: day_ts(start_day) + jitter(&mut rng),
                    repeat_every,
                    end: end.min(day_ts(start_day + life_days)),
                    seed: rng.next_u64(),
                },
                space.clone(),
            )));
        }

        // --- Volume floods (definition-2-only hitters) ---------------------
        // High packet volume concentrated on a small slice of the space:
        // below the 10% dispersion cut but far out in the packet-volume
        // tail. The paper's 2022 D2 population is ~2x D1 with D1 fully
        // contained — these are the extra members.
        let mut arrivals =
            ArrivalProcess::new(cfg.intensity.flood_alive, 6.0, cfg.days, cfg.intensity.growth);
        while let Some((start_day, life_days)) = arrivals.next(&mut rng) {
            let org = world.registry_org(origins[rng.weighted(&origin_weights)].0);
            let src = org.host_cycled(rng.below(org.size()));
            mux.add(Box::new(SweepScanner::new(
                SweepConfig {
                    src,
                    tool: ToolKind::Plain,
                    ports: vec![*rng.choice(&[
                        PortSpec::tcp(22),
                        PortSpec::tcp(23),
                        PortSpec::tcp(3389),
                        PortSpec::tcp(445),
                        PortSpec::udp(5060),
                        PortSpec::udp(53),
                    ])],
                    rate_pps: rng.pareto(0.9, 5.0, 1.2),
                    coverage: 0.02 + 0.06 * rng.f64(),
                    probes_per_target: 4 + rng.pareto(1.0, 30.0, 1.1) as u32,
                    start: day_ts(start_day) + jitter(&mut rng),
                    repeat_every: Some(Dur::from_secs((86_400.0 * (0.8 + 0.6 * rng.f64())) as u64)),
                    end: end.min(day_ts(start_day + life_days)),
                    seed: rng.next_u64(),
                },
                space.clone(),
            )));
        }

        // --- Mirai-style bots --------------------------------------------
        let bots = bot_origins();
        let bot_weights: Vec<f64> = bots.iter().map(|(_, w)| *w).collect();
        let mut arrivals = ArrivalProcess::new(
            cfg.intensity.mirai_alive,
            cfg.intensity.mirai_lifetime_days,
            cfg.days,
            cfg.intensity.growth,
        );
        while let Some((start_day, life_days)) = arrivals.next(&mut rng) {
            let org = world.registry_org(bots[rng.weighted(&bot_weights)].0);
            let src = org.host_cycled(rng.below(org.size()));
            mux.add(Box::new(MiraiBot::new(
                src,
                rng.pareto(0.06, 0.7, 1.2),
                day_ts(start_day) + jitter(&mut rng),
                end.min(day_ts(start_day + life_days)),
                rng.next_u64(),
                space.clone(),
            )));
        }

        // --- Acknowledged research sweeps --------------------------------
        let research = world.orgs_where(|o| o.is_acked());
        for i in 0..cfg.intensity.research_ips {
            let acked_idx = i % research.len();
            let org = &world.orgs[research[acked_idx]];
            // Research orgs use a handful of scanning hosts each — some
            // in their own prefixes, every third one a rented cloud VM
            // (Table 5's ACKed-inside-the-cloud rows). Host indices
            // beyond the disclosed-list size exercise the rDNS match
            // stage (see World::acked_list).
            #[expect(
                clippy::expect_used,
                reason = "acked registry orgs and the cloud pool are non-empty by construction; World::acked_list tests pin this"
            )]
            let src = if i % 3 == 2 {
                world.acked_cloud_host(acked_idx, (i / research.len()) as u64)
            } else {
                org.host((i / research.len()) as u64 * 7 + (i % 5) as u64)
            }
            .expect("acked org addresses exist");
            let port = ports[rng.weighted(&port_weights)].0;
            mux.add(Box::new(SweepScanner::new(
                SweepConfig {
                    src,
                    tool: ToolKind::ZMap, // research tooling is ZMap-derived
                    ports: vec![port, PortSpec::tcp(443), PortSpec::tcp(80)],
                    rate_pps: rng.pareto(1.5, 9.0, 1.4),
                    coverage: 0.7 + 0.3 * rng.f64(),
                    probes_per_target: 1,
                    start: Ts::from_micros(rng.below(MICROS_PER_DAY)),
                    repeat_every: Some(Dur::from_secs(
                        (86_400.0 * cfg.intensity.research_cycle_days * (0.8 + 0.4 * rng.f64()))
                            as u64,
                    )),
                    end,
                    seed: rng.next_u64(),
                },
                space.clone(),
            )));
        }

        // --- Vertical port sweepers (definition-3 hitters) ---------------
        let mut arrivals = ArrivalProcess::new(
            cfg.intensity.port_sweepers_alive,
            cfg.intensity.port_sweeper_lifetime_days,
            cfg.days,
            cfg.intensity.growth,
        );
        let research_orgs = world.orgs_where(|o| o.is_acked());
        while let Some((start_day, life_days)) = arrivals.next(&mut rng) {
            // Definition-3 origins differ from D1/D2: the paper even
            // finds research institutions among them. ~20% of vertical
            // scanners here come from acknowledged orgs.
            let origin = if rng.chance(0.3) {
                &world.orgs[*rng.choice(&research_orgs)]
            } else {
                world.registry_org(origins[rng.weighted(&origin_weights)].0)
            };
            let src = origin.host_cycled(rng.below(origin.size()));
            // Port breadth differs by year: the paper's D3 ECDF threshold
            // jumps from 6,542 (2021) to 57,410 (2022) ports/day.
            let port_count = match cfg.year {
                Year::Y2021 => rng.range(1_500, 8_000) as u16,
                Year::Y2022 => rng.range(6_000, 60_000).min(65_535) as u16,
            };
            let start = day_ts(start_day) + jitter(&mut rng);
            let stop = end.min(day_ts(start_day + life_days));
            mux.add(Box::new(PortSweeper::new(
                src,
                rng.range(4, 24) as usize,
                port_count,
                rng.pareto(0.15, 1.5, 1.3),
                start,
                stop,
                rng.next_u64(),
                &space,
            )));
            // A minority of vertical scanners also sweep horizontally
            // from the same address ("omni" scanners) — the small
            // D1∩D3 / D2∩D3 intersections of Table 7.
            if rng.chance(0.3) {
                mux.add(Box::new(SweepScanner::new(
                    SweepConfig {
                        src,
                        tool: ToolKind::Plain,
                        ports: vec![ports[rng.weighted(&port_weights)].0],
                        rate_pps: rng.pareto(1.0, 8.0, 1.3),
                        coverage: 0.5 + 0.5 * rng.f64(),
                        probes_per_target: 2,
                        start,
                        repeat_every: Some(Dur::from_secs(86_400)),
                        end: stop,
                        seed: rng.next_u64(),
                    },
                    space.clone(),
                )));
            }
        }

        // --- DoS backscatter ----------------------------------------------
        let content = world.registry_org("Hyperflix CDN");
        let victims: Vec<Ipv4Addr4> =
            (0..40).map(|_| content.host_cycled(rng.below(content.size()))).collect();
        mux.add(Box::new(Backscatter::new(
            victims,
            cfg.intensity.backscatter_pps,
            Ts::ZERO,
            end,
            rng.next_u64(),
            space.clone(),
        )));

        // --- Spoofed-source probe flood ------------------------------------
        // Forged sources (bogons + random unicast) sprayed across the
        // space: exercises the telescope's source filter and the
        // definitions' robustness to spoofing (no forged source repeats
        // enough to qualify).
        mux.add(Box::new(crate::actors::SpoofFlood::new(
            cfg.intensity.backscatter_pps * 0.8,
            Ts::ZERO,
            end,
            rng.next_u64(),
            space.clone(),
        )));

        // --- Background radiation (the small-scan long tail) --------------
        // A rotating window over a large source pool: `window` sources
        // alive at a time, `drift` fresh ones per day — producing the
        // paper's large daily and even larger yearly unique-source counts.
        let misc = world.registry_org("Misc Internet");
        let window = cfg.intensity.radiation_window;
        let drift = cfg.intensity.radiation_drift_per_day;
        // One radiation actor per ~week keeps the pool rotating without a
        // custom actor: each covers a slice of days with its own window.
        let slice_days = 7u64.min(cfg.days.max(1));
        let mut day = 0u64;
        let mut slice_no = 0u64;
        while day < cfg.days {
            let span = slice_days.min(cfg.days - day);
            let pool: Vec<Ipv4Addr4> =
                (0..window).map(|i| misc.host_cycled(slice_no * drift * slice_days + i)).collect();
            mux.add(Box::new(Radiation::new(
                pool,
                cfg.intensity.radiation_pps,
                day_ts(day),
                day_ts(day + span).min(end),
                rng.next_u64(),
                space.clone(),
            )));
            day += span;
            slice_no += 1;
        }

        // --- Benign user traffic ------------------------------------------
        let remotes = vec![
            world.registry_org("Hyperflix CDN").prefixes[0],
            world.registry_org("Globe Eyeballs").prefixes[0],
        ];
        if cfg.benign != BenignLevel::Off {
            mux.add(Box::new(Benign::new(
                cfg.world.merit_users,
                Some(cfg.world.merit_caches),
                0.55, // Merit's cache offload fraction
                remotes.clone(),
                cfg.intensity.benign_merit_pps,
                0.62,
                cfg.day0_weekday,
                Ts::ZERO,
                end,
                rng.next_u64(),
            )));
        }
        if cfg.benign == BenignLevel::MeritAndCu {
            mux.add(Box::new(Benign::new(
                cfg.world.cu_users,
                None, // CU has no in-network caches
                0.0,
                remotes,
                cfg.intensity.benign_cu_pps,
                0.62,
                cfg.day0_weekday,
                Ts::ZERO,
                end,
                rng.next_u64(),
            )));
        }

        Scenario { world, mux }
    }
}

fn day_ts(day: u64) -> Ts {
    Ts::from_days(day)
}

fn jitter(rng: &mut Rng64) -> Dur {
    Dur::from_micros(rng.below(MICROS_PER_DAY))
}

/// Poisson-ish arrival process with linear growth: maintains an average
/// of `alive(t)` concurrent entities with exponential lifetimes.
struct ArrivalProcess {
    alive0: f64,
    lifetime_days: f64,
    days: u64,
    growth: f64,
    t_days: f64,
    /// Initial cohort left to place at t≈0.
    initial_left: u64,
}

impl ArrivalProcess {
    fn new(alive: f64, lifetime_days: f64, days: u64, growth: f64) -> ArrivalProcess {
        ArrivalProcess {
            alive0: alive,
            lifetime_days,
            days,
            growth,
            t_days: 0.0,
            initial_left: alive.round() as u64,
        }
    }

    /// Next (start_day, lifetime_days), or `None` past the end.
    fn next(&mut self, rng: &mut Rng64) -> Option<(u64, u64)> {
        if self.initial_left > 0 {
            self.initial_left -= 1;
            // Residual lifetime for the standing population.
            let life = rng.exp(self.lifetime_days).ceil().max(1.0) as u64;
            return Some((0, life));
        }
        let alive_now = self.alive0 * (1.0 + self.growth * self.t_days / self.days.max(1) as f64);
        let arrival_gap = self.lifetime_days / alive_now;
        self.t_days += rng.exp(arrival_gap);
        if self.t_days >= self.days as f64 {
            return None;
        }
        let life = rng.exp(self.lifetime_days).ceil().max(1.0) as u64;
        Some((self.t_days as u64, life))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;

    /// Pull `mux` dry a `BATCH` at a time, passing every packet to `f`.
    fn drain(mux: &mut TrafficMux, mut f: impl FnMut(&ah_net::packet::PacketMeta)) {
        let mut batch = Vec::new();
        while mux.next_batch(&mut batch, crate::mux::BATCH) > 0 {
            batch.drain(..).for_each(|p| f(&p));
        }
    }

    #[test]
    fn tiny_scenario_builds_and_runs() {
        let mut sc = Scenario::build(ScenarioConfig::tiny(2, 42));
        let mut n = 0u64;
        let mut scans = 0u64;
        let mut last = Ts::ZERO;
        let dark = sc.world.config.dark;
        let mut dark_hits = 0u64;
        drain(&mut sc.mux, |p| {
            n += 1;
            assert!(p.ts >= last, "time ordering violated");
            last = p.ts;
            if p.scan_class().is_some() {
                scans += 1;
            }
            if dark.contains(p.dst) {
                dark_hits += 1;
            }
        });
        assert!(n > 10_000, "too few packets: {n}");
        assert!(scans > 1000, "too few scan packets: {scans}");
        assert!(dark_hits > 500, "dark space should be hit: {dark_hits}");
        assert!(last < Ts::from_days(2) + Dur::from_secs(1));
    }

    #[test]
    fn deterministic_under_seed() {
        let collect = |seed| {
            let mut sc = Scenario::build(ScenarioConfig::tiny(1, seed));
            let mut v = Vec::new();
            drain(&mut sc.mux, |p| v.push((p.ts, p.src, p.dst, p.ip_id)));
            v
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn scan_classes_and_tools_all_present() {
        let mut sc = Scenario::build(ScenarioConfig::tiny(2, 3));
        let mut classes = HashSet::new();
        let mut tools = HashSet::new();
        drain(&mut sc.mux, |p| {
            if let Some(c) = p.scan_class() {
                classes.insert(c);
                tools.insert(ah_net::fingerprint::classify(p));
            }
        });
        assert_eq!(classes.len(), 3, "{classes:?}");
        assert!(tools.contains(&ah_net::fingerprint::Tool::ZMap));
        assert!(tools.contains(&ah_net::fingerprint::Tool::Mirai));
    }

    #[test]
    fn benign_off_means_no_user_traffic() {
        let mut cfg = ScenarioConfig::tiny(1, 5);
        cfg.benign = BenignLevel::Off;
        let mut sc = Scenario::build(cfg);
        let users = sc.world.config.merit_users;
        let mut user_dst = 0u64;
        let mut n = 0u64;
        drain(&mut sc.mux, |p| {
            n += 1;
            // Scanners do hit user space; benign *download* traffic has
            // large packets — absent when benign is off.
            if users.contains(p.dst) && p.wire_len > 1000 {
                user_dst += 1;
            }
        });
        assert!(n > 0);
        assert_eq!(user_dst, 0);
    }

    #[test]
    fn year_profiles_differ() {
        let p21 = ah_port_profile(Year::Y2021);
        let p22 = ah_port_profile(Year::Y2022);
        let s21: HashSet<u16> = p21.iter().map(|(p, _)| p.port).collect();
        let s22: HashSet<u16> = p22.iter().map(|(p, _)| p.port).collect();
        let shared = s21.intersection(&s22).count();
        assert!(shared >= 18, "most top ports persist: {shared}");
        assert_ne!(s21, s22, "but not all");
    }

    #[test]
    fn arrival_process_respects_span() {
        let mut rng = Rng64::new(1);
        let mut a = ArrivalProcess::new(5.0, 3.0, 30, 0.3);
        let mut count = 0;
        while let Some((start, _life)) = a.next(&mut rng) {
            assert!(start < 30);
            count += 1;
        }
        // alive*days/lifetime ≈ 50 arrivals plus the initial cohort.
        assert!((20..150).contains(&count), "{count}");
    }

    #[test]
    fn growth_increases_arrivals_late() {
        let mut rng = Rng64::new(2);
        let mut a = ArrivalProcess::new(20.0, 2.0, 100, 1.0);
        let mut early = 0;
        let mut late = 0;
        while let Some((start, _)) = a.next(&mut rng) {
            if start < 50 {
                early += 1;
            } else {
                late += 1;
            }
        }
        assert!(late as f64 > early as f64 * 1.1, "early {early} late {late}");
    }
}
