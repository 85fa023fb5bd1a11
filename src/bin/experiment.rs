//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiment <id>... [--days-scale F] [--seed N] [--out DIR] [--threads N]
//!                    [--metrics PATH] [--metrics-interval N]
//!                    [--trace-out PATH] [--trace-sample N]
//!                    [--mem-report]
//!   ids: table1..table9  fig1..fig6  whatif  health  all
//!
//! `--days-scale F` multiplies every dataset's span (default 1; any finite
//! F > 0; each span has a floor of 2 to 4 days and a ceiling of
//! `MAX_DAYS`, the longest span the detector can represent).
//!
//! `--threads N` picks the executor of the single-pass simulation runs:
//! 0 or 1 (the default) is the inline unit, 2 to 256 that many shards.
//! Output is bitwise identical on either.
//!
//! `--metrics PATH` turns on pipeline telemetry and writes snapshot files
//! `PATH.jsonl` (one snapshot per line) and `PATH.prom` (Prometheus text
//! exposition, latest snapshot). `--metrics-interval N` exports every N
//! packets fed (default 100000), at a 256-packet batch boundary. Telemetry
//! is observation-only: tables and figures are bitwise identical either way.
//!
//! `--mem-report` turns on the tagged allocator's per-subsystem
//! accounting and prints a live/peak/cumulative memory table (plus the
//! process peak RSS) after the last experiment; with `--metrics` the
//! `ah_mem_*` gauges refresh at the export interval. Accounting is
//! observation-only too.
//! ```
//!
//! Each experiment prints a paper-mirroring text table and writes CSV
//! series under the output directory (default `out/`). Simulation runs
//! are shared across experiments in one invocation.

use aggressive_scanners::cli::{parse_flag, parse_threads, usage_error, ObsFlags, OBS_USAGE};
use aggressive_scanners::core::characterize::{
    origin_table, port_overlap, protocol_mix_darknet, protocol_mix_flow, top_ports, trends,
    zipf_concentration,
};
use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::core::impact::{flow_impact, presence};
use aggressive_scanners::core::lists::{intersect, intersect3, jaccard, level_counts};
use aggressive_scanners::core::report::{fmt_count, fmt_pct, write_csv, TextTable};
use aggressive_scanners::core::validate::{
    acked_validation, daily_gn_overlap, gn_breakdown, gn_tag_table,
};
use aggressive_scanners::pipeline::{self, RunOptions, RunOutput, TapRun, Telemetry};
use aggressive_scanners::simnet::scenario::{BenignLevel, ScenarioConfig, Year};
use aggressive_scanners::telescope::event::MAX_DAYS;
use std::collections::HashSet;
use std::path::PathBuf;

const WEEKDAYS: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

fn weekday(day0_weekday: u8, day: u64) -> &'static str {
    WEEKDAYS[((u64::from(day0_weekday) + day) % 7) as usize]
}

/// Span (in simulated days) of each dataset, scaled from the paper's
/// 365 / 288 / 8 / 3 / 30 by roughly 1:9 so a full `experiment all`
/// regenerates every artifact in minutes. Scale with `--days-scale`.
#[derive(Clone, Copy)]
struct Spans {
    /// Darknet-1 (2021) characterization span.
    darknet1_days: u64,
    /// Darknet-2 (2022) characterization span.
    darknet2_days: u64,
    /// Flow-measurement week (excluding the warm-up day).
    flow_days: u64,
    /// Tap runs: 1 detection day + 3 tap days.
    tap_days: u64,
    /// Honeypot-validation month.
    gn_days: u64,
}

impl Spans {
    /// The default spans scaled by `f` (minimum sensible floors applied).
    fn scaled(f: f64) -> Spans {
        let s = |d: u64, min: u64| ((d as f64 * f) as u64).max(min);
        Spans {
            darknet1_days: s(40, 4),
            darknet2_days: s(32, 4),
            flow_days: s(8, 2),
            tap_days: s(4, 2),
            gn_days: s(21, 3),
        }
    }

    /// The longest run these spans build, in days (the flow run adds
    /// its warm-up day).
    fn longest(&self) -> u64 {
        [
            self.darknet1_days,
            self.darknet2_days,
            self.flow_days.saturating_add(1),
            self.tap_days,
            self.gn_days,
        ]
        .into_iter()
        .fold(0, u64::max)
    }
}

/// Lazily-computed simulation runs, shared by every experiment of one
/// invocation.
struct Runs {
    /// Spans used for every run.
    spans: Spans,
    /// Base RNG seed; each run derives its own by XOR.
    seed: u64,
    /// The executor every single-pass run uses (`None` = inline unit).
    threads: Option<usize>,
    /// Observation-only: run outputs are bitwise identical with it on
    /// or off.
    telemetry: Telemetry,
    darknet1: Option<RunOutput>,
    darknet2: Option<RunOutput>,
    flows: Option<RunOutput>,
    gn: Option<RunOutput>,
    taps: Option<TapRun>,
}

impl Runs {
    /// Darknet-1 (2021) characterization run.
    fn darknet1(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.darknet1.get_or_insert_with(|| {
            eprintln!("[run] darknet-1 ({} days)...", spans.darknet1_days);
            let cfg = ScenarioConfig::darknet(Year::Y2021, spans.darknet1_days, seed ^ 0x2021);
            pipeline::run_with(cfg, RunOptions::darknet_only(), threads, tel)
        })
    }

    /// Darknet-2 (2022) characterization run.
    fn darknet2(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.darknet2.get_or_insert_with(|| {
            eprintln!("[run] darknet-2 ({} days)...", spans.darknet2_days);
            let cfg = ScenarioConfig::darknet(Year::Y2022, spans.darknet2_days, seed ^ 0x2022);
            pipeline::run_with(cfg, RunOptions::darknet_only(), threads, tel)
        })
    }

    /// The flow-measurement week (Merit benign + 3 border routers).
    fn flows(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.flows.get_or_insert_with(|| {
            eprintln!("[run] flow week (1 warm-up + {} days, Merit benign)...", spans.flow_days);
            let cfg = ScenarioConfig::flows(spans.flow_days + 1, seed ^ 0xf10f);
            pipeline::run_with(cfg, RunOptions::with_flows(), threads, tel)
        })
    }

    /// The honeypot-validation month (telescope + GreyNoise).
    fn gn(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.gn.get_or_insert_with(|| {
            eprintln!("[run] greynoise month ({} days)...", spans.gn_days);
            let mut cfg = ScenarioConfig::darknet(Year::Y2022, spans.gn_days, seed ^ 0x60e5);
            cfg.label = "gn-month".into();
            cfg.benign = BenignLevel::Off;
            let opts = RunOptions { greynoise: true, ..RunOptions::darknet_only() };
            pipeline::run_with(cfg, opts, threads, tel)
        })
    }

    /// The 72-hour packet-tap experiment (two-phase).
    fn taps(&mut self) -> &TapRun {
        let (spans, seed) = (self.spans, self.seed);
        self.taps.get_or_insert_with(|| {
            eprintln!("[run] packet taps (1+{} days, Merit+CU benign)...", spans.tap_days - 1);
            pipeline::run_taps(
                ScenarioConfig::taps(spans.tap_days, seed ^ 0x7a9),
                1,
                Definition::AddressDispersion,
            )
        })
    }
}

struct Ctx {
    runs: Runs,
    out: PathBuf,
}

/// Exit with a diagnostic instead of panicking when a run output lacks a
/// piece an experiment needs (a wiring bug, not a user error).
fn require<T>(opt: Option<T>, what: &str, experiment: &str) -> T {
    opt.unwrap_or_else(|| {
        eprintln!("error: {experiment}: run output is missing {what}");
        std::process::exit(1);
    })
}

/// An experiment id and the function that regenerates it.
type Experiment = (&'static str, fn(&mut Ctx));

/// Every experiment, in `all` order.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("table9", table9),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("whatif", whatif),
    ("health", health),
];

impl Ctx {
    fn csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        let path = self.out.join(name);
        if let Err(e) = write_csv(&path, headers, rows) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("[csv] {}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<&str> = Vec::new();
    let mut scale = 1.0f64;
    let mut seed = 1u64;
    let mut threads = None;
    let mut out = PathBuf::from("out");
    let mut obs = ObsFlags::new(100_000);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--days-scale" => {
                i += 1;
                scale = parse_flag(&args, i, "--days-scale", "float");
                if !(scale.is_finite() && scale > 0.0) {
                    usage_error(format!("--days-scale must be finite and above 0, got {scale}"));
                }
            }
            "--seed" => {
                i += 1;
                seed = parse_flag(&args, i, "--seed", "integer");
            }
            "--threads" => {
                i += 1;
                threads = parse_threads(&args, i);
            }
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    usage_error("--out requires a directory argument".into());
                };
                out = PathBuf::from(dir);
            }
            _ if obs.accept(&args, &mut i).unwrap_or_else(|e| usage_error(e)) => {}
            other if other.starts_with('-') => usage_error(format!("unknown argument {other:?}")),
            id => ids.push(id),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiment <table1..table9|fig1..fig6|whatif|health|all>... [--days-scale F (finite, > 0)] [--seed N] [--out DIR] [--threads N (0/1 inline, up to 256 shards)] {OBS_USAGE}"
        );
        std::process::exit(2);
    }
    // Every id is checked before the first run starts: a typo must not
    // cost minutes of simulation first.
    let mut todo: Vec<&Experiment> = Vec::new();
    for id in &ids {
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some(e) => todo.push(e),
            None if *id == "all" => {}
            None => {
                eprintln!("unknown experiment {id:?}");
                std::process::exit(2);
            }
        }
    }
    if ids.contains(&"all") {
        todo = EXPERIMENTS.iter().collect();
    }
    let spans = Spans::scaled(scale);
    if spans.longest() > MAX_DAYS {
        usage_error(format!(
            "--days-scale makes a {}-day run; the detector can represent at most {MAX_DAYS} days",
            spans.longest()
        ));
    }
    let runs = Runs {
        spans,
        seed,
        threads,
        telemetry: obs.telemetry(seed),
        darknet1: None,
        darknet2: None,
        flows: None,
        gn: None,
        taps: None,
    };
    let mut ctx = Ctx { runs, out };
    std::fs::create_dir_all(&ctx.out).ok();
    for (id, run) in todo {
        let t0 = std::time::Instant::now();
        run(&mut ctx);
        eprintln!("[done] {id} in {:.1}s\n", t0.elapsed().as_secs_f64());
    }
    if let Err(e) = obs.finish(&ctx.runs.telemetry) {
        eprintln!("error: observability output: {e}");
        std::process::exit(1);
    }
    if obs.mem_report() {
        // Cached run outputs are still alive here, so this is a
        // whole-process snapshot, not a drained-run leak check (the
        // scanner binary's `--mem-report` does that).
        eprint!("{}", ah_mem::report().render());
    }
}

/// Table 1: description of datasets.
fn table1(ctx: &mut Ctx) {
    let mut t = TextTable::new(
        "Table 1: Description of Datasets",
        &["", "Darknet-1", "Darknet-2", "Flows-1+2"],
    );
    let (d1_pkts, d1_src, d1_dst, d1_ev);
    {
        let d1 = ctx.runs.darknet1();
        d1_pkts = d1.capture.total_packets;
        d1_src = d1.capture.unique_sources;
        d1_dst = d1.capture.unique_dsts;
        d1_ev = d1.report.records().len() as u64;
    }
    let (d2_pkts, d2_src, d2_dst, d2_ev);
    {
        let d2 = ctx.runs.darknet2();
        d2_pkts = d2.capture.total_packets;
        d2_src = d2.capture.unique_sources;
        d2_dst = d2.capture.unique_dsts;
        d2_ev = d2.report.records().len() as u64;
    }
    let (f_pkts, f_src, f_dst);
    {
        let f = ctx.runs.flows();
        let ds = require(f.merit_flows.as_ref(), "merit flows", "table1");
        f_pkts = ds.router_days.values().sum::<u64>();
        let srcs: HashSet<_> = ds.records.iter().map(|r| r.key.src).collect();
        let dsts: HashSet<_> = ds.records.iter().map(|r| r.key.dst).collect();
        f_src = srcs.len() as u64;
        f_dst = dsts.len() as u64;
    }
    t.row(&["Packets", &fmt_count(d1_pkts), &fmt_count(d2_pkts), &fmt_count(f_pkts)]);
    t.row(&["Source IPs", &fmt_count(d1_src), &fmt_count(d2_src), &fmt_count(f_src)]);
    t.row(&["Dest. IPs", &fmt_count(d1_dst), &fmt_count(d2_dst), &fmt_count(f_dst)]);
    t.row(&["Total Events", &fmt_count(d1_ev), &fmt_count(d2_ev), "-"]);
    println!("{}", t.render());
    ctx.csv(
        "table1.csv",
        &["metric", "darknet1", "darknet2", "flows"],
        &[
            vec!["packets".into(), d1_pkts.to_string(), d2_pkts.to_string(), f_pkts.to_string()],
            vec!["source_ips".into(), d1_src.to_string(), d2_src.to_string(), f_src.to_string()],
            vec!["dest_ips".into(), d1_dst.to_string(), d2_dst.to_string(), f_dst.to_string()],
            vec!["events".into(), d1_ev.to_string(), d2_ev.to_string(), String::new()],
        ],
    );
}

/// Table 2: AH (definition 1) impact at the three Merit routers, per day.
fn table2(ctx: &mut Ctx) {
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "table2");
    let rows = flow_impact(ds, |day| {
        flows.report.active_hitters(Definition::AddressDispersion, day).cloned()
    });
    let mut t = TextTable::new(
        "Table 2: Network impact of active AH (def. #1) at the top-3 Merit routers",
        &["Date", "Router-1 pkts/pcnt", "Router-2 pkts/pcnt", "Router-3 pkts/pcnt"],
    );
    let days: Vec<u64> = {
        let mut d: Vec<u64> = rows.iter().map(|r| r.day).collect();
        d.sort_unstable();
        d.dedup();
        d.retain(|&d| d >= 1); // day 0 is the warm-up
        d
    };
    let mut csv = Vec::new();
    let mut sums = [[0u64; 2]; 3];
    for &day in &days {
        let mut cells = vec![format!("day {day} ({})", weekday(4, day))];
        for router in 1..=3u8 {
            if let Some(r) = rows.iter().find(|r| r.day == day && r.router == router) {
                cells.push(format!("{} ({})", fmt_count(r.ah_packets), fmt_pct(r.pct())));
                sums[(router - 1) as usize][0] += r.ah_packets;
                sums[(router - 1) as usize][1] += r.total_packets;
                csv.push(vec![
                    day.to_string(),
                    router.to_string(),
                    r.ah_packets.to_string(),
                    r.total_packets.to_string(),
                    format!("{:.4}", r.pct()),
                ]);
            } else {
                cells.push("-".to_string());
            }
        }
        t.row(&cells);
    }
    let mut avg = vec!["Avg".to_string()];
    for s in sums {
        let pct = if s[1] == 0 { 0.0 } else { 100.0 * s[0] as f64 / s[1] as f64 };
        avg.push(format!("{} ({})", fmt_count(s[0] / days.len().max(1) as u64), fmt_pct(pct)));
    }
    t.row(&avg);
    println!("{}", t.render());
    ctx.csv("table2.csv", &["day", "router", "ah_packets", "total_packets", "pct"], &csv);
}

/// Table 3: protocol mix in darknet vs flow data, per definition.
fn table3(ctx: &mut Ctx) {
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "table3");
    let day = flows.days - 1; // the "2022-10-01" analog
    let names = ["TCP-SYN", "UDP", "ICMP Ech Rqst"];
    let mut t = TextTable::new(
        &format!("Table 3: Protocols in Darknet (D) and Flow (F), day {day}, router-1"),
        &["Protocol", "Def #1 D/F", "Def #2 D/F", "Def #3 D/F"],
    );
    let mut mixes = Vec::new();
    for def in Definition::ALL {
        let d = protocol_mix_darknet(&flows.report, def, Some(day..day + 1));
        let empty = HashSet::new();
        let hitters = flows.report.active_hitters(def, day).unwrap_or(&empty);
        let r1_records: Vec<_> =
            ds.records.iter().filter(|r| r.router == 1 && r.day() == day).cloned().collect();
        let f = protocol_mix_flow(&r1_records, hitters);
        mixes.push((d, f));
    }
    let mut csv = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let row: Vec<String> = std::iter::once(name.to_string())
            .chain(mixes.iter().map(|(d, f)| format!("{:.1} / {:.1}", d[i], f[i])))
            .collect();
        csv.push(row.clone());
        t.row(&row);
    }
    println!("{}", t.render());
    ctx.csv("table3.csv", &["protocol", "def1_d_f", "def2_d_f", "def3_d_f"], &csv);
}

/// Table 4: impact of ACKed scanners per router and definition.
fn table4(ctx: &mut Ctx) {
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "table4");
    let world = &flows.world;
    let acked = world.acked_list(8);
    let rdns = world.rdns(64);
    let day = flows.days - 1;
    let mut t = TextTable::new(
        &format!("Table 4: Network impact of ACKed scanners (day {day})"),
        &["", "Router-1", "Router-2", "Router-3"],
    );
    let mut csv = Vec::new();
    for def in Definition::ALL {
        let v = acked_validation(&flows.report, def, &acked, &rdns);
        let rows = flow_impact(ds, |_| Some(v.ips.clone()));
        let mut cells = vec![format!("Definition {}", def.short())];
        for router in 1..=3u8 {
            if let Some(r) = rows.iter().find(|r| r.day == day && r.router == router) {
                cells.push(format!("{} ({})", fmt_count(r.ah_packets), fmt_pct(r.pct())));
                csv.push(vec![
                    def.short().into(),
                    router.to_string(),
                    r.ah_packets.to_string(),
                    format!("{:.4}", r.pct()),
                ]);
            } else {
                cells.push("-".into());
            }
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    ctx.csv("table4.csv", &["definition", "router", "acked_packets", "pct"], &csv);
}

fn origins_for(run: &RunOutput, label: &str) -> (TextTable, Vec<Vec<String>>) {
    let world = &run.world;
    let db = world.asn_db();
    let acked = world.acked_list(8);
    let rdns = world.rdns(64);
    let (rows, totals) =
        origin_table(&run.report, Definition::AddressDispersion, &db, &acked, &rdns, 10);
    let mut t = TextTable::new(
        &format!("Table 5 ({label}): origins of def. #1 aggressive scanners"),
        &["AS Type", "unique /32s (ACKed)", "unique /24s (ACKed)", "Pkts"],
    );
    let mut csv = Vec::new();
    for r in &rows {
        t.row(&[
            r.label.clone(),
            format!("{} ({})", r.unique_ips, r.acked_ips),
            format!("{} ({})", r.unique_24s, r.acked_24s),
            fmt_count(r.packets),
        ]);
        csv.push(vec![
            r.label.clone(),
            r.org.clone(),
            r.unique_ips.to_string(),
            r.unique_24s.to_string(),
            r.packets.to_string(),
            r.acked_ips.to_string(),
        ]);
    }
    t.row(&[
        "Total (top-10 share)".to_string(),
        format!("{} ({:.0}%)", totals.top_ips, 100.0 * totals.top_ips_share),
        format!("{} ({:.0}%)", totals.top_24s, 100.0 * totals.top_24s_share),
        format!("{} ({:.0}%)", fmt_count(totals.top_packets), 100.0 * totals.top_packets_share),
    ]);
    (t, csv)
}

/// Table 5: origins for both years.
fn table5(ctx: &mut Ctx) {
    let (t1, csv1) = origins_for(ctx.runs.darknet1(), "Darknet-1, 2021");
    println!("{}", t1.render());
    let (t2, csv2) = origins_for(ctx.runs.darknet2(), "Darknet-2, 2022");
    println!("{}", t2.render());
    let headers = ["label", "org", "unique_ips", "unique_24s", "packets", "acked_ips"];
    ctx.csv("table5_darknet1.csv", &headers, &csv1);
    ctx.csv("table5_darknet2.csv", &headers, &csv2);
}

/// Table 6: validation against the Acknowledged-Scanners list.
fn table6(ctx: &mut Ctx) {
    let mut t = TextTable::new(
        "Table 6: Validation via ACKed-scanners lists",
        &["", "D1 2021", "D1 2022", "D2 2021", "D2 2022", "D3 2021", "D3 2022"],
    );
    // (year, def) -> validation.
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); 6];
    let mut csv = Vec::new();
    for (yi, which) in [0usize, 1].into_iter().enumerate() {
        let run: &RunOutput = if which == 0 { ctx.runs.darknet1() } else { ctx.runs.darknet2() };
        let acked = run.world.acked_list(8);
        let rdns = run.world.rdns(64);
        for def in Definition::ALL {
            let v = acked_validation(&run.report, def, &acked, &rdns);
            let col = def.index() * 2 + yi;
            cells[col] = vec![
                v.ip_matches.to_string(),
                v.domain_matches.to_string(),
                v.total_ips.to_string(),
                fmt_count(v.packets),
                fmt_pct(v.packets_pct_of_ah),
                v.orgs.to_string(),
            ];
            csv.push(vec![
                if yi == 0 { "2021" } else { "2022" }.into(),
                def.short().into(),
                v.ip_matches.to_string(),
                v.domain_matches.to_string(),
                v.total_ips.to_string(),
                v.packets.to_string(),
                format!("{:.2}", v.packets_pct_of_ah),
                v.orgs.to_string(),
            ]);
        }
    }
    let labels =
        ["IP match", "Domain matches", "Total IPs", "Packets", "Packets (% all AH)", "Total Orgs"];
    for (i, label) in labels.iter().enumerate() {
        let mut row = vec![label.to_string()];
        for col in [0usize, 1, 2, 3, 4, 5] {
            // column order: D1 2021, D1 2022, D2 2021, D2 2022, D3 2021, D3 2022
            row.push(cells[col].get(i).cloned().unwrap_or_default());
        }
        t.row(&row);
    }
    println!("{}", t.render());
    ctx.csv(
        "table6.csv",
        &["year", "def", "ip_match", "domain_match", "total_ips", "packets", "pct_of_ah", "orgs"],
        &csv,
    );
}

/// Table 7: populations and intersections across definitions.
fn table7(ctx: &mut Ctx) {
    let mut csv = Vec::new();
    for which in [0, 1] {
        let run: &RunOutput = if which == 0 { ctx.runs.darknet1() } else { ctx.runs.darknet2() };
        let label = if which == 0 { "Darknet-1" } else { "Darknet-2" };
        let db = run.world.asn_db();
        let d1 = run.report.hitters(Definition::AddressDispersion);
        let d2 = run.report.hitters(Definition::PacketVolume);
        let d3 = run.report.hitters(Definition::DistinctPorts);
        let sets: Vec<(&str, std::collections::HashSet<_>)> = vec![
            ("D1", d1.clone()),
            ("D2", d2.clone()),
            ("D3", d3.clone()),
            ("D1∩D2", intersect(d1, d2)),
            ("D2∩D3", intersect(d2, d3)),
            ("D1∩D3", intersect(d1, d3)),
            ("D1∩D2∩D3", intersect3(d1, d2, d3)),
        ];
        let mut t = TextTable::new(
            &format!("Table 7 ({label}): aggressive scanners across all definitions"),
            &["", "D1", "D2", "D3", "D1∩D2", "D2∩D3", "D1∩D3", "D1∩D2∩D3"],
        );
        let counts: Vec<_> = sets.iter().map(|(_, s)| level_counts(s, &db)).collect();
        let mut push =
            |name: &str, f: &dyn Fn(&aggressive_scanners::core::lists::LevelCounts) -> u64| {
                let mut row = vec![name.to_string()];
                row.extend(counts.iter().map(|c| f(c).to_string()));
                t.row(&row);
            };
        push("IP", &|c| c.ips);
        push("ASN", &|c| c.asns);
        push("Org", &|c| c.orgs);
        push("Country", &|c| c.countries);
        println!("{}", t.render());
        println!("Jaccard(D1, D2) = {:.2}   (paper: ≈0.8)\n", jaccard(d1, d2));
        for (name, s) in &sets {
            let c = level_counts(s, &db);
            csv.push(vec![
                label.into(),
                name.to_string(),
                c.ips.to_string(),
                c.asns.to_string(),
                c.orgs.to_string(),
                c.countries.to_string(),
            ]);
        }
    }
    ctx.csv("table7.csv", &["dataset", "set", "ips", "asns", "orgs", "countries"], &csv);
}

/// Table 8: hitter presence per router.
fn table8(ctx: &mut Ctx) {
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "table8");
    let mut t = TextTable::new(
        "Table 8: active AH seen at each router (percent of population)",
        &["Day", "Def", "# AH", "Router-1", "Router-2", "Router-3"],
    );
    let mut csv = Vec::new();
    for def in Definition::ALL {
        let rows = presence(ds, |day| flows.report.active_hitters(def, day).cloned());
        for row in rows.into_iter().filter(|r| r.day >= 1) {
            let mut cells = vec![
                format!("day {} ({})", row.day, weekday(4, row.day)),
                def.short().to_string(),
                row.population.to_string(),
            ];
            for (_, frac) in &row.seen_fraction {
                cells.push(format!("{:.1}%", 100.0 * frac));
            }
            csv.push(cells.clone());
            t.row(&cells);
        }
    }
    println!("{}", t.render());
    ctx.csv("table8.csv", &["day", "def", "population", "r1", "r2", "r3"], &csv);
}

/// Table 9: GreyNoise tags of non-ACKed hitters.
fn table9(ctx: &mut Ctx) {
    let gn_run = ctx.runs.gn();
    let entries = require(gn_run.gn_entries.as_ref(), "GreyNoise entries", "table9");
    let acked = gn_run.world.acked_list(8);
    let rdns = gn_run.world.rdns(64);
    let v = acked_validation(&gn_run.report, Definition::AddressDispersion, &acked, &rdns);
    let hitters = gn_run.report.hitters(Definition::AddressDispersion);
    let rows = gn_tag_table(hitters, entries, &v.ips, 20);
    let mut t = TextTable::new(
        "Table 9: GreyNoise tags for non-ACKed AH",
        &["Rank", "GreyNoise Tag", "IP Count"],
    );
    let mut csv = Vec::new();
    for (i, (tag, n)) in rows.iter().enumerate() {
        t.row(&[format!("#{}", i + 1), tag.clone(), n.to_string()]);
        csv.push(vec![(i + 1).to_string(), tag.clone(), n.to_string()]);
    }
    println!("{}", t.render());
    ctx.csv("table9.csv", &["rank", "tag", "ips"], &csv);
}

/// Figure 1: cumulative/instantaneous impact and rates at both taps.
fn fig1(ctx: &mut Ctx) {
    let tap = ctx.runs.taps();
    let mut t = TextTable::new(
        "Figure 1: packet-tap impact of def. #1 AH (summary)",
        &["Metric", "Merit (router-1 tap)", "CU (campus tap)"],
    );
    let summarize = |s: &aggressive_scanners::core::impact::TapSeries| {
        let cum = s.cumulative_pct();
        let inst = s.instantaneous_pct();
        let max_inst = inst.iter().cloned().fold(0.0f64, f64::max);
        let peak_rate = s.rate_pps().into_iter().max().unwrap_or(0);
        (cum.last().copied().unwrap_or(0.0), max_inst, peak_rate, s.total_packets(), s.ah_packets())
    };
    let m = summarize(&tap.merit_tap);
    let c = summarize(&tap.cu_tap);
    t.row(&["Cumulative AH impact", &fmt_pct(m.0), &fmt_pct(c.0)]);
    t.row(&["Max instantaneous impact", &fmt_pct(m.1), &fmt_pct(c.1)]);
    t.row(&["Peak rate (pps)", &fmt_count(m.2), &fmt_count(c.2)]);
    t.row(&["Total packets", &fmt_count(m.3), &fmt_count(c.3)]);
    t.row(&["AH packets", &fmt_count(m.4), &fmt_count(c.4)]);
    println!("{}", t.render());
    println!("AH list size joined at taps: {}\n", tap.ah_list.len());
    // Full per-minute series for plotting.
    let mut rows = Vec::new();
    let md = tap.merit_tap.downsample(60);
    let cd = tap.cu_tap.downsample(60);
    let mcum = md.cumulative_pct();
    let minst = md.instantaneous_pct();
    let ccum = cd.cumulative_pct();
    let cinst = cd.instantaneous_pct();
    for i in 0..md.bins.len().max(cd.bins.len()) {
        rows.push(vec![
            i.to_string(),
            md.bins.get(i).map_or_else(String::new, |b| b.0.to_string()),
            md.bins.get(i).map_or_else(String::new, |b| b.1.to_string()),
            mcum.get(i).map_or_else(String::new, |v| format!("{v:.4}")),
            minst.get(i).map_or_else(String::new, |v| format!("{v:.4}")),
            cd.bins.get(i).map_or_else(String::new, |b| b.0.to_string()),
            cd.bins.get(i).map_or_else(String::new, |b| b.1.to_string()),
            ccum.get(i).map_or_else(String::new, |v| format!("{v:.4}")),
            cinst.get(i).map_or_else(String::new, |v| format!("{v:.4}")),
        ]);
    }
    ctx.csv(
        "fig1.csv",
        &[
            "minute",
            "merit_pps",
            "merit_ah_pps",
            "merit_cum_pct",
            "merit_inst_pct",
            "cu_pps",
            "cu_ah_pps",
            "cu_cum_pct",
            "cu_inst_pct",
        ],
        &rows,
    );
}

/// Figure 2: per-/24-normalized AH rates.
fn fig2(ctx: &mut Ctx) {
    let tap = ctx.runs.taps();
    let m24 = tap.world.merit_slash24s();
    let c24 = tap.world.cu_slash24s();
    let mrate = tap.merit_tap.ah_rate_per_slash24(m24);
    let crate_ = tap.cu_tap.ah_rate_per_slash24(c24);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let mut t = TextTable::new(
        "Figure 2: AH packet rate normalized by /24 count",
        &["Network", "/24s", "mean AH pps per /24", "max AH pps per /24"],
    );
    let mx = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    t.row(&[
        "Merit".to_string(),
        m24.to_string(),
        format!("{:.4}", mean(&mrate)),
        format!("{:.3}", mx(&mrate)),
    ]);
    t.row(&[
        "CU".to_string(),
        c24.to_string(),
        format!("{:.4}", mean(&crate_)),
        format!("{:.3}", mx(&crate_)),
    ]);
    println!("{}", t.render());
    if mean(&crate_) > mean(&mrate) {
        println!("CU is more affected per /24 than Merit, as in the paper.\n");
    }
    let rows: Vec<Vec<String>> = mrate
        .chunks(60)
        .zip(crate_.chunks(60))
        .enumerate()
        .map(|(i, (a, b))| {
            vec![i.to_string(), format!("{:.5}", mean(a)), format!("{:.5}", mean(b))]
        })
        .collect();
    ctx.csv("fig2.csv", &["minute", "merit_ah_pps_per_24", "cu_ah_pps_per_24"], &rows);
}

/// Figure 3: temporal trends for definition 1.
fn fig3(ctx: &mut Ctx) {
    let mut csv = Vec::new();
    for which in [0, 1] {
        let run: &RunOutput = if which == 0 { ctx.runs.darknet1() } else { ctx.runs.darknet2() };
        let label = if which == 0 { "Darknet-1" } else { "Darknet-2" };
        let series = trends(&run.report, Definition::AddressDispersion, run.days);
        let (daily, active) = run.report.mean_daily_active(Definition::AddressDispersion);
        let ah_pkts: u64 = series.iter().map(|d| d.ah_packets).sum();
        let all_pkts: u64 = series.iter().map(|d| d.all_packets).sum();
        let avg_srcs =
            series.iter().map(|d| d.all_sources).sum::<u64>() as f64 / series.len().max(1) as f64;
        println!("## Figure 3 ({label})");
        println!("  mean daily AH/day:  {daily:.0}");
        println!("  mean active AH/day: {active:.0}");
        println!("  mean scanning sources/day: {avg_srcs:.0}");
        println!(
            "  AH share of daily-attributed darknet packets: {:.1}%  (paper: >63%)",
            100.0 * ah_pkts as f64 / all_pkts.max(1) as f64
        );
        println!(
            "  AH share of scanning sources: {:.2}%  (paper: ≈0.1%)\n",
            100.0 * daily / avg_srcs.max(1.0)
        );
        for d in &series {
            csv.push(vec![
                label.into(),
                d.day.to_string(),
                d.active_ah.to_string(),
                d.daily_ah.to_string(),
                d.all_sources.to_string(),
                d.ah_packets.to_string(),
                d.all_packets.to_string(),
            ]);
        }
    }
    ctx.csv(
        "fig3.csv",
        &["dataset", "day", "active_ah", "daily_ah", "all_sources", "ah_packets", "all_packets"],
        &csv,
    );
}

/// Figure 4: top-25 targeted ports with tool attribution, both years.
fn fig4(ctx: &mut Ctx) {
    let mut csv = Vec::new();
    for which in [0, 1] {
        let run: &RunOutput = if which == 0 { ctx.runs.darknet1() } else { ctx.runs.darknet2() };
        let label = if which == 0 { "2021" } else { "2022" };
        let rows = top_ports(&run.report, Definition::AddressDispersion, 25);
        let mut t = TextTable::new(
            &format!("Figure 4 ({label}): top-25 ports targeted by def. #1 AH"),
            &["Rank", "Service", "Packets", "ZMap%", "Masscan%", "Other%"],
        );
        for (i, r) in rows.iter().enumerate() {
            let total = r.total().max(1) as f64;
            t.row(&[
                (i + 1).to_string(),
                r.label(),
                fmt_count(r.total()),
                format!("{:.0}%", 100.0 * r.zmap as f64 / total),
                format!("{:.0}%", 100.0 * r.masscan as f64 / total),
                format!("{:.0}%", 100.0 * r.other as f64 / total),
            ]);
            csv.push(vec![
                label.into(),
                (i + 1).to_string(),
                r.label(),
                r.zmap.to_string(),
                r.masscan.to_string(),
                r.other.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    ctx.csv("fig4.csv", &["year", "rank", "service", "zmap", "masscan", "other"], &csv);
}

/// Figure 5: darknet-vs-flow port overlap scatter.
fn fig5(ctx: &mut Ctx) {
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "fig5");
    let day = flows.days - 1;
    let mut csv = Vec::new();
    for def in [Definition::AddressDispersion, Definition::PacketVolume] {
        let pairs = port_overlap(&flows.report, def, day, &ds.records, ds.sampling_rate);
        let both = pairs.iter().filter(|(_, d, f)| *d > 0 && *f > 0).count();
        println!(
            "## Figure 5 ({}): {} ports observed, {} seen in BOTH darknet and flows",
            def.short(),
            pairs.len(),
            both
        );
        let mut top: Vec<_> = pairs.clone();
        top.sort_by_key(|(_, d, f)| std::cmp::Reverse(d + f));
        let mut t = TextTable::new("", &["Service", "Darknet pkts", "Flow pkts (est.)"]);
        for (label, d, f) in top.iter().take(12) {
            t.row(&[label.clone(), fmt_count(*d), fmt_count(*f)]);
        }
        println!("{}", t.render());
        for (label, d, f) in pairs {
            csv.push(vec![def.short().into(), label, d.to_string(), f.to_string()]);
        }
    }
    ctx.csv("fig5.csv", &["def", "service", "darknet_pkts", "flow_pkts"], &csv);
}

/// What-if: operationalize the paper's conclusion — "even starting by
/// blocking a small amount of AH, a large fraction of the problem is
/// ameliorated". Blocks the top-N hitters (ranked by darknet packet
/// contribution, the list an operator would compute) and measures how
/// much of the hitter traffic at the ISP's routers disappears.
fn whatif(ctx: &mut Ctx) {
    use std::collections::HashMap;
    let flows = ctx.runs.flows();
    let ds = require(flows.merit_flows.as_ref(), "merit flows", "whatif");
    let def = Definition::AddressDispersion;
    // Rank hitters by darknet packets (what the telescope operator knows).
    let mut pkts_by_src: HashMap<aggressive_scanners::net::ipv4::Ipv4Addr4, u64> = HashMap::new();
    for r in flows.report.hitter_records(def) {
        *pkts_by_src.entry(r.key.src).or_default() += u64::from(r.packets);
    }
    let mut ranked: Vec<_> = pkts_by_src.into_iter().collect();
    ranked.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
    // Hitter packets seen at the routers, per source (sampled).
    let mut router_pkts: HashMap<aggressive_scanners::net::ipv4::Ipv4Addr4, u64> = HashMap::new();
    let mut total_ah_router = 0u64;
    let all: HashSet<_> = ranked.iter().map(|&(ip, _)| ip).collect();
    for r in &ds.records {
        if all.contains(&r.key.src) {
            *router_pkts.entry(r.key.src).or_default() += r.packets;
            total_ah_router += r.packets;
        }
    }
    let mut t = TextTable::new(
        "What-if: blocklisting the top-N darknet hitters (def. #1)",
        &["Blocked", "% of hitter pkts removed at routers", "% of hitter IPs"],
    );
    let mut csv = Vec::new();
    for n in [1usize, 2, 5, 10, 25, 50, ranked.len()] {
        let n = n.min(ranked.len());
        let removed: u64 =
            ranked[..n].iter().map(|&(ip, _)| router_pkts.get(&ip).copied().unwrap_or(0)).sum();
        let pct = if total_ah_router == 0 {
            0.0
        } else {
            100.0 * removed as f64 / total_ah_router as f64
        };
        let ip_pct = 100.0 * n as f64 / ranked.len().max(1) as f64;
        t.row(&[format!("top {n}"), fmt_pct(pct), format!("{ip_pct:.1}%")]);
        csv.push(vec![n.to_string(), format!("{pct:.3}"), format!("{ip_pct:.3}")]);
        if n == ranked.len() {
            break;
        }
    }
    println!("{}", t.render());
    println!(
        "Ranking derived from darknet packets only; removal measured on the ISP's sampled flows.
"
    );
    ctx.csv("whatif.csv", &["blocked_top_n", "pct_pkts_removed", "pct_ips"], &csv);
}

/// Figure 6: GreyNoise breakdown (left) and traffic concentration (right).
fn fig6(ctx: &mut Ctx) {
    let run = ctx.runs.gn();
    let entries = require(run.gn_entries.as_ref(), "GreyNoise entries", "fig6");
    let acked = run.world.acked_list(8);
    let rdns = run.world.rdns(64);
    let v = acked_validation(&run.report, Definition::AddressDispersion, &acked, &rdns);
    let hitters = run.report.hitters(Definition::AddressDispersion);
    let b = gn_breakdown(hitters, entries, &v.ips);
    let mut t = TextTable::new(
        "Figure 6 (left): GN breakdown of monthly non-ACKed AH (def. #1)",
        &["Class", "IPs", "Share"],
    );
    let total = b.total().max(1) as f64;
    t.row(&["malicious", &b.malicious.to_string(), &fmt_pct(100.0 * b.malicious as f64 / total)]);
    t.row(&["unknown", &b.unknown.to_string(), &fmt_pct(100.0 * b.unknown as f64 / total)]);
    t.row(&["benign", &b.benign.to_string(), &fmt_pct(100.0 * b.benign as f64 / total)]);
    t.row(&["not in GN", &b.absent.to_string(), &fmt_pct(100.0 * b.absent as f64 / total)]);
    println!("{}", t.render());
    let overlap =
        daily_gn_overlap(&run.report, Definition::AddressDispersion, entries, 0..run.days);
    println!("Average daily AH∩GN overlap: {:.1}% (paper: 99.3%)\n", 100.0 * overlap);

    let z = zipf_concentration(&run.report, Definition::AddressDispersion);
    if !z.is_empty() {
        let top1pct_idx = (z.len() / 100).max(1) - 1;
        println!(
            "Figure 6 (right): top 1% of AH ({} IPs) contribute {:.1}% of AH traffic (paper: >25%)",
            top1pct_idx + 1,
            z[top1pct_idx]
        );
        let rows: Vec<Vec<String>> = z
            .iter()
            .enumerate()
            .map(|(i, v)| vec![(i + 1).to_string(), format!("{v:.3}")])
            .collect();
        ctx.csv("fig6_zipf.csv", &["rank", "cumulative_pct"], &rows);
    }
    ctx.csv(
        "fig6_breakdown.csv",
        &["class", "ips"],
        &[
            vec!["malicious".into(), b.malicious.to_string()],
            vec!["unknown".into(), b.unknown.to_string()],
            vec!["benign".into(), b.benign.to_string()],
            vec!["absent".into(), b.absent.to_string()],
        ],
    );
}

/// Pipeline health: graceful-degradation ledgers for a pristine run and
/// a 1%-fault chaos run of the same scenario, side by side.
fn health(ctx: &mut Ctx) {
    use aggressive_scanners::core::defs::Thresholds;
    use aggressive_scanners::simnet::faults::FaultPlan;
    let thresholds =
        Thresholds { dispersion_fraction: 0.10, volume_alpha: 0.01, ports_alpha: 0.01 };
    let opts = RunOptions::full().with_thresholds(thresholds);
    let mut csv = Vec::new();
    for (label, faults) in
        [("clean", None), ("faults-1pct", Some(FaultPlan::uniform(0.01, ctx.runs.seed)))]
    {
        eprintln!("[run] health {label} (3 days)...");
        let mut o = opts;
        if let Some(plan) = faults {
            o = o.with_faults(plan);
        }
        let out = pipeline::run(ScenarioConfig::tiny(3, ctx.runs.seed ^ 0x6ea1), o);
        println!("## Pipeline health ({label})");
        print!("{}", out.health.render());
        println!(
            "conservation: {}\n",
            if out.health.conserves() { "every stage balances" } else { "VIOLATED" }
        );
        for s in &out.health.stages {
            csv.push(vec![
                label.to_string(),
                s.stage.clone(),
                s.received.to_string(),
                s.accepted.to_string(),
                s.repaired.to_string(),
                s.quarantined.to_string(),
                s.discarded_total().to_string(),
            ]);
        }
    }
    ctx.csv(
        "health.csv",
        &["run", "stage", "received", "accepted", "repaired", "quarantined", "discarded"],
        &csv,
    );
}
