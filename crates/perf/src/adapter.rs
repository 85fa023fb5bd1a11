//! Every call the benchmark makes into the product, in one file.
//!
//! This is the pinned public API surface: the eight workloads and their
//! inputs, the five `pipeline::*` entry points the timed runs go
//! through, and the per-layer functions the staged run strings together
//! to attribute a run's time to layers. Nothing here is private to the
//! product — a refactor that keeps these signatures keeps the benchmark.
//!
//! Two kinds of run live here:
//!
//! * [`run_engine`] — one call into `pipeline::{run, run_parallel,
//!   run_parallel_with_recorder, run_wal, replay_wal}`, timed from input
//!   to returned `RunOutput`. This is what every end-to-end metric is
//!   taken from.
//! * [`run_staged`] — the same job rebuilt stage by stage on one thread
//!   from `TrafficMux::next_packet`, `FaultInjector::apply`, the SPSC
//!   ring, `WalWriter::append`/`commit`, `Telescope::observe`,
//!   `IspModel::observe`, `GreyNoise::observe`, `Detector::ingest_all`
//!   and friends, with a span around each call. It must reproduce the
//!   engine's detection report or the operation fails.

use crate::spans::Spans;
use crate::stats::percentile;
use crate::wire::Fields;
use aggressive_scanners::pipeline::{self, RunOptions, RunOutput, Telemetry, WalRun};
use ah_core::defs::Definition;
use ah_core::detector::{AhReport, Detector, DetectorConfig};
use ah_flow::router::{IspConfig, IspModel};
use ah_flow::v9::{encode_v9, V9Decoder};
use ah_intel::greynoise::{GreyNoise, PayloadHint};
use ah_mem::Tag;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, ScanClass};
use ah_net::prefix::PrefixSet;
use ah_net::time::Ts;
use ah_obs::{Exporter, Recorder};
use ah_simnet::faults::{FaultInjector, FaultPlan};
use ah_simnet::ring::ring;
use ah_simnet::rng::hash64;
use ah_simnet::scenario::{BenignLevel, Scenario, ScenarioConfig, Year};
use ah_simnet::world::World;
use ah_telescope::capture::{CaptureOutcome, DarkSpace, Telescope};
use ah_telescope::daily::DailyTracker;
use ah_telescope::event::{DarknetEvent, EventAggregator};
use ah_trace::{TraceConfig, Tracer};
use ah_wal::{WalRecord, WalWriter, WalWriterConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Worker shards of the threaded workloads. Fixed: the reference host
/// has two CPUs, and two shards measured tighter there than one.
pub const SHARDS: usize = 2;
/// Packets per staged-run chunk (one span per stage per chunk).
const CHUNK: usize = 65_536;
/// Packets per staged WAL append/commit pair — the default group commit.
const WAL_CHUNK: usize = 4_096;
/// Slots of the staged SPSC ring — the engine's per-shard capacity.
const RING_SLOTS: usize = 4_096;
/// Stream positions between metric snapshots / memory pulses on
/// `full-observed`.
const OBSERVE_EVERY: u64 = 100_000;

// Input sizes. Fixed constants, not flags: a number in the results means
// the same input on every commit. They are cut from the issue's sizing
// (8 / 1 / 24 days) so that five fresh-process repeats plus set-up of any
// workload fit the pipeline's per-run time budget; `flows` is cut by
// thinning its benign traffic, since a scenario cannot be shorter than
// one day.
const DARKNET_DAYS: u64 = 2;
const FLOWS_DAYS: u64 = 1;
const FLOWS_BENIGN_SHARE: f64 = 0.06;
const TINY_DAYS: u64 = 8;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's fixed sizes.
    Full,
    /// One day of the miniature test world, with each workload's own
    /// benign-traffic level, vantage points and engine: the crate's
    /// smoke test, fast enough for a debug build. Never measured.
    Smoke,
}

/// Which engine entry point executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `pipeline::run`.
    Serial,
    /// `pipeline::run_parallel(.., SHARDS)`.
    Parallel,
    /// `pipeline::run_parallel_with_recorder` with every instrument on.
    Observed,
    /// `pipeline::run_wal` into a fresh directory.
    Durable,
    /// `pipeline::replay_wal` over a sealed log.
    Replay,
}

impl Engine {
    /// Name used on the child command line.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Parallel => "parallel",
            Engine::Observed => "observed",
            Engine::Durable => "durable",
            Engine::Replay => "replay",
        }
    }

    /// Inverse of [`Engine::name`].
    pub fn parse(name: &str) -> Option<Engine> {
        [Engine::Serial, Engine::Parallel, Engine::Observed, Engine::Durable, Engine::Replay]
            .into_iter()
            .find(|e| e.name() == name)
    }

    /// True when stages overlap on several threads, so a ledger sum is
    /// comparable with CPU time rather than wall time.
    pub fn threaded(self) -> bool {
        matches!(self, Engine::Parallel | Engine::Observed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scene {
    Darknet,
    Flows,
    Tiny,
}

/// One benchmark workload: a scenario, the vantage points built for it,
/// and the engine that runs it.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub why: &'static str,
    scene: Scene,
    faulted: bool,
    /// The engine the timed repeats go through.
    pub engine: Engine,
}

/// The eight workloads, in report order.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "darknet",
        why: "telescope capture, event aggregation and D1/D2/D3 with no flow or intel layer built: the paper's core path, undiluted",
        scene: Scene::Darknet,
        faulted: false,
        engine: Engine::Serial,
    },
    Workload {
        name: "flows",
        why: "benign Merit traffic dominates, so mux, router, sampler, flow cache and v9 loopback do the work and the telescope almost none",
        scene: Scene::Flows,
        faulted: false,
        engine: Engine::Serial,
    },
    Workload {
        name: "full-serial",
        why: "every vantage point (telescope, Merit, CU, GreyNoise) on the serial engine: the single-threaded baseline of the shipped job",
        scene: Scene::Tiny,
        faulted: false,
        engine: Engine::Serial,
    },
    Workload {
        name: "full-parallel",
        why: "same job on 2 shards: adds source-hash dispatch, SPSC rings and the MPSC merge; a ring change moves this and not full-serial",
        scene: Scene::Tiny,
        faulted: false,
        engine: Engine::Parallel,
    },
    Workload {
        name: "full-faulted",
        why: "full-parallel under a 5% uniform fault plan: drops, duplicates, truncation and reordering take packets off the fast path",
        scene: Scene::Tiny,
        faulted: true,
        engine: Engine::Parallel,
    },
    Workload {
        name: "full-observed",
        why: "full-parallel with metrics export, tracing and memory accounting all on: the cost of observability; full-parallel is its bypass",
        scene: Scene::Tiny,
        faulted: false,
        engine: Engine::Observed,
    },
    Workload {
        name: "durable",
        why: "the darknet scenario journaled through run_wal: WAL encode, group commit and fsync dominate (write side of the log)",
        scene: Scene::Darknet,
        faulted: false,
        engine: Engine::Durable,
    },
    Workload {
        name: "replay",
        why: "replay_wal over a sealed log of the darknet scenario: the read side of the log with the mux idle; a mux speed-up must not move it",
        scene: Scene::Darknet,
        faulted: false,
        engine: Engine::Replay,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated input. `seed` reaches the scenario here, the fault
    /// plan in [`Workload::options`] and the journey sampler of
    /// `full-observed` — and nothing else.
    fn scenario(&self, seed: u64, size: Size) -> ScenarioConfig {
        if size == Size::Smoke {
            let mut cfg = ScenarioConfig::tiny(1, seed);
            cfg.benign = match self.scene {
                Scene::Darknet => BenignLevel::Off,
                Scene::Flows => BenignLevel::Merit,
                Scene::Tiny => BenignLevel::MeritAndCu,
            };
            return cfg;
        }
        match self.scene {
            Scene::Darknet => ScenarioConfig::darknet(Year::Y2022, DARKNET_DAYS, seed),
            Scene::Flows => {
                let mut cfg = ScenarioConfig::flows(FLOWS_DAYS, seed);
                cfg.intensity.benign_merit_pps *= FLOWS_BENIGN_SHARE;
                cfg
            }
            Scene::Tiny => ScenarioConfig::tiny(TINY_DAYS, seed),
        }
    }

    fn options(&self, seed: u64) -> RunOptions {
        let opts = match self.scene {
            Scene::Darknet => RunOptions::darknet_only(),
            Scene::Flows => RunOptions::with_flows(),
            Scene::Tiny => RunOptions::full(),
        };
        if self.faulted {
            opts.with_faults(FaultPlan::uniform(0.05, seed))
        } else {
            opts
        }
    }

    /// The engine whose output this workload's fingerprint must equal:
    /// always a *different* entry point over the same input, so the
    /// check is a cross-check and no expected value is hard-coded.
    pub fn reference_engine(&self) -> Engine {
        match self.engine {
            Engine::Serial => Engine::Parallel,
            Engine::Parallel | Engine::Observed | Engine::Durable => Engine::Serial,
            Engine::Replay => Engine::Durable,
        }
    }
}

/// Fields of a run's detection report that the staged run must
/// reproduce exactly: thresholds, event count, and each definition's
/// hitter set (as a count and a hash of the sorted addresses).
pub const REPORT_KEYS: [&str; 9] = [
    "report.d2_threshold",
    "report.d3_threshold",
    "core.detector.ingest.events_in",
    "core.detector.finalize.hitters_d1",
    "core.detector.finalize.hitters_d2",
    "core.detector.finalize.hitters_d3",
    "report.hitters_d1_hash",
    "report.hitters_d2_hash",
    "report.hitters_d3_hash",
];

fn put_report(f: &mut Fields, report: &AhReport) {
    f.put("report.d2_threshold", report.d2_threshold);
    f.put("report.d3_threshold", report.d3_threshold);
    f.put("core.detector.ingest.events_in", report.records().len());
    for def in Definition::ALL {
        let mut ips: Vec<u32> = report.hitters(def).iter().map(|ip| ip.to_u32()).collect();
        ips.sort_unstable();
        let hash = ips
            .iter()
            .fold(ah_wal::FNV_OFFSET, |h, ip| ah_wal::record::fnv1a_fold(h, &ip.to_le_bytes()));
        let d = def.short().to_lowercase();
        f.put(&format!("core.detector.finalize.hitters_{d}"), ips.len());
        f.put(&format!("report.hitters_{d}_hash"), hash);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Everything `full-observed` turns on: a live recorder exporting
/// snapshots, the tracer at its default sampling, and memory pulses.
fn observed_telemetry(seed: u64, scratch: &Path) -> Telemetry {
    ah_mem::set_accounting(true);
    let rec = Recorder::new();
    let exporter = Exporter::new(rec.clone(), scratch.join("metrics"), OBSERVE_EVERY);
    Telemetry::with_exporter(rec, exporter)
        .with_tracer(Tracer::new(TraceConfig { seed, ..TraceConfig::default() }))
        .with_mem(OBSERVE_EVERY)
}

/// One engine run of `w`'s input through `engine`, timed from input to
/// returned `RunOutput`. Fingerprinting, the report digest and the drop
/// of the output are outside the timed region.
///
/// `scratch` is a fresh directory this run may write into; `log` is the
/// sealed log a replay reads, or where a durable run writes its own
/// (default `scratch/wal`). With `account`, per-tag memory accounting is on for the run
/// and the per-tag peaks are reported — never combined with timing.
pub fn run_engine(
    w: &Workload,
    engine: Engine,
    seed: u64,
    size: Size,
    scratch: &Path,
    log: Option<&Path>,
    account: bool,
) -> Result<Fields, String> {
    let cfg = w.scenario(seed, size);
    let opts = w.options(seed);
    let wal_dir = log.map_or_else(|| scratch.join("wal"), Path::to_path_buf);
    let mut tel = match engine {
        Engine::Observed => observed_telemetry(seed, scratch),
        _ => Telemetry::disabled(),
    };
    if account {
        ah_mem::set_accounting(true);
        ah_mem::reset_window();
    }
    let cpu0 = crate::sys::cpu_seconds()?;
    let t0 = Instant::now();
    let out: RunOutput = match engine {
        Engine::Serial => pipeline::run(cfg, opts),
        Engine::Parallel => pipeline::run_parallel(cfg, opts, SHARDS),
        Engine::Observed => pipeline::run_parallel_with_recorder(cfg, opts, SHARDS, &mut tel),
        Engine::Durable => *pipeline::run_wal(cfg, opts, &WalRun::new(&wal_dir), &mut tel)
            .map_err(|e| format!("run_wal: {e}"))?
            .completed()
            .ok_or("run_wal suspended without being asked to")?,
        Engine::Replay => {
            let log = log.ok_or("a replay needs --log")?;
            *pipeline::replay_wal(cfg, opts, log, &mut tel)
                .map_err(|e| format!("replay_wal: {e}"))?
        }
    };
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds()? - cpu0;

    let mut f = Fields::default();
    f.put("run_s", run_s);
    f.put("cpu_s", cpu_s);
    f.put("generated_packets", out.generated_packets);
    // Every delivered packet is offered to the telescope first, and on a
    // durable run every delivered packet is journaled.
    let delivered = out.health.stage("telescope.capture").map_or(0, |s| s.received);
    f.put("delivered_packets", delivered);
    f.put("fingerprint", out.fingerprint());
    f.put("conserves", u8::from(out.health.conserves()));
    put_report(&mut f, &out.report);
    if engine == Engine::Durable {
        f.put("wal_bytes", dir_bytes(&wal_dir)?);
    }
    if let Some(mem) = out.mem.as_ref().filter(|_| account) {
        for (tag, st) in mem.tags().filter(|(tag, _)| *tag != Tag::Other) {
            f.put(&format!("mem.{}.peak_bytes", tag.name()), st.peak_bytes.max(0));
        }
    }
    drop(out);
    drop(tel);
    let hwm = ah_mem::vm_hwm_bytes().ok_or("VmHWM is not readable on this platform")?;
    f.put("peak_rss_bytes", hwm);
    Ok(f)
}

// --- The staged run ----------------------------------------------------

/// The telescope's operational source filter, as the engine builds it.
fn bogon_filter() -> Result<PrefixSet, String> {
    let prefixes = ["0.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16", "224.0.0.0/4", "240.0.0.0/4"]
        .iter()
        .map(|p| p.parse().map_err(|_| format!("bad bogon prefix {p}")))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PrefixSet::from_prefixes(prefixes))
}

/// Payload evidence for the honeypot tagger, as the engine derives it.
fn payload_hint(src: Ipv4Addr4, dst_port: Option<u16>) -> PayloadHint {
    match dst_port {
        Some(80) | Some(8080) | Some(443) => match hash64(u64::from(src.to_u32())) % 12 {
            0 => PayloadHint::GoHttp,
            1 => PayloadHint::PythonRequests,
            2 => PayloadHint::HttpReferer,
            _ => PayloadHint::None,
        },
        _ => PayloadHint::None,
    }
}

fn greynoise(world: &World) -> GreyNoise {
    let acked = world.acked_list(64);
    let rdns = world.rdns(64);
    let mut vetted: HashSet<Ipv4Addr4> = HashSet::new();
    for org in world.orgs.iter().filter(|o| o.is_acked()) {
        for i in 0..64.min(org.size()) {
            if let Some(ip) = org.host(i).filter(|ip| acked.matches(*ip, &rdns).is_some()) {
                vetted.insert(ip);
            }
        }
    }
    GreyNoise::new(world.sensor_set(), vetted)
}

/// The vantage stack of the staged run plus its span recorder: one
/// method per group of stages, each call into a layer inside a span.
struct Stack {
    spans: Spans,
    dark: DarkSpace,
    filter: PrefixSet,
    telescope: Telescope,
    tracker: DailyTracker,
    /// A second aggregator fed only the captured scan packets, to time
    /// event aggregation alone. Its work repeats what
    /// `Telescope::observe` already did, so its span is reported but
    /// never added to the ledger sum.
    events_alone: EventAggregator,
    scan: Vec<(PacketMeta, ScanClass, u32)>,
    merit: Option<IspModel>,
    cu: Option<IspModel>,
    gn: Option<GreyNoise>,
    delivered: u64,
}

impl Stack {
    fn build(world: &World, opts: &RunOptions) -> Result<Stack, String> {
        let dark = DarkSpace::new(world.config.dark);
        let timeout = ah_telescope::timeout::paper_default();
        Ok(Stack {
            spans: Spans::default(),
            dark,
            filter: bogon_filter()?,
            telescope: Telescope::with_source_filter(world.config.dark, timeout, bogon_filter()?),
            tracker: DailyTracker::new(),
            events_alone: EventAggregator::new(dark.size(), timeout),
            scan: Vec::new(),
            merit: opts.merit_isp.then(|| {
                IspModel::new(IspConfig {
                    internal: world.merit_internal(),
                    policy: Box::new(world.merit_policy()),
                    routers: vec![1, 2, 3],
                    sampling_rate: opts.sampling_rate,
                })
            }),
            cu: opts.cu_isp.then(|| {
                IspModel::new(IspConfig::with_prefix_routes(
                    world.cu_internal(),
                    vec![],
                    1,
                    vec![1],
                    opts.sampling_rate,
                ))
            }),
            gn: opts.greynoise.then(|| greynoise(world)),
            delivered: 0,
        })
    }

    /// Feed one chunk of delivered packets to every vantage point, one
    /// stage (and one span) at a time.
    fn consume(&mut self, chunk: u64, pkts: &[PacketMeta]) {
        self.delivered += pkts.len() as u64;
        let id = self.spans.open("telescope.observe", chunk);
        for p in pkts {
            match self.telescope.observe(p) {
                CaptureOutcome::Scan(_) => self.tracker.record(p, true),
                CaptureOutcome::NonScan => self.tracker.record(p, false),
                CaptureOutcome::NotDark | CaptureOutcome::FilteredSource => {}
            }
        }
        self.spans.close(id);

        // Select what reached the aggregator outside any span, then time
        // the aggregator alone over exactly those packets.
        self.scan.clear();
        for p in pkts {
            let Some(idx) = self.dark.index_of(p.dst) else { continue };
            if self.filter.contains(p.src) {
                continue;
            }
            if let Some(class) = p.scan_class() {
                self.scan.push((*p, class, idx));
            }
        }
        let id = self.spans.open("telescope.events", chunk);
        for (p, class, idx) in &self.scan {
            self.events_alone.observe(p, *class, *idx);
        }
        self.spans.close(id);

        if let Some(m) = self.merit.as_mut() {
            let id = self.spans.open("flow.merit", chunk);
            for p in pkts {
                m.observe(p);
            }
            self.spans.close(id);
        }
        if let Some(c) = self.cu.as_mut() {
            let id = self.spans.open("flow.cu", chunk);
            for p in pkts {
                c.observe(p);
            }
            self.spans.close(id);
        }
        if let Some(g) = self.gn.as_mut() {
            let id = self.spans.open("intel.greynoise", chunk);
            for p in pkts {
                g.observe(p, payload_hint(p.src, p.dst_port()));
            }
            self.spans.close(id);
        }
    }

    /// The end-of-stream stages: flush, flow export, loopback, honeypot
    /// tagging, detection. Fills in every downstream metric.
    fn finish(mut self, world: &World, opts: &RunOptions, f: &mut Fields) -> Spans {
        let events: Vec<DarknetEvent> =
            self.spans.time("telescope.flush", 0, || self.telescope.flush());
        let id = self.spans.open("telescope.events", u64::MAX);
        let events_alone = self.events_alone.flush().len();
        self.spans.close(id);

        let captured = self.telescope.stats().total_packets;
        f.put("telescope.observe.packets_in", self.delivered);
        f.put("telescope.observe.captured", captured);
        f.put("telescope.observe.capture_share", ratio(captured as f64, self.delivered as f64));
        let alone = self.events_alone.stats();
        f.put("telescope.events.packets_in", alone.received);
        f.put("telescope.events.events_out", events_alone);
        f.put("telescope.events.quarantined", alone.quarantined);

        let (mut merit, mut cu) = (None, None);
        if self.merit.is_some() || self.cu.is_some() {
            let id = self.spans.open("flow.finish", 0);
            merit = self.merit.take().map(IspModel::finish);
            cu = self.cu.take().map(IspModel::finish);
            self.spans.close(id);
        }
        for (name, ds) in [("flow.merit", &merit), ("flow.cu", &cu)] {
            if let Some(ds) = ds {
                f.put(&format!("{name}.packets_in"), self.delivered);
                f.put(&format!("{name}.records_out"), ds.records.len());
            }
        }
        if let Some(ds) = merit.as_ref() {
            // The engine's validation loopback: every exported record
            // through the NetFlow v9 wire format and back.
            let id = self.spans.open("flow.v9", 0);
            let mut dec = V9Decoder::default();
            let mut decoded = 0usize;
            for (seq, chunk) in ds.records.chunks(64).enumerate() {
                let wire = encode_v9(chunk, Ts::ZERO, seq as u32, 1, seq == 0);
                decoded += dec.decode(&wire, 1).map_or(0, |recs| recs.len());
            }
            self.spans.close(id);
            f.put("flow.v9.records", ds.records.len());
            f.put("flow.v9.decode_failed", ds.records.len().saturating_sub(decoded));
        }
        if let Some(g) = self.gn.as_ref() {
            let entries = self.spans.time("intel.greynoise", u64::MAX, || g.finalize());
            black_box(entries.len());
            let st = g.ingest_stats();
            f.put("intel.greynoise.accepted", st.accepted);
            f.put("intel.greynoise.ignored", st.ignored);
        }

        let mut detector = Detector::new(DetectorConfig {
            thresholds: opts.thresholds,
            dark_size: DarkSpace::new(world.config.dark).size(),
        });
        self.spans.time("core.detector.ingest", 0, || detector.ingest_all(&events));
        let report = self.spans.time("core.detector.finalize", 0, || detector.finalize());
        put_report(f, &report);
        self.spans
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Rebuild workload `w` stage by stage on one thread, a span around each
/// call into a layer, and report every per-layer metric the stages
/// produce plus the detection-report digest ([`REPORT_KEYS`]) to hold
/// against the engine's. Returns the fields and the spans.
///
/// `scratch` is a fresh directory (the staged WAL and the torn-tail
/// clone land there); `log` is the sealed log of the `replay` workload.
pub fn run_staged(
    w: &Workload,
    seed: u64,
    size: Size,
    scratch: &Path,
    log: Option<&Path>,
) -> Result<(Fields, Spans), String> {
    let cfg = w.scenario(seed, size);
    let opts = w.options(seed);
    let mut f = Fields::default();
    let t0 = Instant::now();
    let replay_log = match w.engine {
        Engine::Replay => Some(log.ok_or("a staged replay needs --log")?),
        _ => None,
    };
    let (world, stack) = match replay_log {
        Some(log) => staged_from_log(&cfg, &opts, log, &mut f)?,
        None => staged_from_mux(w, cfg, &opts, scratch, &mut f)?,
    };
    let spans = stack.finish(&world, &opts, &mut f);
    f.put("traced_wall_s", t0.elapsed().as_secs_f64());

    if let Some(log) = replay_log {
        // Recovery after a crash mid-write: the same log with its last
        // seven bytes cut, scanned (and truncated) on a throwaway clone.
        let torn = scratch.join("torn");
        clone_log_torn(log, &torn)?;
        let t = Instant::now();
        ah_wal::recover(&torn, &Recorder::noop(), |_, _, _| {})
            .map_err(|e| format!("recover torn clone: {e}"))?;
        f.put("wal.recover.torn_tail_s", t.elapsed().as_secs_f64());
    }

    for stage in crate::catalog::LEDGER {
        let busy = spans.busy_s(stage.name);
        f.put(&format!("{}.busy_s", stage.name), busy);
        if let Some(per) = stage.per_unit {
            let count: f64 = stage.count.iter().map(|k| f.f64_or_zero(k)).sum();
            f.put(&format!("{}.{per}", stage.name), ratio(busy * 1e9, count));
        }
    }
    let commits = spans.durations_us("wal.commit");
    f.put("wal.commit.commits", commits.len());
    f.put("wal.commit.us_p50", percentile(&commits, 50.0).unwrap_or(0.0));
    f.put("wal.commit.us_p99", percentile(&commits, 99.0).unwrap_or(0.0));
    Ok((f, spans))
}

/// Stages fed by the traffic mux: generate → faults → ring → WAL →
/// vantage points, chunk by chunk.
fn staged_from_mux(
    w: &Workload,
    cfg: ScenarioConfig,
    opts: &RunOptions,
    scratch: &Path,
    f: &mut Fields,
) -> Result<(World, Stack), String> {
    let mut sc = Scenario::build(cfg);
    let world = sc.world.clone();
    let mut stack = Stack::build(&world, opts)?;
    let mut injector = opts.faults.map(FaultInjector::new);
    let wal_dir = scratch.join("staged-wal");
    let mut writer = match w.engine {
        Engine::Durable => {
            // Group commit is driven by hand, one commit per WAL_CHUNK
            // appends, so append and commit each get their own span.
            let cfg = WalWriterConfig { group_commit_frames: usize::MAX, ..Default::default() };
            Some(
                WalWriter::create(&wal_dir, cfg, &Recorder::noop())
                    .map_err(|e| format!("create staged WAL: {e}"))?,
            )
        }
        _ => None,
    };

    let mut generated = 0u64;
    let mut frames = 0u64;
    let mut pushed = 0u64;
    let mut hwm = 0usize;
    std::thread::scope(|s| -> Result<(), String> {
        // The ring hop of the threaded engines: this thread pushes, a
        // consumer thread pops and discards.
        let mut hop = w.engine.threaded().then(|| {
            let (tx, mut rx) = ring::<PacketMeta>(RING_SLOTS);
            let popper = s.spawn(move || {
                let mut n = 0u64;
                while let Some(p) = rx.pop_wait() {
                    black_box(p);
                    n += 1;
                }
                n
            });
            (tx, popper)
        });

        let mut raw: Vec<PacketMeta> = Vec::with_capacity(CHUNK);
        let mut faulted: Vec<PacketMeta> = Vec::with_capacity(CHUNK + CHUNK / 8);
        let mut chunk = 0u64;
        let mut done = false;
        while !done {
            raw.clear();
            stack.spans.time("simnet.mux", chunk, || {
                while raw.len() < CHUNK {
                    match sc.mux.next_packet() {
                        Some(p) => raw.push(p),
                        None => {
                            done = true;
                            break;
                        }
                    }
                }
            });
            generated += raw.len() as u64;

            let delivered: &[PacketMeta] = match injector.as_mut() {
                Some(inj) => {
                    faulted.clear();
                    stack.spans.time("simnet.faults", chunk, || {
                        for p in &raw {
                            inj.apply(p, &mut |q| faulted.push(*q));
                        }
                        if done {
                            inj.flush(&mut |q| faulted.push(*q));
                        }
                    });
                    &faulted
                }
                None => &raw,
            };

            if let Some((tx, _)) = hop.as_mut() {
                stack.spans.time("simnet.ring", chunk, || {
                    for p in delivered {
                        tx.push(*p);
                    }
                    tx.flush();
                });
                pushed += delivered.len() as u64;
            }

            if let Some(wr) = writer.as_mut() {
                for (i, sub) in delivered.chunks(WAL_CHUNK).enumerate() {
                    let part = chunk * (CHUNK / WAL_CHUNK) as u64 + i as u64;
                    stack
                        .spans
                        .time("wal.append", part, || {
                            sub.iter()
                                .try_for_each(|p| wr.append(&WalRecord::Packet(*p)).map(|_| ()))
                        })
                        .map_err(|e| format!("staged WAL append: {e}"))?;
                    stack
                        .spans
                        .time("wal.commit", part, || wr.commit())
                        .map_err(|e| format!("staged WAL commit: {e}"))?;
                    frames += sub.len() as u64;
                }
            }

            stack.consume(chunk, delivered);
            chunk += 1;
        }

        if let Some((tx, popper)) = hop {
            hwm = tx.high_water_mark();
            tx.close();
            let popped = popper.join().map_err(|_| "the staged ring consumer panicked")?;
            if popped != pushed {
                return Err(format!("staged ring lost packets: pushed {pushed}, popped {popped}"));
            }
        }
        Ok(())
    })?;

    f.put("simnet.mux.packets_out", generated);
    if let Some(inj) = injector {
        let st = inj.stats();
        f.put("simnet.faults.packets_in", st.input);
        f.put("simnet.faults.packets_out", st.delivered);
        f.put("simnet.faults.discarded", st.total_discarded());
        f.put("simnet.faults.duplicated", st.duplicated);
    }
    if w.engine.threaded() {
        f.put("simnet.ring.packets", pushed);
        f.put("simnet.ring.hwm_slots", hwm);
    }
    if writer.take().is_some() {
        f.put("wal.append.frames", frames);
        f.put("wal.append.bytes", dir_bytes(&wal_dir)?);
    }
    Ok((world, stack))
}

/// Stages fed by a sealed log: `ah_wal::recover` drives, and the vantage
/// stages run as child spans inside its callback one chunk at a time, so
/// recovery's own cost is its span's self time.
fn staged_from_log(
    cfg: &ScenarioConfig,
    opts: &RunOptions,
    log: &Path,
    f: &mut Fields,
) -> Result<(World, Stack), String> {
    let world = World::new(cfg.world.clone());
    let mut stack = Stack::build(&world, opts)?;
    let mut buf: Vec<PacketMeta> = Vec::with_capacity(CHUNK);
    let mut chunk = 0u64;
    let id = stack.spans.open("wal.recover", 0);
    let recovered = ah_wal::recover(log, &Recorder::noop(), |_, _, record| {
        if let WalRecord::Packet(p) = record {
            buf.push(p);
            if buf.len() == CHUNK {
                stack.consume(chunk, &buf);
                buf.clear();
                chunk += 1;
            }
        }
    })
    .map_err(|e| format!("recover {}: {e}", log.display()))?;
    stack.consume(chunk, &buf);
    stack.spans.close(id);
    if !recovered.is_sealed() {
        return Err(format!("log {} is not sealed", log.display()));
    }
    f.put("wal.recover.frames", recovered.stats.frames_valid);
    Ok((world, stack))
}

/// Copy a log directory to `dst` and cut the last seven bytes off its
/// newest segment, like a crash in the middle of a write.
fn clone_log_torn(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("mkdir {}: {e}", dst.display()))?;
    for entry in std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", src.display()))?;
        std::fs::copy(entry.path(), dst.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    let segs =
        ah_wal::segment_paths(dst).map_err(|e| format!("segments of {}: {e}", dst.display()))?;
    let (_, last) = segs.last().ok_or_else(|| format!("log {} has no segments", src.display()))?;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .map_err(|e| format!("open {}: {e}", last.display()))?;
    let len = file.metadata().map_err(|e| format!("stat {}: {e}", last.display()))?.len();
    file.set_len(len.saturating_sub(7)).map_err(|e| format!("truncate {}: {e}", last.display()))
}
