//! Turnkey end-to-end measurement runs.
//!
//! Wires a [`ScenarioConfig`]'s traffic through every vantage point the
//! paper uses — the telescope, the Merit-like ISP's border routers, the
//! CU-like campus border, and the honeypot fleet — in a single pass, then
//! finalizes detection.
//!
//! One engine runs every run, entered through two doors that take the
//! executor as an argument: [`run_with`] in memory, which can neither
//! fail nor suspend, and [`run_with_log`] journaled, resumed or replayed
//! ([`Log`]), which can. Every (log × executor) cell is reachable
//! (`ARCHITECTURE.md` §1 has the grid); [`run`] is the quickstart.
//!
//! ```text
//! feeder (mux | recovered log [+ mux]) → journal? → executor (inline | N shards) → finalize_run
//! ```
//!
//! * **Feeders.** The live traffic mux, and a recovered write-ahead log
//!   ([`Log::Resume`] feeds the log, then the mux; [`Log::Replay`] the
//!   log alone). Both end in one `deliver` step, once per fed slice of up to
//!   `BATCH` packets: the journal logs the slice packet by packet and
//!   trims it where the stream stops, and the executor takes what is
//!   left. Whenever the stream position crosses a multiple of `BATCH`
//!   the engine reaches the batch boundary, where the inline unit
//!   publishes its stage counts and the exporter ticks.
//! * **Executor.** `threads: None` consumes on the driver thread — the
//!   serial reference. `Some(n)` is a pure router: it hands each packet
//!   to the worker shard owning its source IP over a bounded SPSC ring
//!   ([`ah_simnet::ring`], std's `sync_channel`) whose items are
//!   `BATCH`-packet batches.
//!   Every decision that once required global stream order — fault
//!   injection, aggregator reordering verdicts, per-router sampling,
//!   flow-cache lateness — is a pure function of the *per-source* (or
//!   per-key) subsequence, so each shard recomputes
//!   its own slice of them independently. Each shard thread returns its
//!   reduced result through its join handle, collected in shard-index
//!   order and folded with order-insensitive operators, so both
//!   executors produce **bitwise identical** [`RunOutput`]s (see
//!   `ARCHITECTURE.md` §11 for the proof sketch and
//!   [`RunOutput::fingerprint`] for the check).
//!   Every execution unit, inline or shard, owns the fault injector in
//!   front of its vantage points, and takes packets only as a slice:
//!   each stage runs over the whole slice before the next one starts.
//! * **Journal.** [`Log::Fresh`] and [`Log::Resume`] append every fed
//!   packet to the log before the executor sees it: the log is the run's
//!   input, before any fault, and a replay or resume injects again from
//!   the caller's plan, which frame 0 (the run's own rendering) proves
//!   equal to the writer's. [`Log::Resume`] documents how a recovered
//!   prefix is re-joined to the live stream. The log does not record the
//!   executor, so a log written on either resumes and replays on either.
//!
//! [`run_parallel`], [`run_parallel_with_recorder`], [`run_wal`] and
//! [`replay_wal`] are one-line shells over the doors, kept for the
//! benchmark's pinned API and for tests.
//!
//! Tap experiments (Figures 1/2) are inherently two-phase: the paper
//! derives the hitter list from darknet detection *before* counting
//! hitter packets on the mirrored streams. [`run_taps`] therefore runs
//! the same seeded scenario twice — once to detect, once to measure —
//! exploiting the simulator's determinism as the stand-in for "the day
//! before the tap window".

use ah_core::defs::{Definition, Thresholds};
use ah_core::detector::{AhReport, Detector, DetectorConfig};
use ah_core::health::{PipelineHealth, StageHealth};
use ah_core::impact::{TapAnalyzer, TapSeries};
use ah_flow::cache::CacheStats;
use ah_flow::record::FlowRecord;
use ah_flow::router::{Disposition, FlowDataset, IspConfig, IspModel, RouterId};
use ah_flow::v9::{encode_v9, V9Decoder};
use ah_intel::greynoise::{GnEntry, GreyNoise, PayloadHint};
use ah_mem::{MemScope, Tag};
use ah_net::hash::{fnv1a_fold, FNV_OFFSET};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use ah_obs::{Exporter, Histogram, Recorder};
use ah_simnet::faults::{FaultInjector, FaultPlan, InjectorStats};
use ah_simnet::mux::{TrafficMux, BATCH};
use ah_simnet::ring::{ring, Consumer, Producer};
use ah_simnet::rng::hash64;
use ah_simnet::scenario::{Scenario, ScenarioConfig};
use ah_simnet::world::{World, WorldConfig};
use ah_telescope::capture::{CaptureOutcome, CaptureStats, CaptureSummary, DarkSpace, Telescope};
use ah_telescope::event::{sort_canonical, DarknetEvent};
use ah_trace::Tracer;
use ah_wal::record::{RunSeal, WalRecord};
use ah_wal::{RecoveredLog, WalWriter, WalWriterConfig};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Which vantage points to instantiate for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Build the Merit ISP model (flow collection at 3 border routers).
    pub merit_isp: bool,
    /// Build the CU campus model (flow collection at 1 border router).
    pub cu_isp: bool,
    /// Feed the honeypot fleet.
    pub greynoise: bool,
    /// NetFlow sampling rate for the ISPs (paper: 1:1000; scaled runs use
    /// a lower rate so sampled flows stay statistically meaningful).
    pub sampling_rate: u64,
    /// Inject faults into the packet stream between the traffic mux and
    /// every vantage point (`None` = pristine capture).
    pub faults: Option<FaultPlan>,
    /// Detection thresholds (chaos runs use looser tail cuts so the
    /// hitter lists are large enough to compare).
    pub thresholds: Thresholds,
}

impl RunOptions {
    /// Telescope only — the darknet characterization experiments.
    pub fn darknet_only() -> RunOptions {
        RunOptions {
            merit_isp: false,
            cu_isp: false,
            greynoise: false,
            sampling_rate: 100,
            faults: None,
            thresholds: Thresholds::default(),
        }
    }

    /// Telescope + Merit flows (Tables 2, 4, 8; Figure 5).
    pub fn with_flows() -> RunOptions {
        RunOptions { merit_isp: true, ..RunOptions::darknet_only() }
    }

    /// Everything (honeypot validation runs).
    pub fn full() -> RunOptions {
        RunOptions { merit_isp: true, cu_isp: true, greynoise: true, ..RunOptions::darknet_only() }
    }

    /// Apply a fault plan to the stream feeding every vantage point.
    pub fn with_faults(mut self, plan: FaultPlan) -> RunOptions {
        self.faults = Some(plan);
        self
    }

    /// Override the detection thresholds.
    pub fn with_thresholds(mut self, t: Thresholds) -> RunOptions {
        self.thresholds = t;
        self
    }
}

/// Telemetry plumbing for one run: the [`Recorder`] handed to every
/// pipeline stage plus an optional periodic snapshot [`Exporter`].
///
/// Telemetry is **observation-only**: nothing the pipeline computes ever
/// reads an instrument back, and the exporter is ticked at deterministic
/// *stream positions* (packets fed to the executor), never wall-clock
/// time — so a run with a live recorder produces a [`RunOutput`] bitwise
/// identical to the same run with [`Telemetry::disabled`].
/// `tests/telemetry.rs` holds both doors, on both executors, to exactly
/// this standard.
pub struct Telemetry {
    /// Recorder every stage registers its instruments on.
    pub(crate) recorder: Recorder,
    /// Periodic snapshot writer (JSONL + Prometheus text files); `None`
    /// means metrics are kept in memory only.
    pub exporter: Option<Exporter>,
    /// Span/journey tracer threaded through every stage ([`ah_trace`]).
    /// Noop by default; like the recorder it is observation-only, so a
    /// live tracer leaves the [`RunOutput`] bitwise identical
    /// (`tests/trace.rs` holds both doors, on both executors, to this).
    pub tracer: Tracer,
    /// Periodic memory-account refresher ([`ah_mem`] → `ah_mem_*`
    /// gauges + peak-pressure trace instants), ticked at the same
    /// deterministic stream positions as the exporter. `None` means
    /// memory telemetry refreshes only once, at finalization.
    pub(crate) mem: Option<MemPulse>,
}

impl Telemetry {
    /// No-op telemetry: a noop recorder, no exporter, a noop tracer. All
    /// instrument operations compile to a null-check on this path.
    pub fn disabled() -> Telemetry {
        Telemetry { recorder: Recorder::noop(), exporter: None, tracer: Tracer::noop(), mem: None }
    }

    /// Record metrics on `recorder` without writing snapshot files.
    pub fn new(recorder: Recorder) -> Telemetry {
        Telemetry { recorder, exporter: None, tracer: Tracer::noop(), mem: None }
    }

    /// Record metrics and export periodic snapshots.
    pub fn with_exporter(recorder: Recorder, exporter: Exporter) -> Telemetry {
        Telemetry { recorder, exporter: Some(exporter), tracer: Tracer::noop(), mem: None }
    }

    /// Attach a span tracer (builder-style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Telemetry {
        self.tracer = tracer;
        self
    }

    /// Refresh memory-account telemetry every `every` fed packets
    /// (builder-style). Meaningful only when [`ah_mem`]
    /// accounting is enabled and this process runs under the
    /// [`ah_mem::TaggedSystem`] allocator (the workspace binaries do).
    pub fn with_mem(mut self, every: u64) -> Telemetry {
        self.mem = Some(MemPulse::new(every));
        self
    }
}

/// Position-driven memory-telemetry pulse: every `every` stream
/// positions, copy the [`ah_mem`] accounts into `ah_mem_*` gauges and
/// drop a peak-pressure instant on the trace when the global live-bytes
/// high-water mark moved. Like the exporter, it advances on stream
/// positions — never wall-clock — and reads nothing back, so it cannot
/// perturb the run.
#[derive(Debug)]
pub(crate) struct MemPulse {
    every: u64,
    next: u64,
    peak_seen: i64,
}

impl MemPulse {
    /// Refresh every `every` stream positions (clamped to ≥1).
    pub(crate) fn new(every: u64) -> MemPulse {
        let every = every.max(1);
        MemPulse { every, next: every, peak_seen: 0 }
    }

    /// Called with the stream position at every batch boundary.
    fn tick(&mut self, pos: u64, rec: &Recorder, tracer: &Tracer) {
        if pos < self.next {
            return;
        }
        while self.next <= pos {
            self.next += self.every;
        }
        // First-time gauge registrations live in the recorder, which
        // outlives the run: charge them to Obs, whatever run-scoped tag
        // the feeder is under (log recovery runs under Wal).
        let _mem = MemScope::enter(Tag::Obs);
        refresh_mem_metrics(rec);
        rec.counter("ah_mem_refresh_ticks_total").inc();
        let peak = ah_mem::global_stats().peak_bytes;
        if peak > self.peak_seen {
            self.peak_seen = peak;
            tracer.instant("ah_mem_peak_live");
        }
    }
}

/// Copy every [`ah_mem`] account into `ah_mem_*` gauges on `rec`.
fn refresh_mem_metrics(rec: &Recorder) {
    let report = ah_mem::report();
    for (tag, st) in report.tags() {
        let tag = [("tag", tag.name())];
        rec.gauge_with("ah_mem_tag_live_bytes", &tag).set(st.live_bytes);
        rec.gauge_with("ah_mem_tag_live_allocs", &tag).set(st.live_allocs);
        rec.gauge_with("ah_mem_tag_peak_bytes", &tag).set(st.peak_bytes);
        rec.gauge_with("ah_mem_tag_total_bytes", &tag).set(st.total_bytes as i64);
    }
    let all = [("tag", "all")];
    rec.gauge_with("ah_mem_global_live_bytes", &all).set(report.global.live_bytes);
    rec.gauge_with("ah_mem_global_peak_bytes", &all).set(report.global.peak_bytes);
    rec.gauge_with("ah_mem_peak_rss_bytes", &all).set(report.peak_rss_bytes() as i64);
}

/// Output of a single-pass run.
pub struct RunOutput {
    /// The synthetic internet the scenario ran over.
    pub world: World,
    /// Aggressive-hitter detection output.
    pub report: AhReport,
    /// Whole-run darknet capture statistics.
    pub capture: CaptureSummary,
    /// Merit flow dataset, when flows were enabled.
    pub merit_flows: Option<FlowDataset>,
    /// CU flow dataset, when flows were enabled.
    pub cu_flows: Option<FlowDataset>,
    /// GreyNoise-style honeypot profiles, one per source the fleet saw
    /// at all, when enabled.
    pub gn_entries: Option<HashMap<Ipv4Addr4, GnEntry>>,
    /// Simulated span in days.
    pub days: u64,
    /// Total packets generated by the scenario.
    pub generated_packets: u64,
    /// Per-stage input-fate ledgers (graceful-degradation accounting).
    pub health: PipelineHealth,
    /// End-of-run memory report (per-tag peaks + VmHWM), when [`ah_mem`]
    /// accounting was enabled. Excluded from [`RunOutput::fingerprint`]:
    /// memory observations vary run to run and must never define run
    /// identity.
    pub mem: Option<ah_mem::MemReport>,
}

/// The CU campus as an "ISP" with a single border router.
fn cu_isp(world: &World, sampling_rate: u64) -> IspModel {
    IspModel::new(IspConfig::with_prefix_routes(
        world.cu_internal(),
        vec![],
        1,
        vec![1],
        sampling_rate,
    ))
}

fn merit_isp(world: &World, sampling_rate: u64) -> IspModel {
    IspModel::new(IspConfig {
        internal: world.merit_internal(),
        policy: Box::new(world.merit_policy()),
        routers: vec![1, 2, 3],
        sampling_rate,
    })
}

/// The telescope's operational source filter.
///
/// The synthetic address plan reuses several special-purpose v4 ranges
/// (RFC 1918 for the ISPs, benchmarking space for the sensors), so the
/// filter lists only bogons that cannot collide with it. Real deployments
/// would pass `ah_net::prefix::standard_bogons()`.
#[expect(
    clippy::expect_used,
    reason = "static prefix literals below; a typo fails every pipeline test at startup"
)]
fn bogon_filter() -> ah_net::prefix::PrefixSet {
    ah_net::prefix::PrefixSet::from_prefixes(
        ["0.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16", "224.0.0.0/4", "240.0.0.0/4"]
            .iter()
            .map(|p| p.parse().expect("static prefix")),
    )
}

/// Payload evidence for the honeypot tagger, derived deterministically
/// from the source (the simulator does not carry HTTP payload bytes; see
/// the `intel::greynoise` module docs for this documented substitution).
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

/// Round-trip the exported flow records through the NetFlow v9 wire
/// format and return the `flow.v9_export` ledger rows. The v9 path is a
/// validation loopback: the in-memory dataset (µs resolution) stays
/// authoritative, but every record must survive template-based
/// encode/decode. The decoder's own counts go to `rec`.
fn v9_loopback(records: &[FlowRecord], rec: &Recorder) -> [(&'static str, Fate, u64); 3] {
    let received = records.len() as u64;
    let mut dec = V9Decoder::default();
    let mut decoded = 0u64;
    for (seq, chunk) in records.chunks(64).enumerate() {
        let wire = encode_v9(chunk, Ts::ZERO, seq as u32, 1, seq == 0);
        if let Ok(recs) = dec.decode(&wire, 1) {
            decoded += recs.len() as u64;
        }
    }
    let s = dec.stats();
    rec.counter("ah_flow_v9_sets_undecodable_total").add(s.sets_undecodable);
    rec.gauge("ah_flow_v9_templates_learned").set(s.templates as i64);
    let (accepted, stage) = (decoded.min(received), "flow.v9_export");
    let failed = (stage, Fate::Discarded("decode_failed"), received - accepted);
    [(stage, Fate::Received, received), (stage, Fate::Accepted, accepted), failed]
}

// --- The health ledger: one mapping from stage stats to fates -----------

/// What became of a stage's input: one cell of its [`StageHealth`].
#[derive(Clone, Copy)]
enum Fate {
    Received,
    Accepted,
    Repaired,
    Quarantined,
    Discarded(&'static str),
}

impl Fate {
    /// Add `n` to this fate's cell of `stage`'s ledger in `health`, opening
    /// it if need be: folding every unit's rows sums them to the serial
    /// ledger. Zero discard categories are skipped ([`StageHealth::discard`]).
    fn fold(self, health: &mut PipelineHealth, stage: &str, n: u64) {
        let at = health.stages.iter().position(|s| s.stage == stage).unwrap_or_else(|| {
            health.stages.push(StageHealth::new(stage));
            health.stages.len() - 1
        });
        let st = &mut health.stages[at];
        match self {
            Fate::Received => st.received += n,
            Fate::Accepted => st.accepted += n,
            Fate::Repaired => st.repaired += n,
            Fate::Quarantined => st.quarantined += n,
            Fate::Discarded(category) => st.discard(category, n),
        }
    }

    /// Register the counter this fate of `stage` is published on.
    fn register(self, rec: &Recorder, stage: &str) -> Published {
        let (name, category) = match self {
            Fate::Received => ("ah_core_health_received_total", None),
            Fate::Accepted => ("ah_core_health_accepted_total", None),
            Fate::Repaired => ("ah_core_health_repaired_total", None),
            Fate::Quarantined => ("ah_core_health_quarantined_total", None),
            Fate::Discarded(category) => ("ah_core_health_discarded_total", Some(category)),
        };
        let labels = [("stage", stage), ("category", category.unwrap_or_default())];
        Published::register(rec, name, &labels[..1 + usize::from(category.is_some())])
    }
}

// --- Shared vantage-point state (one copy per shard) -------------------

/// All vantage-point state of one execution [`Unit`].
struct Vantage {
    telescope: Telescope,
    merit: Option<IspModel>,
    cu: Option<IspModel>,
    gn: Option<GreyNoise>,
    /// Packets consumed, and their wire bytes.
    delivered: u64,
    delivered_bytes: u64,
    /// The unit's instruments (the stages hold none, `ARCHITECTURE.md` §8).
    tracer: Tracer,
    lag_us: Histogram,
    agg_sweep_us: Histogram,
    cache_sweep_us: Histogram,
}

/// Mark every sampled source of `srcs` with a `name` journey instant;
/// nothing at all, not even `srcs`' filter, when tracing is off. Journey
/// sampling is a pure hash of the source address: it draws no randomness
/// and feeds nothing back into the pipeline.
fn journey_instants(tracer: &Tracer, name: &'static str, srcs: impl Iterator<Item = Ipv4Addr4>) {
    if tracer.is_enabled() {
        for src in srcs {
            let journey = tracer.journey_id(src.to_u32());
            if journey != 0 {
                tracer.journey_instant(name, journey);
            }
        }
    }
}

/// Mark `pkt`'s journey, if sampled, with one `ah_simnet_faults_*` instant
/// per unit by which its offer raised a fate count of the injector's
/// ledger, `before` to `after`: the instants are that ledger, counted once.
fn fate_instants(tracer: &Tracer, pkt: &PacketMeta, before: InjectorStats, after: InjectorStats) {
    let fates = |s: InjectorStats| {
        [
            ("ah_simnet_faults_outage", s.outage_dropped),
            ("ah_simnet_faults_drop", s.dropped),
            ("ah_simnet_faults_duplicate", s.duplicated),
            ("ah_simnet_faults_reorder", s.reordered),
            ("ah_simnet_faults_discard", s.truncated_discarded + s.corrupt_discarded),
        ]
    };
    for ((name, now), (_, was)) in fates(after).into_iter().zip(fates(before)) {
        let n = now - was;
        debug_assert!(n <= 2, "a packet and its duplicate raised {name} by {n}");
        journey_instants(tracer, name, std::iter::repeat_n(pkt.src, n as usize));
    }
}

/// Everything a shard hands back for the order-insensitive merge.
struct ShardOut {
    events: Vec<DarknetEvent>,
    capture: CaptureStats,
    /// This unit's ledger rows, injector to honeypot ([`Unit::fates`]).
    ledger: Vec<(&'static str, Fate, u64)>,
    merit: Option<FlowDataset>,
    cu: Option<FlowDataset>,
    gn: Option<HashMap<Ipv4Addr4, GnEntry>>,
}

impl Vantage {
    fn build(world: &World, opts: &RunOptions, rec: &Recorder, tracer: &Tracer) -> Vantage {
        let telescope = {
            let _mem = MemScope::enter(Tag::Telescope);
            Telescope::with_source_filter(
                world.config.dark,
                ah_telescope::timeout::paper_default(),
                bogon_filter(),
            )
        };
        let merit = opts.merit_isp.then(|| {
            let _mem = MemScope::enter(Tag::Flow);
            merit_isp(world, opts.sampling_rate)
        });
        let cu = opts.cu_isp.then(|| {
            let _mem = MemScope::enter(Tag::Flow);
            cu_isp(world, opts.sampling_rate)
        });
        let gn = opts.greynoise.then(|| {
            let _mem = MemScope::enter(Tag::Detectors);
            // GN's vetting knows the acknowledged orgs' addresses.
            let acked = world.acked_list(64);
            let rdns = world.rdns(64);
            let mut vetted: HashSet<Ipv4Addr4> = HashSet::new();
            for org in world.orgs.iter().filter(|o| o.is_acked()) {
                for i in 0..64.min(org.size()) {
                    let Some(ip) = org.host(i) else { continue };
                    if acked.matches(ip, &rdns).is_some() {
                        vetted.insert(ip);
                    }
                }
            }
            GreyNoise::new(world.sensor_set(), vetted)
        });
        // The recorder outlives the run: its instruments are charged to Obs.
        let _mem = MemScope::enter(Tag::Obs);
        let histogram = |name| rec.histogram(name, ah_obs::LATENCY_US_BUCKETS);
        let cache_sweep_us = if merit.is_some() || cu.is_some() {
            histogram("ah_flow_cache_sweep_duration_us")
        } else {
            Histogram::default()
        };
        Vantage {
            telescope,
            merit,
            cu,
            gn,
            delivered: 0,
            delivered_bytes: 0,
            tracer: tracer.clone(),
            lag_us: histogram("ah_telescope_agg_watermark_lag_us"),
            agg_sweep_us: histogram("ah_telescope_agg_sweep_duration_us"),
            cache_sweep_us,
        }
    }

    /// Feed a slice of delivered packets to every vantage point, stage
    /// by stage: the telescope runs over the whole slice, then Merit, CU
    /// and the honeypots, each under one memory scope of its own
    /// (`ARCHITECTURE.md` §13). The stages share no state, so each sees
    /// exactly the packet sequence a packet-by-packet loop would show it.
    /// Both executors run this exact path: every downstream decision is a
    /// pure function of the per-source (or per-key) subsequence, so a
    /// shard consuming only its sources computes exactly what the inline
    /// executor does (see `ARCHITECTURE.md` §11).
    ///
    /// No stage sweeps per packet: after its slice loop, the aggregator and
    /// each flow cache sweep here when due, each sweep timed (§11.2).
    fn consume(&mut self, pkts: &[PacketMeta]) {
        self.delivered += pkts.len() as u64;
        self.delivered_bytes += pkts.iter().map(|p| u64::from(p.wire_len)).sum::<u64>();
        let tracer = &self.tracer;
        journey_instants(tracer, "ah_pipeline_vantage_consume", pkts.iter().map(|p| p.src));
        {
            let _mem = MemScope::enter(Tag::Telescope);
            let telescope = &mut self.telescope;
            for pkt in pkts {
                if let CaptureOutcome::Scan(_) = telescope.capture(pkt) {
                    self.lag_us.observe(telescope.aggregator().watermark().since(pkt.ts).0);
                }
            }
            let dark = telescope.dark_space();
            let captured = pkts.iter().filter(|p| dark.index_of(p.dst).is_some());
            journey_instants(tracer, "ah_telescope_capture_observe", captured.map(|p| p.src));
            let agg = telescope.aggregator_mut();
            if let Some(now) = agg.sweep_due() {
                let _trace = tracer.span("ah_telescope_agg_sweep");
                let _time = self.agg_sweep_us.time();
                agg.advance(now);
            }
        }
        for isp in [self.merit.as_mut(), self.cu.as_mut()].into_iter().flatten() {
            let _mem = MemScope::enter(Tag::Flow);
            pkts.iter().for_each(|pkt| _ = isp.cross(pkt));
            let border =
                pkts.iter().filter(|p| matches!(isp.disposition(p), Disposition::Border(..)));
            journey_instants(tracer, "ah_flow_router_observe", border.map(|p| p.src));
            for cache in isp.caches_mut() {
                if let Some(now) = cache.sweep_due() {
                    let _time = self.cache_sweep_us.time();
                    cache.sweep(now);
                }
            }
        }
        if let Some(g) = self.gn.as_mut() {
            let _mem = MemScope::enter(Tag::Detectors);
            for pkt in pkts {
                g.observe(pkt, payload_hint(pkt.src, pkt.dst_port()));
            }
        }
    }

    /// Every count but the input fates ([`Unit::fates`]) that this unit's
    /// stages hold in their own stats, each as `f(metric, router label,
    /// count)`, always in the same order; a stage not built names nothing.
    fn counts(&self, f: &mut impl FnMut(&'static str, Option<RouterId>, u64)) {
        let (cap, agg) = (self.telescope.stats(), self.telescope.aggregator().stats());
        f("ah_pipeline_mux_bytes_delivered_total", None, self.delivered_bytes);
        f("ah_telescope_capture_bytes_total", None, cap.bytes);
        f("ah_telescope_agg_sweeps_total", None, agg.sweeps);
        f("ah_telescope_agg_active_events_hwm", None, agg.active_hwm);
        f(EVENTS_COMPLETED, None, agg.closed);
        let mut cache = CacheStats::default();
        for (id, seen, c) in self.merit.iter().chain(&self.cu).flat_map(IspModel::routers) {
            f("ah_flow_sampler_packets_seen_total", Some(id), seen);
            f("ah_flow_sampler_packets_selected_total", Some(id), c.received);
            f("ah_flow_cache_active_flows_hwm", Some(id), c.active_hwm);
            cache.merge(&c);
        }
        if self.merit.is_some() || self.cu.is_some() {
            f("ah_flow_cache_records_evicted_total", None, cache.evicted);
            f("ah_flow_cache_sweeps_total", None, cache.sweeps);
            f(RECORDS_EXPORTED, None, cache.cut);
        }
        if let Some(g) = self.gn.as_ref() {
            f("ah_intel_greynoise_profiles_hwm", None, g.ingest_stats().profiles);
        }
    }
}

// --- Stage metrics: counted once, in the stages' stats -----------------

/// One instrument a unit publishes a stage count on (`ARCHITECTURE.md`
/// §8); every unit registering a name shares its series.
enum Published {
    /// A `_total` counter, and this unit's count at its last publish: the
    /// counter gets the difference, so the units' shares sum to the run's.
    Counter(ah_obs::Counter, u64),
    /// A `_hwm` gauge: the units' maximum.
    Mark(ah_obs::Gauge),
}

impl Published {
    fn register(rec: &Recorder, name: &str, labels: &[(&str, &str)]) -> Published {
        // The recorder outlives the run: its instruments are charged to Obs.
        let _mem = MemScope::enter(Tag::Obs);
        if name.ends_with("_hwm") {
            Published::Mark(rec.gauge_with(name, labels))
        } else {
            Published::Counter(rec.counter_with(name, labels), 0)
        }
    }

    fn publish(&mut self, count: u64) {
        match self {
            Published::Counter(counter, sent) => {
                counter.add(count - std::mem::replace(sent, count))
            }
            Published::Mark(gauge) => gauge.set_max(count as i64),
        }
    }
}

/// The counts the end-of-stream reduction still moves: it closes every
/// open event and cuts every open flow.
const EVENTS_COMPLETED: &str = "ah_telescope_agg_events_completed_total";
const RECORDS_EXPORTED: &str = "ah_flow_cache_records_exported_total";

// --- The executor: one inline vantage stack, or N shards ----------------

/// Packets in flight per shard ring; each ring carries the raw packets
/// of 1/N of the source space, `BATCH` packets to an item.
const RING_CAPACITY: usize = 4096;

/// One execution unit — the whole pipeline in the inline executor, one
/// shard's slice of it in the sharded one: a vantage stack behind the
/// run's fault injector, if any. Verdicts are a pure function of (source,
/// per-source index), so a shard's substream yields the serial decisions.
struct Unit {
    injector: Option<FaultInjector>,
    /// What the injector delivered from the slice on offer, handed to the
    /// vantage points whole. It grows only inside the injector's `Mux`
    /// scope, and never without an injector.
    faulted: Vec<PacketMeta>,
    vantage: Vantage,
    /// One per count of [`Vantage::counts`], by metric name, then one per
    /// row of [`Unit::fates`], by stage; none when the recorder is
    /// disabled, so that a run without metrics reads nothing.
    metrics: Vec<(&'static str, Published)>,
}

impl Unit {
    fn build(world: &World, opts: &RunOptions, rec: &Recorder, tracer: &Tracer) -> Unit {
        let injector = opts.faults.map(|plan| {
            let _mem = MemScope::enter(Tag::Mux);
            FaultInjector::new(plan)
        });
        let vantage = Vantage::build(world, opts, rec, tracer);
        let mut unit = Unit { injector, faulted: Vec::new(), vantage, metrics: Vec::new() };
        if rec.is_enabled() {
            let mut metrics = Vec::new();
            unit.vantage.counts(&mut |name, router, _| {
                let id = router.map_or_else(String::new, |r| r.to_string());
                let labels = &[("router", id.as_str())][..usize::from(router.is_some())];
                metrics.push((name, Published::register(rec, name, labels)));
            });
            unit.fates(&mut |stage, fate, _| metrics.push((stage, fate.register(rec, stage))));
            unit.metrics = metrics;
        }
        unit
    }

    /// This unit's health ledger, one `f(stage, fate, count)` row per cell
    /// it counts (a cell with no row reads 0), in pipeline order: injector,
    /// capture, events, Merit, CU, honeypots. A stage yields the same rows
    /// whatever its counts; a stage the run does not build yields none.
    fn fates(&self, f: &mut impl FnMut(&'static str, Fate, u64)) {
        use Fate::{Accepted, Discarded, Quarantined, Received, Repaired};
        if let Some(s) = self.injector.as_ref().map(FaultInjector::stats) {
            let stage = "faults.injector";
            f(stage, Received, s.input + s.duplicated);
            f(stage, Accepted, s.delivered);
            f(stage, Discarded("dropped"), s.dropped);
            f(stage, Discarded("outage"), s.outage_dropped);
            f(stage, Discarded("truncated"), s.truncated_discarded);
            f(stage, Discarded("corrupt"), s.corrupt_discarded);
        }
        let (v, stage) = (&self.vantage, "telescope.capture");
        let cap = v.telescope.stats();
        f(stage, Received, v.delivered);
        f(stage, Accepted, cap.total_packets);
        f(stage, Discarded("not_dark"), cap.not_dark);
        f(stage, Discarded("filtered_source"), cap.filtered);
        let (agg, stage) = (v.telescope.aggregator().stats(), "telescope.events");
        f(stage, Received, agg.received);
        f(stage, Accepted, agg.accepted);
        f(stage, Repaired, agg.start_repaired);
        f(stage, Quarantined, agg.quarantined);
        for (stage, isp) in [("flow.merit", &v.merit), ("flow.cu", &v.cu)] {
            if let Some(s) = isp.as_ref().map(IspModel::cache_stats) {
                f(stage, Received, s.received);
                f(stage, Accepted, s.accepted);
                f(stage, Repaired, s.first_repaired);
                f(stage, Discarded("duplicate"), s.duplicates_suppressed);
            }
        }
        if let Some(s) = v.gn.as_ref().map(GreyNoise::ingest_stats) {
            let stage = "intel.greynoise";
            f(stage, Received, s.received);
            f(stage, Accepted, s.accepted);
            f(stage, Discarded("non_sensor_dst"), s.ignored);
        }
    }

    /// Publish the stage counts and the ledger: every batch boundary, and on exit.
    fn publish(&mut self) {
        if self.metrics.is_empty() {
            return;
        }
        let mut metrics = std::mem::take(&mut self.metrics);
        let mut next = metrics.iter_mut();
        let mut publish = |count| next.next().map(|(_, m)| m.publish(count));
        self.vantage.counts(&mut |_, _, count| _ = publish(count));
        self.fates(&mut |_, _, count| _ = publish(count));
        self.metrics = metrics;
    }

    /// The injector, if any, runs over the whole slice, then the vantage
    /// points consume what it delivered.
    fn offer(&mut self, pkts: &[PacketMeta]) {
        let Unit { injector, faulted, vantage, .. } = self;
        let Some(inj) = injector else { return vantage.consume(pkts) };
        {
            let _mem = MemScope::enter(Tag::Mux);
            let tracer = &vantage.tracer;
            if tracer.is_enabled() {
                for pkt in pkts {
                    let before = inj.stats();
                    inj.apply(pkt, &mut |p| faulted.push(*p));
                    fate_instants(tracer, pkt, before, inj.stats());
                }
            } else {
                pkts.iter().for_each(|pkt| inj.apply(pkt, &mut |p| faulted.push(*p)));
            }
        }
        vantage.consume(faulted);
        faulted.clear();
    }

    /// End of stream: release what the injector still holds, publish, then
    /// reduce to plain mergeable data — the unit's ledger, in pipeline
    /// order, and what its stages produced.
    fn finish(mut self) -> ShardOut {
        if let Some(inj) = self.injector.as_mut() {
            {
                let _mem = MemScope::enter(Tag::Mux);
                inj.flush(&mut |p| self.faulted.push(*p));
            }
            self.vantage.consume(&self.faulted);
        }
        self.publish();
        // The ledger is read before `IspModel::finish` flushes the caches.
        let mut ledger = Vec::new();
        self.fates(&mut |stage, fate, n| ledger.push((stage, fate, n)));
        let Unit { mut vantage, mut metrics, .. } = self;
        // Sorted here, on the shard's own thread; `finalize_run` only merges.
        let events = vantage.telescope.flush();
        let (merit, cu) = (vantage.merit.map(IspModel::finish), vantage.cu.map(IspModel::finish));
        let gn = vantage.gn.map(|g| {
            let _mem = MemScope::enter(Tag::Detectors);
            g.finalize()
        });
        let records: usize = merit.iter().chain(&cu).map(|ds| ds.records.len()).sum();
        for (name, m) in &mut metrics {
            match *name {
                EVENTS_COMPLETED => m.publish(events.len() as u64),
                RECORDS_EXPORTED => m.publish(records as u64),
                _ => {}
            }
        }
        ShardOut { events, capture: vantage.telescope.stats().clone(), ledger, merit, cu, gn }
    }
}

/// Driver-side half of the sharded executor: the SPSC producers, one
/// staging batch per shard, and the worker handles, each of which joins
/// to its shard's [`ShardOut`]. The driver is a pure router —
/// `hash64(src) mod N`, a copy into that shard's batch, and a ring push
/// per full batch. A batch is a `BATCH`-capacity vector handed over
/// whole: the shard frees it once its unit has run it.
struct Shards<'scope> {
    producers: Vec<Producer<Vec<PacketMeta>>>,
    staged: Vec<Vec<PacketMeta>>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ShardOut>>,
    m_stalls: ah_obs::Counter,
    m_stall_us: ah_obs::Histogram,
}

impl<'scope> Shards<'scope> {
    /// Spawn `threads` shard workers. Each pops its slice of the source
    /// space off its SPSC ring, feeds it to a shard-local [`Unit`], and
    /// returns the reduced result from its thread.
    fn spawn(
        scope: &'scope std::thread::Scope<'scope, '_>,
        threads: usize,
        world: &'scope World,
        opts: &'scope RunOptions,
        rec: &'scope Recorder,
        tracer: &'scope Tracer,
    ) -> Shards<'scope> {
        let mut producers = Vec::with_capacity(threads);
        let mut consumers = Vec::with_capacity(threads);
        let staged = {
            let _mem = MemScope::enter(Tag::Mux);
            for _ in 0..threads {
                let (tx, rx) = ring(RING_CAPACITY / BATCH);
                producers.push(tx);
                consumers.push(rx);
            }
            (0..threads).map(|_| Vec::with_capacity(BATCH)).collect()
        };
        let worker = move |i: usize, mut rx: Consumer<Vec<PacketMeta>>| {
            {
                let _mem = MemScope::enter(Tag::Trace);
                tracer.set_track("ah_pipeline_shard_worker", i as u64 + 1);
            }
            let naps = {
                let _mem = MemScope::enter(Tag::Obs);
                rec.counter_with("ah_pipeline_shard_naps_total", &[("shard", &i.to_string())])
            };
            let mut unit = Unit::build(world, opts, rec, tracer);
            while let Some(batch) = rx.pop_wait() {
                journey_instants(tracer, "ah_pipeline_shard_consume", batch.iter().map(|p| p.src));
                unit.offer(&batch);
                unit.publish();
            }
            naps.add(rx.naps());
            let _mem = MemScope::enter(Tag::Merge);
            unit.finish()
        };
        let handles = consumers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| scope.spawn(move || worker(i, rx)))
            .collect();
        Shards {
            producers,
            staged,
            handles,
            m_stalls: rec.counter("ah_pipeline_dispatch_stalls_total"),
            m_stall_us: rec.histogram("ah_pipeline_dispatch_stall_us", ah_obs::LATENCY_US_BUCKETS),
        }
    }

    fn route(&mut self, pkts: &[PacketMeta], tracer: &Tracer) {
        journey_instants(tracer, "ah_pipeline_dispatch_route", pkts.iter().map(|p| p.src));
        for pkt in pkts {
            let shard =
                (hash64(u64::from(pkt.src.to_u32())) % self.producers.len() as u64) as usize;
            let batch = &mut self.staged[shard];
            batch.push(*pkt);
            if batch.len() == BATCH {
                let batch = {
                    let _mem = MemScope::enter(Tag::Mux);
                    std::mem::replace(batch, Vec::with_capacity(BATCH))
                };
                self.send(shard, batch, tracer);
            }
        }
    }

    /// Push a batch onto shard `shard`'s ring, waiting while it is full.
    fn send(&mut self, shard: usize, batch: Vec<PacketMeta>, tracer: &Tracer) {
        let tx = &mut self.producers[shard];
        if let Err(back) = tx.try_push(batch) {
            let t0 = std::time::Instant::now();
            tracer.instant("ah_pipeline_dispatch_stall");
            tx.push(back);
            self.m_stalls.inc();
            self.m_stall_us.observe(t0.elapsed().as_micros() as u64);
        }
    }

    /// Close the rings, then join the shard threads in shard-index order;
    /// each join yields that shard's result. A shard panic propagates
    /// through the `expect` below.
    #[expect(
        clippy::expect_used,
        reason = "a panicking shard thread must propagate the panic rather than silently drop a shard's output"
    )]
    fn join(mut self, rec: &Recorder, tracer: &Tracer) -> Vec<ShardOut> {
        for (shard, batch) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            if !batch.is_empty() {
                self.send(shard, batch, tracer);
            }
        }
        for (i, p) in self.producers.into_iter().enumerate() {
            // Read the peak occupancy before close() consumes the
            // producer; one gauge per shard, labeled by shard index, in
            // packets (ring items times `BATCH`).
            let shard = i.to_string();
            rec.gauge_with("ah_pipeline_ring_occupancy_hwm", &[("shard", shard.as_str())])
                .set((p.high_water_mark() * BATCH) as i64);
            p.close();
        }
        let _trace = tracer.span("ah_pipeline_merge_collect");
        let _mem = MemScope::enter(Tag::Merge);
        self.handles.into_iter().map(|h| h.join().expect("pipeline shard thread")).collect()
    }
}

/// Where fed packets are injected and consumed: on the driver thread, or
/// on N shard threads behind SPSC rings. One `match` per fed slice.
enum Executor<'scope> {
    Inline(Box<Unit>),
    Sharded(Shards<'scope>),
}

/// Merge shard outputs and finalize. The inline executor hands over a
/// single shard, so every run shares every line of finalization.
fn finalize_run(
    world: World,
    days: u64,
    generated: u64,
    shards: Vec<ShardOut>,
    opts: &RunOptions,
    tel: &mut Telemetry,
) -> RunOutput {
    // Merge + detection time, wall-clock. The span value flows only to
    // telemetry output, never into RunOutput, so it cannot perturb
    // determinism.
    let merge_span =
        tel.recorder.histogram("ah_pipeline_merge_duration_us", ah_obs::LATENCY_US_BUCKETS).time();
    let mut shards = shards.into_iter();
    #[expect(
        clippy::expect_used,
        reason = "both executors hand over at least one shard: the inline one exactly one, the sharded one max(threads, 1)"
    )]
    let first = shards.next().expect("at least one shard");
    // Counts over disjoint source slices: the units' ledger rows fold into
    // the serial ledger (`ARCHITECTURE.md` §6).
    let mut ledger = first.ledger;
    let mut capture_stats = first.capture;
    let mut events = first.events;
    let mut merit_parts: Vec<_> = first.merit.into_iter().collect();
    let mut cu_parts: Vec<_> = first.cu.into_iter().collect();
    let mut gn_parts: Vec<_> = first.gn.into_iter().collect();
    {
        let _mem = MemScope::enter(Tag::Merge);
        for sh in shards {
            ledger.extend(sh.ledger);
            capture_stats.merge(&sh.capture);
            events.extend(sh.events);
            merit_parts.extend(sh.merit);
            cu_parts.extend(sh.cu);
            gn_parts.extend(sh.gn);
        }

        // Canonical ingest order: shard counts must not leak into the
        // report's record table. Each shard's flush arrives sorted by key
        // and sources are shard-disjoint, so ordering the concatenation
        // by key keeps every key's events in close order: the serial
        // sequence. A single unit's flush is already canonical and is
        // not sorted again.
        sort_canonical(&mut events);
    }
    let detector = {
        let _pass = tel.tracer.span("ah_pipeline_detector_pass");
        let _mem = MemScope::enter(Tag::Detectors);
        // Journey endpoint: a sampled source's packets become darknet
        // events and land in the detector here.
        let srcs = events.iter().map(|e| e.key.src);
        journey_instants(&tel.tracer, "ah_pipeline_detector_ingest", srcs);
        let cfg = DetectorConfig {
            thresholds: opts.thresholds,
            dark_size: DarkSpace::new(world.config.dark).size(),
        };
        Detector::with_events(cfg, events)
    };

    let (merit_flows, cu_flows, gn_entries) = {
        let _mem = MemScope::enter(Tag::Merge);
        // Honeypot entries are keyed by source IP and sources are
        // shard-disjoint, so the union is exact.
        let gn = gn_parts.into_iter().reduce(|mut all, part| {
            all.extend(part);
            all
        });
        (merge_flow_parts(merit_parts), merge_flow_parts(cu_parts), gn)
    };
    let capture = CaptureSummary::from(&capture_stats);
    let report = {
        let _mem = MemScope::enter(Tag::Detectors);
        detector.finalize()
    };
    if let Some(flows) = merit_flows.as_ref() {
        // The one stage that exists only here, published as a unit's are.
        for (stage, fate, n) in v9_loopback(&flows.records, &tel.recorder) {
            fate.register(&tel.recorder, stage).publish(n);
            ledger.push((stage, fate, n));
        }
    }
    let mut health = PipelineHealth::default();
    ledger.into_iter().for_each(|(stage, fate, n)| fate.fold(&mut health, stage, n));
    drop(merge_span);
    // Closing memory snapshot: refresh the `ah_mem_*` gauges one last
    // time (so the final export below carries the end-of-run accounts)
    // and capture the structured report. Reading the accounts feeds
    // nothing back into the pipeline, so this is determinism-neutral.
    let mem = if ah_mem::accounting_enabled() {
        if tel.recorder.is_enabled() {
            refresh_mem_metrics(&tel.recorder);
        }
        Some(ah_mem::report())
    } else {
        None
    };
    // Flush one final snapshot at the end-of-stream position so the
    // exported files always cover the completed run.
    if let Some(ex) = tel.exporter.as_mut() {
        ex.export_now(generated);
    }
    RunOutput {
        world,
        report,
        capture,
        merit_flows,
        cu_flows,
        gn_entries,
        days,
        generated_packets: generated,
        health,
        mem,
    }
}

/// Merge per-shard flow datasets: records concatenate and re-sort into
/// `FlowRecord`'s order, truth counters sum. The sort is unstable, so it
/// copies no record: records that order calls equal are identical.
fn merge_flow_parts(parts: Vec<FlowDataset>) -> Option<FlowDataset> {
    let mut parts = parts.into_iter();
    let mut ds = parts.next()?;
    for d in parts {
        ds.records.extend(d.records);
        for (k, n) in d.router_days {
            *ds.router_days.entry(k).or_default() += n;
        }
    }
    ds.records.sort_unstable();
    Some(ds)
}

// --- Durable runs: configuration and outcome ----------------------------

/// Durable-run configuration: where the write-ahead log lives and the
/// optional interruption points used by chaos tests and the
/// crash-recovery gate (`tests/cli.rs`). The log is written with
/// [`ah_wal::WalWriterConfig`]'s defaults.
#[derive(Debug, Clone)]
pub struct WalRun {
    /// Directory holding the log: its `*.seg` files and nothing else.
    dir: PathBuf,
    /// Suspend cleanly after this many fed (and logged) packets: commit
    /// the log, leave it unsealed, and return [`WalOutcome::Suspended`].
    pub suspend_after: Option<u64>,
    /// Abort the process with a deliberately torn tail after this many
    /// fed packets (crash drills; the process does not return).
    pub crash_after: Option<u64>,
}

impl WalRun {
    /// A durable run writing to `dir` with no interruption points.
    pub fn new(dir: impl Into<PathBuf>) -> WalRun {
        WalRun { dir: dir.into(), suspend_after: None, crash_after: None }
    }

    /// Suspend after `n` fed packets.
    pub fn suspend_after(mut self, n: u64) -> WalRun {
        self.suspend_after = Some(n);
        self
    }

    /// Crash (abort) with a torn tail after `n` fed packets.
    pub fn crash_after(mut self, n: u64) -> WalRun {
        self.crash_after = Some(n);
        self
    }
}

/// The write-ahead log a [`run_with_log`] run reads or writes.
#[derive(Debug, Clone, Copy)]
pub enum Log<'a> {
    /// Journal the live stream into a fresh log. A completed run seals
    /// it; a suspended or crashed one leaves a prefix to resume.
    Fresh(&'a WalRun),
    /// Feed the log recovered from the run's directory (truncating any
    /// torn tail), then re-drive the generator past that prefix — whose
    /// payload hash must match the log's — journaling onto the same log.
    /// A sealed log is replayed; an empty directory starts a fresh log.
    /// An interruption point inside the prefix is refused
    /// ([`io::ErrorKind::InvalidInput`]) and the log stays resumable.
    Resume(&'a WalRun),
    /// Feed the sealed log in this directory and nothing else: the stored
    /// stream takes the mux's place, and the seal's count and hash are
    /// held to what the log contained. An unsealed log is refused.
    Replay(&'a Path),
}

/// Result of a durable run: either a finished [`RunOutput`] (log sealed)
/// or a clean suspension (log committed but unsealed, ready for
/// [`Log::Resume`]).
pub enum WalOutcome {
    /// The run finished; the log is sealed and replayable.
    Completed(Box<RunOutput>),
    /// The run suspended after `delivered` packets were fed and logged.
    Suspended {
        /// Packets fed (generated, pre-fault) and logged before suspension.
        delivered: u64,
        /// Frames durable on disk at suspension (meta frame included).
        durable_seq: u64,
    },
}

impl WalOutcome {
    /// Unwrap a completed run; `None` if the run suspended.
    pub fn completed(self) -> Option<Box<RunOutput>> {
        match self {
            WalOutcome::Completed(out) => Some(out),
            WalOutcome::Suspended { .. } => None,
        }
    }
}

/// What a durable run writes as frame 0: the run's own `Debug`
/// rendering, which covers every scenario and option field.
fn run_description(cfg: &ScenarioConfig, opts: &RunOptions) -> Vec<u8> {
    format!("{cfg:?} | {opts:?}").into_bytes()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reject a resume/replay whose scenario or options differ from the ones
/// the log was written under — silently mixing them would "recover" into
/// a run that never happened.
fn check_meta(meta: &[u8], want: &[u8]) -> io::Result<()> {
    if meta != want {
        return Err(invalid(format!(
            "WAL was written under a different scenario/options (log: {}, requested: {})",
            String::from_utf8_lossy(meta),
            String::from_utf8_lossy(want)
        )));
    }
    Ok(())
}

// --- The engine ---------------------------------------------------------

/// A feeder's reusable slice buffer, `BATCH` packets long.
fn feeder_batch() -> Vec<PacketMeta> {
    let _mem = MemScope::enter(Tag::Mux);
    Vec::with_capacity(BATCH)
}

/// The engine's journal part: the log writer plus everything needed to
/// prove, on resume, that the re-driven stream is the one the log holds.
struct Journal {
    writer: WalWriter,
    scratch: Vec<u8>,
    /// Rolling FNV over every (re-)driven packet's frame payload.
    hash: u64,
    /// Packets of the re-driven stream still inside the recovered
    /// prefix (0 on a fresh run). They are hashed and dropped: the
    /// executor already consumed them from the log.
    skip: u64,
    /// Rolling FNV over the recovered prefix's payloads; `hash` must
    /// equal it bit for bit when `skip` reaches 0.
    prefix_hash: u64,
    suspend_after: Option<u64>,
    crash_after: Option<u64>,
}

impl Journal {
    /// Journal a fed slice packet by packet, the first packet it hands on
    /// taking stream position `pos + 1`. Returns the part of `pkts` the
    /// executor runs, and why the stream stops, if it stops inside the
    /// slice: the recovered prefix is hashed and left out, and the
    /// slice ends at a log error or just after the suspension point.
    fn log(
        &mut self,
        pkts: &[PacketMeta],
        pos: u64,
        tracer: &Tracer,
    ) -> (Range<usize>, Option<io::Result<()>>) {
        let mut start = 0;
        for (i, pkt) in pkts.iter().enumerate() {
            {
                let _mem = MemScope::enter(Tag::Wal);
                self.scratch.clear();
                WalRecord::Packet(*pkt).encode_payload(&mut self.scratch);
            }
            self.hash = fnv1a_fold(self.hash, &self.scratch);
            if self.skip > 0 {
                // Fast-forward over the recovered prefix. At the crossing,
                // the rolling hash over the re-generated stream must equal
                // the hash over what the log actually held.
                self.skip -= 1;
                start = i + 1;
                if self.skip == 0 && self.hash != self.prefix_hash {
                    let diverged =
                        "recovered WAL prefix diverges from the deterministic packet stream";
                    return (start..start, Some(Err(invalid(diverged))));
                }
                continue;
            }
            if let Err(e) = self.writer.append_payload(&self.scratch) {
                return (start..i, Some(Err(e)));
            }
            journey_instants(tracer, "ah_pipeline_wal_append", std::iter::once(pkt.src));
            let at = pos + (i - start) as u64 + 1;
            if self.crash_after == Some(at) {
                self.writer.crash_with_torn_tail();
            }
            if self.suspend_after == Some(at) {
                // This packet is in the log, so it is still executed; the
                // stream stops after it.
                return (start..i + 1, Some(Ok(())));
            }
        }
        (start..pkts.len(), None)
    }
}

/// Why a journaled feed ended before the stream did.
enum Stop {
    /// The journal reached its suspension point.
    Suspended { delivered: u64, durable_seq: u64 },
    /// The log failed, or was refused.
    Failed(io::Error),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Failed(e)
    }
}

/// The one execution engine (see the module docs for the picture). Both
/// feeders end in [`Engine::deliver`], the only place a slice is
/// journaled, counted and handed to the executor, and the only caller of
/// the batch boundary [`Engine::tick`].
struct Engine<'a, 'scope> {
    exec: Executor<'scope>,
    journal: Option<Journal>,
    tel: &'a mut Telemetry,
    /// Stream position: packets fed to the executor so far.
    pos: u64,
    /// Set once, by the journal only: `Ok` at the suspension point, `Err`
    /// when the log failed. Either way the stream stops there.
    halt: Option<io::Result<()>>,
}

impl Engine<'_, '_> {
    /// The single step, once per fed slice: journal → count → executor,
    /// and the batch boundary whenever the position crosses a multiple
    /// of `BATCH`. The inline unit runs the feeder's slice itself, uncopied.
    fn deliver(&mut self, pkts: &[PacketMeta]) {
        let pkts = match self.journal.as_mut() {
            Some(j) => {
                let (run, halt) = j.log(pkts, self.pos, &self.tel.tracer);
                self.halt = halt;
                &pkts[run]
            }
            None => pkts,
        };
        if pkts.is_empty() {
            return;
        }
        let before = self.pos / BATCH as u64;
        self.pos += pkts.len() as u64;
        match &mut self.exec {
            Executor::Inline(unit) => unit.offer(pkts),
            Executor::Sharded(shards) => shards.route(pkts, &self.tel.tracer),
        }
        if self.pos / BATCH as u64 != before {
            self.tick();
        }
    }

    /// The batch boundary, every `BATCH` fed positions: the inline unit
    /// publishes its stage counts, then the exporter and the memory pulse
    /// tick, so an inline snapshot is exact at its position. Shards
    /// publish on their own threads, after each ring batch.
    fn tick(&mut self) {
        if let Executor::Inline(unit) = &mut self.exec {
            unit.publish();
        }
        if let Some(ex) = self.tel.exporter.as_mut() {
            ex.maybe_export(self.pos);
        }
        if let Some(mp) = self.tel.mem.as_mut() {
            mp.tick(self.pos, &self.tel.recorder, &self.tel.tracer);
        }
    }

    /// Feeder: pull the traffic mux dry, a `BATCH` of packets at a time
    /// (or until the journal stops the run). A journaled run stops exactly
    /// at its interruption point: `deliver` trims the batch there, and the
    /// rest of it is regenerated on resume, like everything past the point.
    fn pull(&mut self, mux: &mut TrafficMux) {
        let _drive = self.tel.tracer.span("ah_pipeline_mux_drive");
        let mut batch = feeder_batch();
        while self.halt.is_none() && mux.next_batch(&mut batch, BATCH) > 0 {
            self.deliver(&batch);
            batch.clear();
        }
    }

    /// Feeder: recover the log in `dir` (truncating any torn/corrupt
    /// tail) and deliver every durable packet frame, `BATCH` to a slice —
    /// none at all unless frame 0 is the description of this very run
    /// (`want`). Returns the log summary and the rolling FNV over the
    /// packet payloads.
    fn recover(&mut self, dir: &Path, want: &[u8]) -> io::Result<(RecoveredLog, u64)> {
        let (rec, tracer) = (self.tel.recorder.clone(), self.tel.tracer.clone());
        let m_replay = rec.counter("ah_wal_replay_packets_total");
        let _scan = tracer.span("ah_wal_recover_scan");
        let mut hash = FNV_OFFSET;
        let mut meta_ok = Err(invalid("WAL holds no meta record"));
        let mut batch = feeder_batch();
        let log = ah_wal::recover(dir, &rec, |seq, payload, record| match record {
            WalRecord::Meta(m) if seq == 0 => meta_ok = check_meta(&m, want),
            WalRecord::Packet(p) if meta_ok.is_ok() => {
                hash = fnv1a_fold(hash, payload);
                journey_instants(&tracer, "ah_wal_replay_packet", std::iter::once(p.src));
                m_replay.inc();
                batch.push(p);
                if batch.len() == BATCH {
                    self.deliver(&batch);
                    batch.clear();
                }
            }
            _ => {}
        })?;
        self.deliver(&batch);
        if log.next_seq > 0 {
            meta_ok?;
        }
        Ok((log, hash))
    }

    /// Feed the run `log` names: the recovered log first (resume,
    /// replay), then — unless that log was sealed, which ends the run
    /// there — the live mux built from `cfg`, journaled onto the log.
    /// Returns the generated total of a run fed to its end.
    fn feed(&mut self, log: Log<'_>, cfg: ScenarioConfig, meta: &[u8]) -> Result<u64, Stop> {
        // The run to journal, the recovered watermark when it continues
        // an existing log, and the rolling FNV over that log's prefix.
        let (wal, resume_at, prefix_hash) = match log {
            Log::Fresh(wal) => (wal, None, FNV_OFFSET),
            Log::Replay(dir) => {
                let (log, hash) = self.recover(dir, meta)?;
                return match log.seal {
                    Some(seal) => Ok(self.sealed(seal, hash)?),
                    None if log.next_seq == 0 => Err(invalid(format!(
                        "there is no WAL in {}: nothing to replay",
                        dir.display()
                    ))
                    .into()),
                    None => Err(invalid(
                        "WAL is not sealed (interrupted run?) — resume it (Log::Resume, --resume)",
                    )
                    .into()),
                };
            }
            Log::Resume(wal) => {
                let (log, hash) = self.recover(&wal.dir, meta)?;
                match log.seal {
                    Some(seal) => return Ok(self.sealed(seal, hash)?),
                    // An empty directory resumes as a fresh journaled run.
                    None if log.next_seq == 0 => (wal, None, FNV_OFFSET),
                    None => (wal, Some(log.next_seq), hash),
                }
            }
        };
        // An interruption point fires after the packet that reaches it,
        // and the fast-forward over a recovered prefix evaluates none:
        // one at or inside the prefix — 0 on a fresh log — could never
        // fire at the position it names.
        for at in [wal.suspend_after, wal.crash_after].into_iter().flatten() {
            if at <= self.pos {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "interruption point {at} can never fire: it is not past the {} packets already durable",
                        self.pos
                    ),
                )
                .into());
            }
        }
        let config = WalWriterConfig::default();
        let mut writer = match resume_at {
            Some(next_seq) => WalWriter::resume(&wal.dir, config, next_seq, &self.tel.recorder)?,
            None => {
                let mut w = WalWriter::create(&wal.dir, config, &self.tel.recorder)?;
                w.append(&WalRecord::Meta(meta.to_vec()))?;
                w.commit()?;
                w
            }
        };
        writer.set_tracer(&self.tel.tracer);
        self.journal = Some(Journal {
            writer,
            scratch: Vec::new(),
            hash: FNV_OFFSET,
            skip: self.pos,
            prefix_hash,
            suspend_after: wal.suspend_after,
            crash_after: wal.crash_after,
        });
        self.pull(&mut Scenario::build(cfg).mux);
        let suspended = self.halt.take().transpose()?.is_some();
        if let Some(j) = self.journal.as_mut() {
            j.writer.commit()?;
            if suspended {
                let durable_seq = j.writer.durable_seq();
                return Err(Stop::Suspended { delivered: self.pos, durable_seq });
            }
            j.writer.seal(RunSeal { generated: self.pos, packet_hash: j.hash })?;
        }
        Ok(self.pos)
    }

    /// A sealed log is the whole run: hold its seal to what the log fed
    /// (`hash` is the rolling FNV over its packet payloads) and return
    /// the generated total.
    fn sealed(&self, seal: RunSeal, hash: u64) -> io::Result<u64> {
        if seal.generated != self.pos {
            return Err(invalid(format!(
                "seal records {} generated packets but the log holds {}",
                seal.generated, self.pos
            )));
        }
        if seal.packet_hash != hash {
            return Err(invalid("sealed packet-stream hash does not match the log contents"));
        }
        Ok(seal.generated)
    }

    /// Hand a fresh executor to `feed` — `threads` picks it: `None` the
    /// inline unit, `Some(n)` `n.max(1)` shard workers — then collect
    /// and finalize what it was fed. `feed` returns the generated total
    /// of a stream fed to its end, or why it stopped short; a run that
    /// stopped short is not finalized.
    fn execute<E>(
        world: WorldConfig,
        days: u64,
        opts: RunOptions,
        threads: Option<usize>,
        tel: &mut Telemetry,
        feed: impl FnOnce(&mut Engine<'_, '_>) -> Result<u64, E>,
    ) -> Result<RunOutput, E> {
        let world = {
            let _mem = MemScope::enter(Tag::Mux);
            World::new(world)
        };
        let rec = tel.recorder.clone();
        let tracer = tel.tracer.clone();
        let (generated, shards) = std::thread::scope(|s| {
            {
                // Pre-warm this thread's trace buffer under the Trace tag
                // so its allocation never lands on a run-scoped account
                // mid-stream.
                let _mem = MemScope::enter(Tag::Trace);
                match threads {
                    None => tracer.set_track("ah_pipeline_serial_main", 0),
                    Some(_) => tracer.set_track("ah_pipeline_dispatch_main", 0),
                }
            }
            let exec = match threads {
                None => Executor::Inline(Box::new(Unit::build(&world, &opts, &rec, &tracer))),
                Some(n) => {
                    Executor::Sharded(Shards::spawn(s, n.max(1), &world, &opts, &rec, &tracer))
                }
            };
            let mut engine = Engine { exec, journal: None, tel: &mut *tel, pos: 0, halt: None };
            let fed = feed(&mut engine);
            // Every unit publishes on every exit. Shards drain their staged
            // tails on suspension and error too; only a finished run keeps
            // what they return.
            let shards = match (&fed, engine.exec) {
                (Ok(_), Executor::Inline(unit)) => vec![unit.finish()],
                (Err(_), Executor::Inline(mut unit)) => {
                    unit.publish();
                    Vec::new()
                }
                (_, Executor::Sharded(shards)) => shards.join(&rec, &tracer),
            };
            fed.map(|generated| (generated, shards))
        })?;
        Ok(finalize_run(world, days, generated, shards, &opts, tel))
    }
}

// --- Public entry points: two doors over the engine ---------------------

/// Run a scenario through every requested vantage point and detect, on
/// the inline unit with telemetry off: [`run_with`]'s quickstart.
pub fn run(cfg: ScenarioConfig, opts: RunOptions) -> RunOutput {
    run_with(cfg, opts, None, &mut Telemetry::disabled())
}

/// The in-memory door: run a scenario and detect on the executor
/// `threads` picks — `None` the inline unit, `Some(n)` `n.max(1)` shards,
/// with bitwise identical output (the module docs describe both). Nothing
/// on this path can fail or suspend. `tel` observes the run without
/// changing its output: every unit publishes its stages' counts on
/// `tel.recorder`, the dispatcher adds stall, ring-occupancy and nap
/// instruments, and `tel.exporter` ticks at stream positions.
pub fn run_with(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: Option<usize>,
    tel: &mut Telemetry,
) -> RunOutput {
    let (world, days) = (cfg.world.clone(), cfg.days);
    let Ok(out) = Engine::execute(world, days, opts, threads, tel, |engine| {
        engine.pull(&mut Scenario::build(cfg).mux);
        Ok::<_, Infallible>(engine.pos)
    });
    out
}

/// The durable door: run a scenario journaled, resumed or replayed, as
/// `log` says, on the executor `threads` picks (as in [`run_with`]). A log
/// is refused unless its frame 0 renders these very `cfg` and `opts`; it
/// never records its executor, so it resumes and replays on either to the
/// output of an uninterrupted [`run`]. `Ok(WalOutcome::Suspended)` is a
/// run that reached its `suspend_after` point; `Err` is a log that failed
/// or was refused.
pub fn run_with_log(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: Option<usize>,
    log: Log<'_>,
    tel: &mut Telemetry,
) -> io::Result<WalOutcome> {
    match log {
        Log::Fresh(_) => {}
        Log::Resume(_) => tel.recorder.counter("ah_wal_resume_runs_total").inc(),
        Log::Replay(_) => tel.recorder.counter("ah_wal_replay_runs_total").inc(),
    }
    let meta = run_description(&cfg, &opts);
    let (world, days) = (cfg.world.clone(), cfg.days);
    match Engine::execute(world, days, opts, threads, tel, |engine| engine.feed(log, cfg, &meta)) {
        Ok(out) => Ok(WalOutcome::Completed(Box::new(out))),
        Err(Stop::Suspended { delivered, durable_seq }) => {
            Ok(WalOutcome::Suspended { delivered, durable_seq })
        }
        Err(Stop::Failed(e)) => Err(e),
    }
}

// Shells over the doors, kept for the benchmark's pinned API and tests.

/// Shell: [`run_with`] on `threads` shards (one at `0` or `1`), telemetry off.
pub fn run_parallel(cfg: ScenarioConfig, opts: RunOptions, threads: usize) -> RunOutput {
    run_with(cfg, opts, Some(threads), &mut Telemetry::disabled())
}

/// Shell: [`run_with`] on `threads` shards (one at `0` or `1`).
pub fn run_parallel_with_recorder(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: usize,
    tel: &mut Telemetry,
) -> RunOutput {
    run_with(cfg, opts, Some(threads), tel)
}

/// Shell: [`run_with_log`] into a fresh log, on the inline unit.
pub fn run_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    wal: &WalRun,
    tel: &mut Telemetry,
) -> io::Result<WalOutcome> {
    run_with_log(cfg, opts, None, Log::Fresh(wal), tel)
}

/// Shell: [`run_with_log`] replaying the sealed log in `dir`, on the
/// inline unit.
pub fn replay_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    dir: &Path,
    tel: &mut Telemetry,
) -> io::Result<Box<RunOutput>> {
    run_with_log(cfg, opts, None, Log::Replay(dir), tel)?
        .completed()
        .ok_or_else(|| invalid("replay suspended, but it has no journal to suspend on"))
}

// --- Output fingerprinting ---------------------------------------------

impl RunOutput {
    /// A content fingerprint over every externally meaningful field —
    /// detection report, capture summary, flow datasets, honeypot
    /// entries, and the health ledgers.
    ///
    /// Two runs with equal fingerprints produced bitwise-identical
    /// results; the determinism suite holds every executor and every
    /// [`Log`] to exactly this standard. Hash-ordered containers are
    /// folded in sorted order so the fingerprint is itself deterministic.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the canonical byte rendering of the output.
        let h = Cell::new(FNV_OFFSET);
        let bytes = |b: &[u8]| h.set(fnv1a_fold(h.get(), b));
        let word = |x: u64| bytes(&x.to_le_bytes());
        word(self.generated_packets);
        word(self.days);

        word(self.capture.total_packets);
        word(self.capture.scan_packets);
        word(self.capture.non_scan_packets);
        word(self.capture.unique_sources);
        word(self.capture.unique_dsts);

        word(self.report.d2_threshold);
        word(self.report.d3_threshold);
        for r in self.report.records() {
            word(u64::from(r.key.src.to_u32()));
            word(u64::from(r.key.dst_port));
            word(r.key.class as u64);
            word(u64::from(r.start_day));
            word(u64::from(r.end_day));
            word(u64::from(r.packets));
            word(u64::from(r.unique_dsts));
            word(u64::from(r.zmap));
            word(u64::from(r.masscan));
        }
        for def in Definition::ALL {
            let mut yearly: Vec<u32> =
                self.report.hitters(def).iter().map(|ip| ip.to_u32()).collect();
            yearly.sort_unstable();
            word(yearly.len() as u64);
            for ip in yearly {
                word(u64::from(ip));
            }
            for day in self.report.days(def) {
                word(day);
                for set in
                    [self.report.daily_hitters(def, day), self.report.active_hitters(def, day)]
                {
                    let mut ips: Vec<u32> =
                        set.map(|s| s.iter().map(|ip| ip.to_u32()).collect()).unwrap_or_default();
                    ips.sort_unstable();
                    word(ips.len() as u64);
                    for ip in ips {
                        word(u64::from(ip));
                    }
                }
                word(self.report.ah_packets(def, day));
            }
        }
        for (day, n) in &self.report.day_all_sources {
            word(*day);
            word(*n);
        }
        for (day, n) in &self.report.day_all_packets {
            word(*day);
            word(*n);
        }

        for flows in [self.merit_flows.as_ref(), self.cu_flows.as_ref()].into_iter().flatten() {
            word(flows.sampling_rate);
            word(flows.records.len() as u64);
            for r in &flows.records {
                word(u64::from(r.key.src.to_u32()));
                word(u64::from(r.key.dst.to_u32()));
                word(u64::from(r.key.src_port));
                word(u64::from(r.key.dst_port));
                word(u64::from(r.key.protocol));
                word(u64::from(r.router));
                word(r.direction as u64);
                word(r.first.0);
                word(r.last.0);
                word(r.packets);
                word(r.bytes);
                word(u64::from(r.tcp_flags));
            }
            let mut truth: Vec<_> =
                flows.router_days.iter().map(|(&(r, d), &p)| (r, d, p)).collect();
            truth.sort_unstable();
            for (r, d, p) in truth {
                word(u64::from(r));
                word(d);
                word(p);
            }
        }

        if let Some(entries) = self.gn_entries.as_ref() {
            let mut ips: Vec<u32> = entries.keys().map(|ip| ip.to_u32()).collect();
            ips.sort_unstable();
            word(ips.len() as u64);
            for ip in ips {
                let e = &entries[&Ipv4Addr4(ip)];
                word(u64::from(ip));
                word(match e.classification {
                    ah_intel::greynoise::GnClassification::Benign => 0,
                    ah_intel::greynoise::GnClassification::Malicious => 1,
                    ah_intel::greynoise::GnClassification::Unknown => 2,
                });
                for tag in &e.tags {
                    bytes(tag.as_bytes());
                }
            }
        }

        for st in &self.health.stages {
            bytes(st.stage.as_bytes());
            word(st.received);
            word(st.accepted);
            word(st.repaired);
            word(st.quarantined);
            for (cat, n) in &st.discarded {
                bytes(cat.as_bytes());
                word(*n);
            }
        }
        h.get()
    }
}

/// Output of a two-phase tap run (Figures 1 and 2).
pub struct TapRun {
    /// The synthetic internet the scenario ran over.
    pub world: World,
    /// The hitter list joined on the taps.
    pub ah_list: HashSet<Ipv4Addr4>,
    /// Per-second series at the Merit monitoring station (one core
    /// router's mirrored stream, like the paper's setup).
    pub merit_tap: TapSeries,
    /// Per-second series of all CU border traffic.
    pub cu_tap: TapSeries,
}

/// Two-phase tap experiment: detect on pass 1 (day 0), tap on pass 2
/// (days 1..). `tap_router` selects which Merit router is mirrored
/// (paper: one of the three core routers).
pub fn run_taps(cfg: ScenarioConfig, tap_router: RouterId, def: Definition) -> TapRun {
    assert!(cfg.days >= 2, "tap runs need a detection day plus tap days");
    let rebuild = cfg.clone();

    // Pass 1: darknet detection only.
    let pass1 = run(cfg, RunOptions::darknet_only());
    // The paper derives its list from the day before the tap window.
    let mut ah_list: HashSet<Ipv4Addr4> =
        pass1.report.active_hitters(def, 0).cloned().unwrap_or_default();
    if ah_list.is_empty() {
        // Fall back to the whole-run list (tiny test scenarios).
        ah_list = pass1.report.hitters(def).clone();
    }

    // Pass 2: identical traffic, measured at the taps from day 1 on.
    let Scenario { world, mut mux } = Scenario::build(rebuild);
    // The taps only ask where a packet crosses; no flow is exported.
    let merit = merit_isp(&world, 1);
    let cu = cu_isp(&world, 1);
    let tap_start = Ts::from_days(1);
    let mut merit_tap = TapAnalyzer::new(ah_list.clone(), tap_start);
    let mut cu_tap = TapAnalyzer::new(ah_list.clone(), tap_start);
    let mut batch = feeder_batch();
    while mux.next_batch(&mut batch, BATCH) > 0 {
        for pkt in batch.drain(..).filter(|p| p.ts >= tap_start) {
            if let Disposition::Border(r, _) = merit.disposition(&pkt) {
                if r == tap_router {
                    merit_tap.observe(&pkt);
                }
            }
            if let Disposition::Border(..) = cu.disposition(&pkt) {
                cu_tap.observe(&pkt);
            }
        }
    }

    TapRun { world, ah_list, merit_tap: merit_tap.series(), cu_tap: cu_tap.series() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darknet_only_run_detects_hitters() {
        let out = run(ScenarioConfig::tiny(2, 11), RunOptions::darknet_only());
        assert!(out.generated_packets > 10_000);
        assert!(out.capture.total_packets > 1000);
        assert!(out.capture.scan_packets > 0);
        assert!(out.merit_flows.is_none());
        assert!(!out.report.hitters(Definition::AddressDispersion).is_empty());
    }

    #[test]
    fn full_run_produces_all_vantage_points() {
        let out = run(ScenarioConfig::tiny(2, 12), RunOptions::full());
        let merit = out.merit_flows.as_ref().unwrap();
        assert!(!merit.records.is_empty());
        assert!(!merit.router_days.is_empty());
        assert!(out.cu_flows.is_some());
        let gn = out.gn_entries.as_ref().unwrap();
        assert!(!gn.is_empty(), "scanners should hit sensors");
    }

    #[test]
    fn taps_have_hitter_traffic() {
        let tap = run_taps(ScenarioConfig::tiny(3, 13), 1, Definition::AddressDispersion);
        assert!(!tap.ah_list.is_empty());
        assert!(tap.merit_tap.total_packets() > 0);
        assert!(tap.cu_tap.total_packets() > 0);
        assert!(tap.merit_tap.ah_packets() > 0, "hitters must appear at the tap");
    }

    #[test]
    fn clean_run_health_ledger_balances() {
        let out = run(ScenarioConfig::tiny(1, 15), RunOptions::full());
        assert!(out.health.conserves(), "violations: {:?}", out.health.violations());
        // No injector stage on a clean run; every vantage point reports.
        assert!(out.health.stage("faults.injector").is_none());
        for name in
            ["telescope.capture", "telescope.events", "flow.merit", "flow.cu", "intel.greynoise"]
        {
            let st = out.health.stage(name).unwrap_or_else(|| panic!("missing stage {name}"));
            assert!(st.received > 0, "{name} saw no input");
        }
        // The capture ledger accounts for every generated packet.
        let cap = out.health.stage("telescope.capture").unwrap();
        assert_eq!(cap.received, out.generated_packets);
        // v9 loopback decodes every exported record.
        let v9 = out.health.stage("flow.v9_export").unwrap();
        assert_eq!(v9.accepted, v9.received);
        assert_eq!(v9.discarded_total(), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(ScenarioConfig::tiny(1, 14), RunOptions::darknet_only());
        let b = run(ScenarioConfig::tiny(1, 14), RunOptions::darknet_only());
        assert_eq!(a.generated_packets, b.generated_packets);
        assert_eq!(a.capture.total_packets, b.capture.total_packets);
        assert_eq!(
            a.report.hitters(Definition::AddressDispersion),
            b.report.hitters(Definition::AddressDispersion)
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// How a stream is cut into the slices fed to `Engine::deliver`: the
    /// slice lengths, repeated in turn. The mux feeder's own cut is
    /// `[BATCH]`.
    const SPLITS: [&[usize]; 4] = [&[1], &[7], &[BATCH - 1, BATCH, BATCH + 1], &[BATCH]];

    /// Deliver `pkts`, and nothing else, to a fresh executor recording on
    /// `rec`, in slices cut by `split`.
    fn run_stream(
        cfg: &ScenarioConfig,
        pkts: &[PacketMeta],
        split: &[usize],
        threads: Option<usize>,
        rec: &Recorder,
    ) -> RunOutput {
        let feed = |engine: &mut Engine<'_, '_>| {
            let mut rest = pkts;
            for &len in split.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (slice, tail) = rest.split_at(len.min(rest.len()));
                engine.deliver(slice);
                rest = tail;
            }
            Ok::<_, Infallible>(pkts.len() as u64)
        };
        let tel = &mut Telemetry::new(rec.clone());
        let Ok(out) =
            Engine::execute(cfg.world.clone(), cfg.days, RunOptions::full(), threads, tel, feed);
        out
    }

    #[test]
    fn streams_shorter_than_a_batch_per_shard_match_serial() {
        // Every length is under one batch per shard at 8 shards, so most
        // rings carry only the partial tail `join` pushes, and at the
        // short lengths most carry nothing at all. Most lengths end off a
        // batch boundary, so every packet is published only if each unit
        // publishes on exit. Every length is fed in every split, whose
        // slices straddle batch boundaries in every way: one cut of the
        // stream must not compute anything another does not.
        let cfg = ScenarioConfig::tiny(1, 21);
        let mut pkts = Vec::new();
        Scenario::build(cfg.clone()).mux.next_batch(&mut pkts, 8 * BATCH - 1);
        assert_eq!(pkts.len(), 8 * BATCH - 1, "the scenario is long enough");
        for n in [0, 1, 7, BATCH - 1, BATCH, BATCH + 1, pkts.len()] {
            let mut fingerprint = None;
            for split in SPLITS {
                let (serial_rec, sharded_rec) = (Recorder::new(), Recorder::new());
                let serial = run_stream(&cfg, &pkts[..n], split, None, &serial_rec);
                assert_eq!(serial.generated_packets, n as u64);
                let sharded = run_stream(&cfg, &pkts[..n], split, Some(8), &sharded_rec);
                let at = format!("{n} packets in slices of {split:?}");
                assert_eq!(sharded.fingerprint(), serial.fingerprint(), "{at}");
                let first = *fingerprint.get_or_insert(serial.fingerprint());
                assert_eq!(serial.fingerprint(), first, "{at}: not the first split's run");
                for rec in [serial_rec, sharded_rec] {
                    let capture = [("stage".to_string(), "telescope.capture".to_string())];
                    let mut delivered = rec.snapshot().samples.into_iter().filter(|s| {
                        s.name == "ah_core_health_received_total" && s.labels == capture
                    });
                    let want = ah_obs::Value::Counter(n as u64);
                    assert_eq!(delivered.next().map(|s| s.value), Some(want), "{at}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_smoke() {
        let a = run(ScenarioConfig::tiny(1, 16), RunOptions::full());
        let b = run_parallel(ScenarioConfig::tiny(1, 16), RunOptions::full(), 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
