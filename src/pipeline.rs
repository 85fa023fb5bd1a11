//! Turnkey end-to-end measurement runs.
//!
//! Wires a [`ScenarioConfig`]'s traffic through every vantage point the
//! paper uses — the telescope, the Merit-like ISP's border routers, the
//! CU-like campus border, and the honeypot fleet — in a single pass, then
//! finalizes detection.
//!
//! One engine runs every entry point; each public `run*` function is it
//! with some parts switched off (`ARCHITECTURE.md` §1 has the table):
//!
//! ```text
//! feeder (mux | recovered log [+ mux]) → journal? → executor (inline | N shards) → finalize_run
//! ```
//!
//! * **Feeders.** The live traffic mux, and a recovered write-ahead log
//!   ([`resume_wal`] feeds the log, then the mux; [`replay_wal`] the log
//!   alone). Both end in one `deliver` step, once per fed packet:
//!   journal → executor → exporter tick.
//! * **Executor.** [`run`] consumes on the driver thread — the serial
//!   reference. [`run_parallel`] is a pure router: it hands each packet
//!   to the worker shard owning its source IP over a lock-free SPSC ring
//!   ([`ah_simnet::ring`]). Every decision that once required global
//!   stream order — fault injection, aggregator reordering verdicts,
//!   per-router sampling, flow-cache lateness — is a pure function of
//!   the *per-source* (or per-key) subsequence, so each shard recomputes
//!   its own slice of them independently. Each shard thread returns its
//!   reduced result through its join handle, collected in shard-index
//!   order and folded with order-insensitive operators, so both
//!   executors produce **bitwise identical** [`RunOutput`]s (see
//!   `ARCHITECTURE.md` §11 for the proof sketch and
//!   [`RunOutput::fingerprint`] for the check).
//!   Every execution unit, inline or shard, owns the fault injector in
//!   front of its vantage points.
//! * **Journal.** [`run_wal`] / [`run_parallel_wal`] append every fed
//!   packet to the log before the executor sees it: the log is the run's
//!   input, before any fault, and a replay or resume injects again from
//!   the plan in its meta record. [`resume_wal`] documents how a
//!   recovered prefix is re-joined to the live stream.
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
use ah_flow::router::{FlowDataset, IspConfig, IspModel, RouterId};
use ah_flow::v9::{encode_v9, V9Decoder};
use ah_intel::greynoise::{GnEntry, GreyNoise, IngestStats, PayloadHint};
use ah_mem::{MemScope, Tag};
use ah_net::hash::{fnv1a_fold, FNV_OFFSET};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use ah_obs::{Exporter, Recorder};
use ah_simnet::faults::{FaultInjector, FaultPlan, InjectorStats};
use ah_simnet::mux::{TrafficMux, BATCH};
use ah_simnet::ring::{ring, Consumer, Producer};
use ah_simnet::rng::hash64;
use ah_simnet::scenario::{Scenario, ScenarioConfig};
use ah_simnet::world::World;
use ah_telescope::capture::{CaptureOutcome, CaptureStats, CaptureSummary, DarkSpace, Telescope};
use ah_telescope::event::{AggregatorStats, DarknetEvent};
use ah_trace::Tracer;
use ah_wal::record::{RunMeta, RunSeal, WalRecord};
use ah_wal::{RecoveredLog, WalWriter, WalWriterConfig};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io;
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
/// `tests/telemetry.rs` holds every entry point to exactly this standard.
pub struct Telemetry {
    /// Recorder every stage registers its instruments on.
    pub(crate) recorder: Recorder,
    /// Periodic snapshot writer (JSONL + Prometheus text files); `None`
    /// means metrics are kept in memory only.
    pub exporter: Option<Exporter>,
    /// Span/journey tracer threaded through every stage ([`ah_trace`]).
    /// Noop by default; like the recorder it is observation-only, so a
    /// live tracer leaves the [`RunOutput`] bitwise identical
    /// (`tests/trace.rs` holds every entry point to this).
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
pub struct MemPulse {
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

    /// Called with the current stream position from `Engine::deliver`.
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

/// Health ledger for one ISP's flow caches.
fn cache_stage(name: &str, s: CacheStats) -> StageHealth {
    let mut st = StageHealth::new(name);
    st.received = s.received;
    st.accepted = s.accepted;
    st.repaired = s.first_repaired;
    st.discard("duplicate", s.duplicates_suppressed);
    st
}

/// Round-trip the exported flow records through the NetFlow v9 wire
/// format and ledger the result. The v9 path is a validation loopback:
/// the in-memory dataset (µs resolution) stays authoritative, but every
/// record must survive template-based encode/decode.
fn v9_loopback(records: &[FlowRecord], rec: &Recorder) -> StageHealth {
    let mut st = StageHealth::new("flow.v9_export");
    st.received = records.len() as u64;
    let mut dec = V9Decoder::default();
    dec.set_recorder(rec);
    let mut decoded = 0u64;
    for (seq, chunk) in records.chunks(64).enumerate() {
        let wire = encode_v9(chunk, Ts::ZERO, seq as u32, 1, seq == 0);
        if let Ok(recs) = dec.decode(&wire, 1) {
            decoded += recs.len() as u64;
        }
    }
    st.accepted = decoded.min(st.received);
    st.discard("decode_failed", st.received - st.accepted);
    st
}

// --- Shared vantage-point state (one copy per shard) -------------------

/// All vantage-point state of one execution [`Unit`].
struct Vantage {
    telescope: Telescope,
    merit: Option<IspModel>,
    cu: Option<IspModel>,
    gn: Option<GreyNoise>,
    not_dark: u64,
    /// The `consume::<TAGGED>` flavor, picked once per run (at build).
    tagged_run: bool,
    /// Packets consumed, mirrored on the run-wide throughput counters.
    delivered: u64,
    m_packets: ah_obs::Counter,
    m_bytes: ah_obs::Counter,
    tracer: Tracer,
}

/// Run `f` under `tag` when the engine's `TAGGED` consume flavor is
/// active; compiles to a plain call in the untagged flavor. A manual
/// [`ah_mem::tag_swap`] pair, not a [`MemScope`] guard, so even the
/// tagged flavor adds no drop glue or unwind paths per packet.
#[inline(always)]
fn tagged<const TAGGED: bool, R>(tag: Tag, f: impl FnOnce() -> R) -> R {
    if TAGGED {
        let prev = ah_mem::tag_swap(tag);
        let r = f();
        ah_mem::tag_restore(prev);
        r
    } else {
        f()
    }
}

/// Everything a shard hands back for the order-insensitive merge.
struct ShardOut {
    events: Vec<DarknetEvent>,
    capture: CaptureStats,
    agg: AggregatorStats,
    filtered: u64,
    not_dark: u64,
    /// Packets delivered to this shard's vantage points.
    delivered: u64,
    /// Ledger of this unit's fault injector (`None` on clean runs).
    injector: Option<InjectorStats>,
    merit: Option<(CacheStats, FlowDataset)>,
    cu: Option<(CacheStats, FlowDataset)>,
    gn: Option<GnPart>,
}

/// One shard's honeypot profiles and ingest ledger.
type GnPart = (HashMap<Ipv4Addr4, GnEntry>, IngestStats);

impl Vantage {
    fn build(world: &World, opts: &RunOptions, rec: &Recorder, tracer: &Tracer) -> Vantage {
        let mut telescope = {
            let _mem = MemScope::enter(Tag::Telescope);
            Telescope::with_source_filter(
                world.config.dark,
                ah_telescope::timeout::paper_default(),
                bogon_filter(),
            )
        };
        telescope.set_recorder(rec);
        telescope.set_tracer(tracer);
        let merit = opts.merit_isp.then(|| {
            let _mem = MemScope::enter(Tag::Flow);
            let mut m = merit_isp(world, opts.sampling_rate);
            m.set_recorder(rec);
            m.set_tracer(tracer);
            m
        });
        let cu = opts.cu_isp.then(|| {
            let _mem = MemScope::enter(Tag::Flow);
            let mut c = cu_isp(world, opts.sampling_rate);
            c.set_recorder(rec);
            c.set_tracer(tracer);
            c
        });
        let gn = opts.greynoise.then(|| {
            let mut g = {
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
            };
            {
                // Instruments live in the recorder, which outlives the
                // run — charge them to Obs, not the run-scoped tag.
                let _mem = MemScope::enter(Tag::Obs);
                g.set_recorder(rec);
            }
            g
        });
        Vantage {
            telescope,
            merit,
            cu,
            gn,
            not_dark: 0,
            tagged_run: ah_mem::accounting_enabled(),
            delivered: 0,
            m_packets: rec.counter("ah_pipeline_mux_packets_delivered_total"),
            m_bytes: rec.counter("ah_pipeline_mux_bytes_delivered_total"),
            tracer: tracer.clone(),
        }
    }

    /// Feed one delivered packet to every vantage point. Both executors
    /// run this exact path: every downstream decision is a pure function
    /// of the per-source (or per-key) subsequence, so a shard consuming
    /// only its sources computes exactly what the inline executor does
    /// (see `ARCHITECTURE.md` §11).
    ///
    /// `TAGGED` selects the memory-attribution flavor, once per run
    /// (`ARCHITECTURE.md` §13): the `true` instantiation brackets each
    /// stage call with an [`ah_mem::tag_swap`] pair so per-subsystem
    /// accounts see every allocation; the `false` instantiation
    /// compiles to exactly the pre-accounting hot path — zero added
    /// per-packet instructions, which is what keeps the accounting-off
    /// overhead inside its ≤1% budget. The subsystem `observe` methods
    /// themselves carry no scopes for the same reason.
    fn consume<const TAGGED: bool>(&mut self, pkt: &PacketMeta) {
        self.delivered += 1;
        self.m_packets.inc();
        self.m_bytes.add(u64::from(pkt.wire_len));
        // Journey sampling is a pure hash of the source address: it draws
        // no randomness and feeds nothing back into the pipeline.
        let journey = self.tracer.journey_id(pkt.src.to_u32());
        let _trace = (journey != 0)
            .then(|| self.tracer.journey_span("ah_pipeline_vantage_consume", journey));
        let outcome = tagged::<TAGGED, _>(Tag::Telescope, || self.telescope.observe(pkt));
        if outcome == CaptureOutcome::NotDark {
            self.not_dark += 1;
        }
        if let Some(m) = self.merit.as_mut() {
            tagged::<TAGGED, _>(Tag::Flow, || m.observe(pkt));
        }
        if let Some(c) = self.cu.as_mut() {
            tagged::<TAGGED, _>(Tag::Flow, || c.observe(pkt));
        }
        if let Some(g) = self.gn.as_mut() {
            tagged::<TAGGED, _>(Tag::Detectors, || {
                g.observe(pkt, payload_hint(pkt.src, pkt.dst_port()))
            });
        }
    }

    /// Monomorphization dispatch for [`Vantage::consume`]: one
    /// predictable branch per packet on a run-constant bool, instead
    /// of tag checks inside every stage.
    #[inline]
    fn consume_dyn(&mut self, pkt: &PacketMeta) {
        if self.tagged_run {
            self.consume::<true>(pkt);
        } else {
            self.consume::<false>(pkt);
        }
    }

    /// Flush open state and reduce to plain mergeable data; `injector` is
    /// the ledger of the unit's fault injector, if the run has a plan.
    fn into_shard_out(mut self, injector: Option<InjectorStats>) -> ShardOut {
        // Sorted here, on the shard's own thread; `finalize_run` only merges.
        let events = self.telescope.flush();
        let agg = self.telescope.aggregator_stats();
        let filtered = self.telescope.filtered_packets();
        let capture = self.telescope.stats().clone();
        // Cache stats are snapshotted before `finish` flushes the caches,
        // mirroring the serial health-ledger read order.
        let merit = self.merit.map(|m| (m.cache_stats(), m.finish()));
        let cu = self.cu.map(|c| (c.cache_stats(), c.finish()));
        let gn = self.gn.map(|g| {
            let _mem = MemScope::enter(Tag::Detectors);
            let stats = g.ingest_stats();
            (g.finalize(), stats)
        });
        ShardOut {
            events,
            capture,
            agg,
            filtered,
            not_dark: self.not_dark,
            delivered: self.delivered,
            injector,
            merit,
            cu,
            gn,
        }
    }
}

// --- The executor: one inline vantage stack, or N shards ----------------

/// Per-shard SPSC ring slot count; each ring carries the raw packets of
/// 1/N of the source space.
const RING_CAPACITY: usize = 4096;

/// One execution unit — the whole pipeline in the inline executor, one
/// shard's slice of it in the sharded one: a vantage stack behind the
/// run's fault injector, if any. Verdicts are a pure function of (source,
/// per-source index), so a shard's substream yields the serial decisions.
struct Unit {
    injector: Option<FaultInjector>,
    vantage: Vantage,
}

impl Unit {
    fn build(world: &World, opts: &RunOptions, rec: &Recorder, tracer: &Tracer) -> Unit {
        let injector = opts.faults.map(|plan| {
            let _mem = MemScope::enter(Tag::Mux);
            let mut inj = FaultInjector::new(plan);
            inj.set_tracer(tracer);
            inj
        });
        Unit { injector, vantage: Vantage::build(world, opts, rec, tracer) }
    }

    /// The vantage points consume what the injector delivers at `pkt`.
    #[inline]
    fn offer(&mut self, pkt: &PacketMeta) {
        let Unit { injector, vantage } = self;
        match injector {
            Some(inj) => inj.apply(pkt, &mut |p| vantage.consume_dyn(p)),
            None => vantage.consume_dyn(pkt),
        }
    }

    /// End of stream: release what the injector still holds, then reduce.
    fn finish(self) -> ShardOut {
        let Unit { mut injector, mut vantage } = self;
        if let Some(inj) = injector.as_mut() {
            inj.flush(&mut |p| vantage.consume_dyn(p));
        }
        vantage.into_shard_out(injector.map(|i| i.stats()))
    }
}

/// Driver-side half of the sharded executor: the SPSC producers and the
/// worker handles, each of which joins to its shard's [`ShardOut`]. The
/// driver is a pure router — `hash64(src) mod N`, then a ring push.
struct Shards<'scope> {
    producers: Vec<Producer<PacketMeta>>,
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
        {
            let _mem = MemScope::enter(Tag::Mux);
            for _ in 0..threads {
                let (tx, rx) = ring::<PacketMeta>(RING_CAPACITY);
                producers.push(tx);
                consumers.push(rx);
            }
        }
        let worker = move |i: usize, mut rx: Consumer<PacketMeta>| {
            {
                let _mem = MemScope::enter(Tag::Trace);
                tracer.set_track("ah_pipeline_shard_worker", i as u64 + 1);
            }
            let mut unit = Unit::build(world, opts, rec, tracer);
            while let Some(pkt) = rx.pop_wait() {
                let journey = tracer.journey_id(pkt.src.to_u32());
                let _pop = (journey != 0)
                    .then(|| tracer.journey_span("ah_pipeline_shard_consume", journey));
                unit.offer(&pkt);
            }
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
            handles,
            m_stalls: rec.counter("ah_pipeline_dispatch_stalls_total"),
            m_stall_us: rec.histogram("ah_pipeline_dispatch_stall_us", ah_obs::LATENCY_US_BUCKETS),
        }
    }

    fn route(&mut self, pkt: &PacketMeta, tracer: &Tracer) {
        let shard = (hash64(u64::from(pkt.src.to_u32())) % self.producers.len() as u64) as usize;
        let tx = &mut self.producers[shard];
        let journey = tracer.journey_id(pkt.src.to_u32());
        let _route =
            (journey != 0).then(|| tracer.journey_span("ah_pipeline_dispatch_route", journey));
        if let Err(back) = tx.try_push(*pkt) {
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
    fn join(self, rec: &Recorder, tracer: &Tracer) -> Vec<ShardOut> {
        for (i, p) in self.producers.into_iter().enumerate() {
            // Read the peak occupancy before close() consumes the
            // producer; one gauge per shard, labeled by shard index.
            let shard = i.to_string();
            rec.gauge_with("ah_pipeline_ring_occupancy_hwm", &[("shard", shard.as_str())])
                .set(p.high_water_mark() as i64);
            p.close();
        }
        let _trace = tracer.span("ah_pipeline_merge_collect");
        let _mem = MemScope::enter(Tag::Merge);
        self.handles.into_iter().map(|h| h.join().expect("pipeline shard thread")).collect()
    }
}

/// Where fed packets are injected and consumed: on the driver thread, or
/// on N shard threads behind SPSC rings. One predictable `match` per packet.
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
    let mut delivered = first.delivered;
    // Counts over disjoint source slices: they sum to the serial ledger.
    let mut injector = first.injector;
    let mut capture_stats = first.capture;
    let mut agg = first.agg;
    let mut filtered = first.filtered;
    let mut not_dark = first.not_dark;
    let mut events = first.events;
    let mut merit_parts: Vec<_> = first.merit.into_iter().collect();
    let mut cu_parts: Vec<_> = first.cu.into_iter().collect();
    let mut gn_parts: Vec<_> = first.gn.into_iter().collect();
    {
        let _mem = MemScope::enter(Tag::Merge);
        for sh in shards {
            delivered += sh.delivered;
            if let (Some(acc), Some(s)) = (injector.as_mut(), sh.injector.as_ref()) {
                acc.merge(s);
            }
            capture_stats.merge(&sh.capture);
            agg.merge(&sh.agg);
            filtered += sh.filtered;
            not_dark += sh.not_dark;
            events.extend(sh.events);
            merit_parts.extend(sh.merit);
            cu_parts.extend(sh.cu);
            gn_parts.extend(sh.gn);
        }

        // Canonical ingest order: shard counts must not leak into the
        // report's record table. Each shard's flush arrives sorted, so the
        // stable sort's run detection makes this an N-way merge.
        events.sort();
    }
    let mut detector = {
        let _mem = MemScope::enter(Tag::Detectors);
        Detector::new(DetectorConfig {
            thresholds: opts.thresholds,
            dark_size: DarkSpace::new(world.config.dark).size(),
        })
    };
    {
        let _pass = tel.tracer.span("ah_pipeline_detector_pass");
        let _mem = MemScope::enter(Tag::Detectors);
        for ev in &events {
            let journey = tel.tracer.journey_id(ev.key.src.to_u32());
            if journey != 0 {
                // Journey endpoint: a sampled source's packets become
                // darknet events and land in the detector here.
                tel.tracer.journey_instant("ah_pipeline_detector_ingest", journey);
            }
            detector.ingest(ev);
        }
    }

    let (merit, cu, gn) = {
        let _mem = MemScope::enter(Tag::Merge);
        (merge_flow_parts(merit_parts), merge_flow_parts(cu_parts), merge_gn_parts(gn_parts))
    };

    // --- Health ledger, in pipeline order ------------------------------
    let mut health = PipelineHealth::default();
    if let Some(s) = injector {
        let mut st = StageHealth::new("faults.injector");
        st.received = s.input + s.duplicated;
        st.accepted = s.delivered;
        st.discard("dropped", s.dropped);
        st.discard("outage", s.outage_dropped);
        st.discard("truncated", s.truncated_discarded);
        st.discard("corrupt", s.corrupt_discarded);
        health.push(st);
    }
    let mut cap = StageHealth::new("telescope.capture");
    cap.received = delivered;
    cap.accepted = capture_stats.total_packets;
    cap.discard("not_dark", not_dark);
    cap.discard("filtered_source", filtered);
    health.push(cap);
    let mut ev = StageHealth::new("telescope.events");
    ev.received = agg.received;
    ev.accepted = agg.accepted;
    ev.repaired = agg.start_repaired;
    ev.quarantined = agg.quarantined;
    health.push(ev);
    if let Some((s, _)) = merit.as_ref() {
        health.push(cache_stage("flow.merit", *s));
    }
    if let Some((s, _)) = cu.as_ref() {
        health.push(cache_stage("flow.cu", *s));
    }
    if let Some((_, s)) = gn.as_ref() {
        let mut st = StageHealth::new("intel.greynoise");
        st.received = s.received;
        st.accepted = s.accepted;
        st.discard("non_sensor_dst", s.ignored);
        health.push(st);
    }

    let capture = CaptureSummary::from(&capture_stats);
    let report = {
        let _mem = MemScope::enter(Tag::Detectors);
        detector.finalize()
    };
    let merit_flows = merit.map(|(_, d)| d);
    if let Some(flows) = merit_flows.as_ref() {
        health.push(v9_loopback(&flows.records, &tel.recorder));
    }
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
    // Mirror the finished ledgers as `ah_core_health_*` gauges and flush
    // one final snapshot at the end-of-stream position so the exported
    // files always cover the completed run.
    health.export_metrics(&tel.recorder);
    if let Some(ex) = tel.exporter.as_mut() {
        ex.export_now(generated);
    }
    RunOutput {
        world,
        report,
        capture,
        merit_flows,
        cu_flows: cu.map(|(_, d)| d),
        gn_entries: gn.map(|(entries, _)| entries),
        days,
        generated_packets: generated,
        health,
        mem,
    }
}

/// Merge per-shard flow datasets: cache counters sum, records concatenate
/// and re-sort into `FlowRecord`'s order, truth counters sum.
fn merge_flow_parts(parts: Vec<(CacheStats, FlowDataset)>) -> Option<(CacheStats, FlowDataset)> {
    let mut parts = parts.into_iter();
    let (mut stats, mut ds) = parts.next()?;
    for (s, d) in parts {
        stats.merge(&s);
        ds.records.extend(d.records);
        for (k, n) in d.router_days {
            *ds.router_days.entry(k).or_default() += n;
        }
    }
    ds.records.sort();
    Some((stats, ds))
}

/// Merge per-shard honeypot output. Entry maps are keyed by source IP and
/// sources are shard-disjoint, so the union is exact.
fn merge_gn_parts(parts: Vec<GnPart>) -> Option<GnPart> {
    let mut parts = parts.into_iter();
    let (mut map, mut stats) = parts.next()?;
    for (m, s) in parts {
        map.extend(m);
        stats.received += s.received;
        stats.accepted += s.accepted;
        stats.ignored += s.ignored;
    }
    Some((map, stats))
}

// --- Durable runs: configuration and outcome ----------------------------

/// Durable-run configuration: where the write-ahead log lives, its
/// group-commit/rotation tunables, and the optional interruption points
/// used by chaos tests and the crash-recovery gate (`tests/cli.rs`).
#[derive(Debug, Clone)]
pub struct WalRun {
    /// Directory holding the log: its `*.seg` files and nothing else.
    dir: PathBuf,
    /// Append-path tunables (group-commit batch, segment size).
    pub writer: WalWriterConfig,
    /// Suspend cleanly after this many fed (and logged) packets: commit
    /// the log, leave it unsealed, and return [`WalOutcome::Suspended`].
    pub suspend_after: Option<u64>,
    /// Abort the process with a deliberately torn tail after this many
    /// fed packets (crash drills; the process does not return).
    pub crash_after: Option<u64>,
}

impl WalRun {
    /// A durable run writing to `dir` with default tunables and no
    /// interruption points.
    pub fn new(dir: impl Into<PathBuf>) -> WalRun {
        WalRun {
            dir: dir.into(),
            writer: WalWriterConfig::default(),
            suspend_after: None,
            crash_after: None,
        }
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

/// Result of a durable run: either a finished [`RunOutput`] (log sealed)
/// or a clean suspension (log committed but unsealed, ready for
/// [`resume_wal`]).
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

/// The meta record a durable run writes as frame 0.
fn wal_meta(cfg: &ScenarioConfig, opts: &RunOptions) -> RunMeta {
    RunMeta {
        label: cfg.label.clone(),
        seed: cfg.seed,
        days: cfg.days,
        year: cfg.year,
        benign: cfg.benign,
        day0_weekday: cfg.day0_weekday,
        merit_isp: opts.merit_isp,
        cu_isp: opts.cu_isp,
        greynoise: opts.greynoise,
        sampling_rate: opts.sampling_rate,
        thresholds: opts.thresholds,
        faults: opts.faults,
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reject a resume/replay whose scenario or options differ from the ones
/// the log was written under — silently mixing them would "recover" into
/// a run that never happened.
fn check_meta(meta: &RunMeta, want: &RunMeta) -> io::Result<()> {
    if meta != want {
        return Err(invalid(format!(
            "WAL was written under a different scenario/options (log meta: {meta:?}, requested: {want:?})"
        )));
    }
    Ok(())
}

// --- The engine ---------------------------------------------------------

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

/// How feeding the engine ended.
enum Fed {
    /// All fed: the generated total.
    Finished(u64),
    /// The journal reached its suspension point.
    Suspended { fed: u64, durable_seq: u64 },
}

/// The one execution engine (see the module docs for the picture). Both
/// feeders end in [`Engine::deliver`], the only place a packet is
/// journaled, counted, handed to the executor and ticked on the exporter.
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
    /// The single per-packet step, once per fed packet: journal → count →
    /// executor → exporter and memory-pulse tick.
    #[inline]
    fn deliver(&mut self, pkt: &PacketMeta) {
        if let Some(j) = self.journal.as_mut() {
            {
                let _mem = MemScope::enter(Tag::Wal);
                j.scratch.clear();
                WalRecord::Packet(*pkt).encode_payload(&mut j.scratch);
            }
            j.hash = fnv1a_fold(j.hash, &j.scratch);
            if j.skip > 0 {
                // Fast-forward over the recovered prefix. At the crossing,
                // the rolling hash over the re-generated stream must equal
                // the hash over what the log actually held.
                j.skip -= 1;
                if j.skip == 0 && j.hash != j.prefix_hash {
                    self.halt = Some(Err(invalid(
                        "recovered WAL prefix diverges from the deterministic packet stream",
                    )));
                }
                return;
            }
            if let Err(e) = j.writer.append_payload(&j.scratch) {
                self.halt = Some(Err(e));
                return;
            }
            let journey = self.tel.tracer.journey_id(pkt.src.to_u32());
            if journey != 0 {
                self.tel.tracer.journey_instant("ah_pipeline_wal_append", journey);
            }
            if j.crash_after == Some(self.pos + 1) {
                j.writer.crash_with_torn_tail();
            }
            if j.suspend_after == Some(self.pos + 1) {
                // This packet is in the log, so it is still executed and
                // ticked below; the stream stops after it.
                self.halt = Some(Ok(()));
            }
        }
        self.pos += 1;
        match &mut self.exec {
            Executor::Inline(unit) => unit.offer(pkt),
            Executor::Sharded(shards) => shards.route(pkt, &self.tel.tracer),
        }
        if let Some(ex) = self.tel.exporter.as_mut() {
            ex.maybe_export(self.pos);
        }
        if let Some(mp) = self.tel.mem.as_mut() {
            mp.tick(self.pos, &self.tel.recorder, &self.tel.tracer);
        }
    }

    /// Feeder: pull the traffic mux dry, a `BATCH` of packets at a time
    /// (or until the journal stops the run).
    fn pull(&mut self, mux: &mut TrafficMux) {
        let _drive = self.tel.tracer.span("ah_pipeline_mux_drive");
        let mut batch = {
            let _mem = MemScope::enter(Tag::Mux);
            Vec::with_capacity(BATCH)
        };
        while self.halt.is_none() && mux.next_batch(&mut batch, BATCH) > 0 {
            for pkt in &batch {
                // Per packet, not per batch: a journaled run stops exactly
                // at its interruption point. The rest of the batch is
                // dropped and regenerated on resume, like everything
                // past the point.
                if self.halt.is_some() {
                    break;
                }
                self.deliver(pkt);
            }
            batch.clear();
        }
    }

    /// Feeder: recover the log in `dir` (truncating any torn/corrupt
    /// tail) and deliver every durable packet frame — none at all unless
    /// frame 0 is the meta record of this very run (`want`). Returns the
    /// log summary and the rolling FNV over the packet payloads.
    fn recover(&mut self, dir: &Path, want: &RunMeta) -> io::Result<(RecoveredLog, u64)> {
        let (rec, tracer) = (self.tel.recorder.clone(), self.tel.tracer.clone());
        let m_replay = rec.counter("ah_wal_replay_packets_total");
        let _scan = tracer.span("ah_wal_recover_scan");
        let mut hash = FNV_OFFSET;
        let mut meta_ok = Err(invalid("WAL holds no meta record"));
        let log = ah_wal::recover(dir, &rec, |seq, payload, record| match record {
            WalRecord::Meta(m) if seq == 0 => meta_ok = check_meta(&m, want),
            WalRecord::Packet(p) if meta_ok.is_ok() => {
                hash = fnv1a_fold(hash, payload);
                let journey = tracer.journey_id(p.src.to_u32());
                if journey != 0 {
                    tracer.journey_instant("ah_wal_replay_packet", journey);
                }
                m_replay.inc();
                self.deliver(&p);
            }
            _ => {}
        })?;
        if log.next_seq > 0 {
            meta_ok?;
        }
        Ok((log, hash))
    }

    /// Run the feeders the inputs call for: the recovered log (resume,
    /// replay), then — unless that log was sealed, which ends the run
    /// there — the live mux built from `cfg`, journaled when `journal_to`
    /// is set.
    fn feed(
        &mut self,
        recover_from: Option<&Path>,
        journal_to: Option<&WalRun>,
        cfg: ScenarioConfig,
        meta: &RunMeta,
    ) -> io::Result<Fed> {
        let mut prefix_hash = FNV_OFFSET;
        // The recovered watermark when the journal continues an existing log.
        let mut resume_at = None;
        if let Some(dir) = recover_from {
            let (log, hash) = self.recover(dir, meta)?;
            prefix_hash = hash;
            match (log.seal, journal_to) {
                // A sealed log is the whole run.
                (Some(seal), _) => {
                    if seal.generated != self.pos {
                        return Err(invalid(format!(
                            "seal records {} generated packets but the log holds {}",
                            seal.generated, self.pos
                        )));
                    }
                    if seal.packet_hash != hash {
                        return Err(invalid(
                            "sealed packet-stream hash does not match the log contents",
                        ));
                    }
                    return Ok(Fed::Finished(seal.generated));
                }
                (None, None) if log.next_seq == 0 => {
                    return Err(invalid(format!(
                        "there is no WAL in {}: nothing to replay",
                        dir.display()
                    )));
                }
                (None, None) => {
                    return Err(invalid("WAL is not sealed (interrupted run?) — use resume_wal"));
                }
                // An empty directory resumes as a fresh journaled run.
                (None, Some(_)) if log.next_seq == 0 => {}
                (None, Some(_)) => resume_at = Some(log.next_seq),
            }
        }
        if let Some(wal) = journal_to {
            // An interruption point fires after the packet that reaches
            // it, and the fast-forward over a recovered prefix evaluates
            // none: one at or inside the prefix — 0 on a fresh log — could
            // never fire at the position it names.
            for at in [wal.suspend_after, wal.crash_after].into_iter().flatten() {
                if at <= self.pos {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "interruption point {at} can never fire: it is not past the {} packets already durable",
                            self.pos
                        ),
                    ));
                }
            }
            let mut writer = match resume_at {
                Some(next_seq) => {
                    WalWriter::resume(&wal.dir, wal.writer, next_seq, &self.tel.recorder)?
                }
                None => {
                    let mut w = WalWriter::create(&wal.dir, wal.writer, &self.tel.recorder)?;
                    w.append(&WalRecord::Meta(meta.clone()))?;
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
        }
        self.pull(&mut Scenario::build(cfg).mux);
        let suspended = self.halt.take().transpose()?.is_some();
        if let Some(j) = self.journal.as_mut() {
            j.writer.commit()?;
            if suspended {
                let durable_seq = j.writer.durable_seq();
                return Ok(Fed::Suspended { fed: self.pos, durable_seq });
            }
            j.writer.seal(RunSeal { generated: self.pos, packet_hash: j.hash })?;
        }
        Ok(Fed::Finished(self.pos))
    }

    /// Assemble and run the engine for one public entry point:
    ///
    /// * `threads` picks the executor — `None` the inline vantage stack,
    ///   `Some(n)` `n` shard workers;
    /// * `recover_from` feeds a recovered log first (resume, replay);
    /// * `journal_to` journals the live stream (and, with `recover_from`,
    ///   makes the run a resume rather than a replay).
    fn run(
        cfg: ScenarioConfig,
        opts: RunOptions,
        threads: Option<usize>,
        recover_from: Option<&Path>,
        journal_to: Option<&WalRun>,
        tel: &mut Telemetry,
    ) -> io::Result<WalOutcome> {
        let days = cfg.days;
        let meta = wal_meta(&cfg, &opts);
        let world = {
            let _mem = MemScope::enter(Tag::Mux);
            World::new(cfg.world.clone())
        };
        let rec = tel.recorder.clone();
        let tracer = tel.tracer.clone();
        let (fed, shards) = std::thread::scope(|s| -> io::Result<_> {
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
            // On error or suspension the executor is just dropped: dropped
            // producers close their rings and the scope joins the workers.
            let fed = engine.feed(recover_from, journal_to, cfg, &meta)?;
            let shards = match (&fed, engine.exec) {
                (Fed::Suspended { .. }, _) => Vec::new(),
                (Fed::Finished(_), Executor::Inline(unit)) => vec![unit.finish()],
                (Fed::Finished(_), Executor::Sharded(shards)) => shards.join(&rec, &tracer),
            };
            Ok((fed, shards))
        })?;
        match fed {
            Fed::Suspended { fed, durable_seq } => {
                Ok(WalOutcome::Suspended { delivered: fed, durable_seq })
            }
            Fed::Finished(generated) => Ok(WalOutcome::Completed(Box::new(finalize_run(
                world, days, generated, shards, &opts, tel,
            )))),
        }
    }
}

// --- Public entry points: constructors over the engine ------------------

/// An unjournaled run: no log to fail on, no interruption point to stop at.
fn run_unjournaled(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: Option<usize>,
    tel: &mut Telemetry,
) -> RunOutput {
    match Engine::run(cfg, opts, threads, None, None, tel) {
        Ok(WalOutcome::Completed(out)) => *out,
        #[expect(
            clippy::unreachable,
            reason = "every Err and every Suspended in Engine::run originates in the recovered log or the journal, and this run has neither"
        )]
        _ => unreachable!("an unjournaled run can neither fail on I/O nor suspend"),
    }
}

/// Run a scenario through every requested vantage point and detect.
pub fn run(cfg: ScenarioConfig, opts: RunOptions) -> RunOutput {
    run_with_recorder(cfg, opts, &mut Telemetry::disabled())
}

/// [`run`] with live telemetry: every stage registers its instruments on
/// `tel.recorder`, and `tel.exporter` (if any) is ticked at deterministic
/// stream positions. The returned [`RunOutput`] is bitwise identical to a
/// [`run`] of the same inputs.
pub fn run_with_recorder(cfg: ScenarioConfig, opts: RunOptions, tel: &mut Telemetry) -> RunOutput {
    run_unjournaled(cfg, opts, None, tel)
}

/// Run the same pipeline on `threads` worker shards.
///
/// The dispatcher is a pure router: it drives the traffic mux and pushes
/// each raw packet onto the SPSC ring of the shard owning the packet's
/// source IP. Each shard runs its own fault injector (fault verdicts
/// are keyed by source and per-source sequence number, so a shard's
/// substream reproduces the serial verdicts exactly — see
/// [`ah_simnet::faults`]) and its own vantage stack, whose reordering,
/// sampling, and lateness decisions are all per-key pure. Each shard
/// thread returns its result through its join handle; the results fold
/// commutatively.
///
/// The output is bitwise identical to [`run`] with the same inputs;
/// `threads == 0` or `1` still goes through the sharded path (with one
/// worker), which is useful for isolating engine differences.
pub fn run_parallel(cfg: ScenarioConfig, opts: RunOptions, threads: usize) -> RunOutput {
    run_parallel_with_recorder(cfg, opts, threads, &mut Telemetry::disabled())
}

/// [`run_parallel`] with live telemetry. Dispatcher-side instruments add
/// stall timing (how long the dispatcher blocked on a full shard ring)
/// and per-shard dispatch-ring occupancy high-water marks on top
/// of the stage instruments the shards register themselves. Packet order
/// on every ring is identical with telemetry on or off, so the output
/// stays bitwise identical to [`run`] / [`run_parallel`].
pub fn run_parallel_with_recorder(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: usize,
    tel: &mut Telemetry,
) -> RunOutput {
    run_unjournaled(cfg, opts, Some(threads), tel)
}

/// Serial durable run: like [`run_with_recorder`], but every packet the
/// mux generates is appended to a write-ahead log before the executor
/// sees it. A completed run seals the log (making it replayable via
/// [`replay_wal`]); an interrupted one leaves a committed prefix that
/// [`resume_wal`] picks up mid-simulation.
pub fn run_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    wal: &WalRun,
    tel: &mut Telemetry,
) -> io::Result<WalOutcome> {
    Engine::run(cfg, opts, None, None, Some(wal), tel)
}

/// Re-run detection over a sealed log without re-simulating: the stored
/// stream takes the mux's place in front of the executor, and the seal's
/// count and hash are held to what the log contained. Produces a
/// [`RunOutput`] bitwise identical to the live run that wrote the log —
/// same fingerprint, same daily AH lists.
pub fn replay_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    dir: &Path,
    tel: &mut Telemetry,
) -> io::Result<Box<RunOutput>> {
    tel.recorder.counter("ah_wal_replay_runs_total").inc();
    Engine::run(cfg, opts, None, Some(dir), None, tel)?
        .completed()
        .ok_or_else(|| invalid("replay suspended, but it has no journal to suspend on"))
}

/// Resume an interrupted durable run mid-simulation.
///
/// The durable prefix is recovered (truncating any torn/corrupt tail)
/// and fed into a fresh executor, which rebuilds its injector and vantage
/// state by passing through it; the deterministic generator is then
/// re-driven from the seed with its first `prefix` packets skipped —
/// verified against the log via a rolling payload hash at the crossing —
/// and the run continues appending where the crash or suspension left off. Resuming a *sealed* log degenerates
/// to [`replay_wal`]; resuming an empty directory is a fresh [`run_wal`].
/// The continuation is serial; its output is still bitwise identical to
/// an uninterrupted run at any thread count.
///
/// An interruption point (`wal.suspend_after` / `wal.crash_after`) at or
/// inside the recovered prefix is rejected with
/// [`io::ErrorKind::InvalidInput`] before anything is re-driven; the log
/// is left as recovered and stays resumable.
pub fn resume_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    wal: &WalRun,
    tel: &mut Telemetry,
) -> io::Result<WalOutcome> {
    tel.recorder.counter("ah_wal_resume_runs_total").inc();
    Engine::run(cfg, opts, None, Some(&wal.dir), Some(wal), tel)
}

/// Parallel durable run: the dispatcher appends every generated packet to
/// the write-ahead log before routing it to the shard owning its source.
/// The log is written in mux order, before any fault, so it is
/// *byte-identical* to the one [`run_wal`] writes (the determinism suite
/// pins the segment bytes) and resumes and replays at any thread count.
pub fn run_parallel_wal(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: usize,
    wal: &WalRun,
    tel: &mut Telemetry,
) -> io::Result<WalOutcome> {
    Engine::run(cfg, opts, Some(threads), None, Some(wal), tel)
}

// --- Output fingerprinting ---------------------------------------------

impl RunOutput {
    /// A content fingerprint over every externally meaningful field —
    /// detection report, capture summary, flow datasets, honeypot
    /// entries, and the health ledgers.
    ///
    /// Two runs with equal fingerprints produced bitwise-identical
    /// results; the determinism suite holds `run` and [`run_parallel`] to
    /// exactly this standard. Hash-ordered containers are folded in
    /// sorted order so the fingerprint is itself deterministic.
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
            word(u64::from(r.src.to_u32()));
            word(u64::from(r.dst_port));
            word(r.class as u64);
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
    mux.drive(|pkt| {
        if pkt.ts < tap_start {
            return;
        }
        if let ah_flow::router::Disposition::Border(r, _) = merit.disposition(pkt) {
            if r == tap_router {
                merit_tap.observe(pkt);
            }
        }
        if let ah_flow::router::Disposition::Border(..) = cu.disposition(pkt) {
            cu_tap.observe(pkt);
        }
    });

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

    #[test]
    fn parallel_matches_serial_smoke() {
        let a = run(ScenarioConfig::tiny(1, 16), RunOptions::full());
        let b = run_parallel(ScenarioConfig::tiny(1, 16), RunOptions::full(), 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
