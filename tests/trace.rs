//! Trace determinism and trace-artifact schema checks.
//!
//! The contract under test (`ARCHITECTURE.md` §12): tracing is
//! observation-only. Attaching a live [`ah_trace::Tracer`] — spans on
//! every layer plus sampled packet journeys — must leave
//! [`RunOutput::fingerprint`] bitwise identical on every cell of the
//! shared matrix (`tests/common`): 1 and 8 threads, clean or faulted, in
//! memory, journaled or replayed. On top of that, the
//! Chrome trace-event export must pass the first-party validator
//! ([`ah_trace::check`]): balanced `B`/`E` stacks, per-track monotonic
//! timestamps, scheme-conforming span names, and flow chains with a
//! single start and at least two points.

mod common;

use aggressive_scanners::net::time::Dur;
use aggressive_scanners::pipeline::{self, RunOptions, Telemetry, WalRun};
use aggressive_scanners::simnet::faults::FaultPlan;
use ah_trace::{check, export, TraceConfig, Tracer};
use common::{opts, run_with, scenario, temp_dir};

/// A live tracer following ~1-in-`sample` source journeys, seeded like
/// the scenario so the sampled set is reproducible.
fn tracer(sample: u64) -> Tracer {
    Tracer::new(TraceConfig { seed: common::SEED, sample_one_in: sample, ..TraceConfig::default() })
}

// --- Determinism --------------------------------------------------------

#[test]
fn tracing_does_not_perturb_output() {
    common::assert_observation_only(
        "trace-det",
        || Telemetry::disabled().with_tracer(tracer(4)),
        |cell, tel, _out| {
            let snap = tel.tracer.snapshot();
            let events: usize = snap.tracks.iter().map(|t| t.events.len()).sum();
            assert!(
                events > 0,
                "live tracer recorded nothing at threads={} path={:?}",
                cell.threads,
                cell.path
            );
        },
    );
}

/// The `B`/`E`/`i` events of a Chrome export in file order, each with
/// its wall-clock `"ts"` field removed.
fn untimed_events(json: &str) -> Vec<String> {
    let phases = ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"i\""];
    let events = json.lines().filter(|l| phases.iter().any(|ph| l.contains(ph)));
    events
        .map(|l| {
            let at = l.find("\"ts\":").expect("every B/E/i event has a ts");
            let end = at + l[at..].find(',').expect("ts is not the last field");
            format!("{}{}", &l[..at], &l[end + 1..])
        })
        .collect()
}

/// Trace content is a pure function of the run: two traced serial runs
/// of one faulted scenario export the same events in the same order,
/// wall-clock timestamps aside.
#[test]
fn traced_serial_runs_export_the_same_events() {
    let traced = || {
        let cfg = TraceConfig { seed: common::SEED, sample_one_in: 4, buf_capacity: 1 << 20 };
        let mut tel = Telemetry::disabled().with_tracer(Tracer::new(cfg));
        run_with(&mut tel, 1, true);
        let snap = tel.tracer.snapshot();
        assert_eq!(snap.dropped, 0, "the trace tracks overflowed");
        untimed_events(&export::to_chrome_trace(&snap))
    };
    let first = traced();
    assert!(first.iter().any(|e| e.contains("\"journey\":")), "no journey in the trace");
    assert!(first == traced(), "two traced runs of one scenario exported different events");
}

// --- Chrome trace schema + causal journeys ------------------------------

#[test]
fn traced_parallel_run_exports_causal_journeys() {
    let mut tel = Telemetry::disabled().with_tracer(tracer(16));
    run_with(&mut tel, 4, true);
    let snap = tel.tracer.snapshot();
    let json = export::to_chrome_trace(&snap);
    let stats = check::validate_chrome_trace(&json).expect("chrome trace validates");
    // One track for the dispatcher plus one per shard worker.
    assert!(stats.tracks >= 3, "expected dispatcher + shard tracks, got {}", stats.tracks);
    assert!(!stats.flow_ids.is_empty(), "no sampled packet journeys in the trace");
    // A journey must be visible at every layer from mux to detector.
    for name in [
        "ah_pipeline_mux_drive",
        "ah_pipeline_dispatch_route",
        "ah_pipeline_shard_consume",
        "ah_pipeline_vantage_consume",
        "ah_telescope_capture_observe",
        "ah_telescope_agg_sweep",
        "ah_flow_router_observe",
        "ah_pipeline_merge_collect",
        "ah_pipeline_detector_pass",
        "ah_pipeline_detector_ingest",
    ] {
        assert!(stats.names.contains(name), "span {name} missing from the trace");
    }
    // The injector's fate instants ride the same journeys.
    assert!(
        stats.names.iter().any(|n| n.starts_with("ah_simnet_faults_")),
        "faulted traced run shows no injector fate instants"
    );

    // Folded-stack export: every line is `stack <self-us>`.
    let folded = export::to_folded_stacks(&snap);
    assert!(!folded.is_empty(), "folded-stack export is empty");
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("stack and self-time");
        assert!(!stack.is_empty());
        n.parse::<u64>().expect("numeric self-time");
    }
}

/// The execution unit reads a sampled packet's fault fates off the
/// injector's ledger, so with every source sampled the fate instants are
/// that ledger: per fate, as many `ah_simnet_faults_*` instants as the
/// `faults.injector` stage counts, inline and sharded.
#[test]
fn fate_instants_are_the_injector_ledger() {
    let plan =
        FaultPlan::uniform(0.01, common::SEED).with_outage(Dur::from_mins(60), Dur::from_secs(90));
    let opts = RunOptions::full().with_faults(plan);
    for threads in [1, 4] {
        let cfg = TraceConfig { seed: common::SEED, sample_one_in: 1, buf_capacity: 1 << 20 };
        let mut tel = Telemetry::disabled().with_tracer(Tracer::new(cfg));
        let out = if threads == 1 {
            pipeline::run_with_recorder(scenario(), opts, &mut tel)
        } else {
            pipeline::run_parallel_with_recorder(scenario(), opts, threads, &mut tel)
        };
        let snap = tel.tracer.snapshot();
        assert_eq!(snap.dropped, 0, "the trace buffers overflowed at {threads} threads");
        let json = export::to_chrome_trace(&snap);
        let instants = |fate: &str| {
            let event =
                format!("\"name\":\"ah_simnet_faults_{fate}\",\"cat\":\"span\",\"ph\":\"i\"");
            json.matches(&event).count() as u64
        };
        let inj = out.health.stage("faults.injector").expect("the injector's ledger");
        let discarded = |category: &str| inj.discarded.get(category).copied().unwrap_or(0);
        let at = format!("at {threads} threads");
        assert_eq!(instants("drop"), discarded("dropped"), "{at}");
        assert_eq!(instants("outage"), discarded("outage"), "{at}");
        assert_eq!(instants("duplicate"), inj.received - out.generated_packets, "{at}");
        assert_eq!(instants("discard"), discarded("truncated") + discarded("corrupt"), "{at}");
        assert!(instants("reorder") > 0, "no reorder instant {at}");
        for fate in ["drop", "outage", "duplicate", "discard"] {
            assert!(instants(fate) > 0, "the plan exercised no {fate} {at}");
        }
    }
}

// --- WAL I/O visibility --------------------------------------------------

#[test]
fn traced_wal_run_covers_wal_io_and_stays_deterministic() {
    let dir = temp_dir("trace-wal");
    let baseline = pipeline::run(scenario(), opts(false)).fingerprint();

    let mut tel = Telemetry::disabled().with_tracer(tracer(16));
    let mut wal = WalRun::new(&dir);
    // Small batches and segments so the traced window contains several
    // group commits and at least one rotation.
    wal.writer.group_commit_frames = 512;
    wal.writer.segment_bytes = 64 << 10;
    let out = pipeline::run_wal(scenario(), opts(false), &wal, &mut tel)
        .expect("durable run")
        .completed()
        .expect("run completed");
    assert_eq!(out.fingerprint(), baseline, "tracing changed the durable run's output");

    let stats = check::validate_chrome_trace(&export::to_chrome_trace(&tel.tracer.snapshot()))
        .expect("durable-run trace validates");
    for name in [
        "ah_pipeline_mux_drive",
        "ah_pipeline_wal_append",
        "ah_wal_writer_commit",
        "ah_wal_writer_fsync",
        "ah_wal_writer_rotate",
        "ah_wal_writer_seal",
    ] {
        assert!(stats.names.contains(name), "span {name} missing from the WAL trace");
    }

    // Replay the sealed log traced: recovery scan + per-packet replay
    // instants, same fingerprint.
    let mut tel2 = Telemetry::disabled().with_tracer(tracer(16));
    let replayed = pipeline::replay_wal(scenario(), opts(false), &dir, &mut tel2).expect("replay");
    assert_eq!(replayed.fingerprint(), baseline, "traced replay diverged");
    let stats2 = check::validate_chrome_trace(&export::to_chrome_trace(&tel2.tracer.snapshot()))
        .expect("replay trace validates");
    assert!(stats2.names.contains("ah_wal_recover_scan"));
    assert!(stats2.names.contains("ah_wal_replay_packet"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_parallel_wal_matches_serial() {
    let dir = temp_dir("trace-pwal");
    let mut tel = Telemetry::disabled().with_tracer(tracer(16));
    let out = pipeline::run_parallel_wal(scenario(), opts(false), 4, &WalRun::new(&dir), &mut tel)
        .expect("parallel durable run")
        .completed()
        .expect("run completed");
    assert_eq!(out.fingerprint(), pipeline::run(scenario(), opts(false)).fingerprint());
    let stats = check::validate_chrome_trace(&export::to_chrome_trace(&tel.tracer.snapshot()))
        .expect("parallel WAL trace validates");
    for name in ["ah_pipeline_dispatch_route", "ah_pipeline_wal_append", "ah_wal_writer_commit"] {
        assert!(stats.names.contains(name), "span {name} missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}
