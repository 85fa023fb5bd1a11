//! End-to-end fault-injection ("chaos") runs: the full pipeline fed a
//! degraded packet stream must neither panic nor lose input without a
//! ledger entry, and detection must degrade gracefully — at a 1% fault
//! rate the aggressive-hitter lists stay nearly identical to a pristine
//! run (Jaccard ≥ 0.9 for all three definitions).

mod common;

use aggressive_scanners::core::defs::{Definition, Thresholds};
use aggressive_scanners::core::lists::jaccard;
use aggressive_scanners::net::time::Dur;
use aggressive_scanners::pipeline::{self, RunOptions, RunOutput};
use aggressive_scanners::simnet::faults::FaultPlan;
use aggressive_scanners::simnet::scenario::ScenarioConfig;

/// Loose tail cuts so the tiny scenario yields lists of tens of sources
/// per definition (the paper's α = 10⁻⁴ assumes millions of events).
fn chaos_thresholds() -> Thresholds {
    Thresholds { dispersion_fraction: 0.10, volume_alpha: 0.01, ports_alpha: 0.01 }
}

fn chaos_run(faults: Option<FaultPlan>) -> RunOutput {
    let mut opts = RunOptions::full().with_thresholds(chaos_thresholds());
    if let Some(plan) = faults {
        opts = opts.with_faults(plan);
    }
    pipeline::run(ScenarioConfig::tiny(3, 77), opts)
}

/// Every stage ledger must balance exactly, at any fault rate.
fn assert_conserves(out: &RunOutput, label: &str) {
    assert!(
        out.health.conserves(),
        "{label}: conservation violated in stages {:?}\n{}",
        out.health.violations(),
        out.health.render()
    );
}

#[test]
fn faulty_runs_never_panic_and_always_conserve() {
    for rate in [0.001, 0.01, 0.05] {
        let out = chaos_run(Some(FaultPlan::uniform(rate, 7)));
        assert_conserves(&out, &format!("rate {rate}"));
        let inj = out.health.stage("faults.injector").expect("injector stage present");
        assert!(inj.received >= out.generated_packets, "injector saw every packet");
        assert!(inj.discarded_total() > 0, "rate {rate} must discard something");
        // The degraded stream still reaches every vantage point.
        assert!(out.capture.total_packets > 0);
        assert!(out.merit_flows.as_ref().is_some_and(|d| !d.records.is_empty()));
        assert!(out.gn_entries.as_ref().is_some_and(|g| !g.is_empty()));
    }
}

#[test]
fn one_percent_faults_keep_hitter_lists_stable() {
    let clean = chaos_run(None);
    let faulty = chaos_run(Some(FaultPlan::uniform(0.01, 7)));
    assert_conserves(&clean, "clean");
    assert_conserves(&faulty, "1% faults");
    for def in [Definition::AddressDispersion, Definition::PacketVolume, Definition::DistinctPorts]
    {
        let a = clean.report.hitters(def);
        let b = faulty.report.hitters(def);
        assert!(!a.is_empty(), "{def:?}: clean run must detect hitters");
        let j = jaccard(a, b);
        assert!(
            j >= 0.9,
            "{def:?}: Jaccard {j:.3} < 0.9 (clean {} vs faulty {})",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn clean_plan_is_an_identity() {
    let baseline = chaos_run(None);
    let injected = chaos_run(Some(FaultPlan::clean()));
    assert_conserves(&injected, "clean plan");
    let inj = injected.health.stage("faults.injector").expect("injector stage present");
    assert_eq!(inj.received, inj.accepted, "clean plan delivers every packet");
    assert_eq!(inj.discarded_total(), 0);
    assert_eq!(baseline.generated_packets, injected.generated_packets);
    assert_eq!(baseline.capture.total_packets, injected.capture.total_packets);
    for def in [Definition::AddressDispersion, Definition::PacketVolume, Definition::DistinctPorts]
    {
        assert_eq!(baseline.report.hitters(def), injected.report.hitters(def), "{def:?}");
    }
}

// --- Storage-fault recovery ----------------------------------------------
//
// Chaos at the durability layer: damage a write-ahead log the way real
// crashes and disks do (torn final write, truncated tail, flipped bit),
// then demand that recovery truncates to the durable watermark, that a
// second recovery pass is a no-op, and that resuming the damaged run
// reproduces the uninterrupted run's output bit for bit.

use aggressive_scanners::obs::Recorder;
use aggressive_scanners::pipeline::{Telemetry, WalOutcome, WalRun};
use aggressive_scanners::simnet::faults::{StorageFaultKind, StorageFaultPlan};
use aggressive_scanners::wal;
use std::path::{Path, PathBuf};

/// Every log file in `dir`, as (name, bytes) — for idempotence checks.
fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("wal dir readable")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("file readable"))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Run recovery over `dir`, discarding the records.
fn recover_quiet(dir: &Path) -> wal::RecoveredLog {
    wal::recover(dir, &Recorder::new(), |_, _, _| {}).expect("recovery succeeds")
}

fn storage_cfg() -> ScenarioConfig {
    ScenarioConfig::tiny(2, 91)
}

fn storage_opts() -> RunOptions {
    RunOptions::full().with_thresholds(chaos_thresholds())
}

/// Journal `plain`'s run into a fresh directory, suspended halfway.
fn suspend_halfway(label: &str, plain: &RunOutput) -> PathBuf {
    let dir = common::temp_dir(&format!("chaos-{label}"));
    let cut = plain.capture.total_packets.max(8) / 2;
    let wal_run = WalRun::new(&dir).suspend_after(cut);
    match pipeline::run_wal(storage_cfg(), storage_opts(), &wal_run, &mut Telemetry::disabled()) {
        Ok(WalOutcome::Suspended { delivered, .. }) => assert_eq!(delivered, cut, "{label}"),
        Ok(WalOutcome::Completed(_)) => panic!("{label}: run finished before suspension point"),
        Err(e) => panic!("{label}: suspend run failed: {e}"),
    }
    dir
}

/// Resume the log in `dir` to completion and hold it to `plain`.
fn resume_matches(dir: &Path, label: &str, plain: &RunOutput) {
    let resumed = pipeline::resume_wal(
        storage_cfg(),
        storage_opts(),
        &WalRun::new(dir),
        &mut Telemetry::disabled(),
    )
    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"))
    .completed()
    .unwrap_or_else(|| panic!("{label}: resume must run to completion"));
    assert_eq!(
        resumed.fingerprint(),
        plain.fingerprint(),
        "{label}: resumed output diverged from the uninterrupted run"
    );
    assert_conserves(&resumed, label);
}

/// Suspend a durable run partway, damage the log with `kind`, and check
/// the full recovery contract against the uninterrupted `plain` run.
fn storage_fault_case(kind: StorageFaultKind, label: &str, plain: &RunOutput) {
    let dir = suspend_halfway(label, plain);
    let intact = recover_quiet(&dir);

    let segs: Vec<PathBuf> =
        wal::segment_paths(&dir).expect("list segments").into_iter().map(|(_, p)| p).collect();
    assert!(!segs.is_empty(), "{label}: suspended log must have segments");
    let report = StorageFaultPlan::new(kind, 7).apply(&segs).expect("storage fault applies");

    // First recovery repairs; it must never invent frames, and every
    // damage kind must cost at least one.
    let mut meta_survives = false;
    let repaired = wal::recover(&dir, &Recorder::new(), |seq, _, record| {
        meta_survives |= seq == 0 && matches!(record, wal::WalRecord::Meta(_));
    })
    .expect("recovery succeeds");
    assert!(repaired.next_seq <= intact.next_seq, "{label}: recovery must not invent frames");
    assert!(meta_survives, "{label}: run metadata survives");
    assert!(!repaired.is_sealed(), "{label}: suspended log stays unsealed");
    match kind {
        StorageFaultKind::TornFinalWrite => {
            assert!(repaired.next_seq < intact.next_seq, "{label}: torn tail loses a frame");
            assert!(
                repaired.stats.torn_frames > 0 && repaired.stats.bytes_truncated > 0,
                "{label}: the mid-frame cut must be observed: {:?}",
                repaired.stats
            );
        }
        StorageFaultKind::TruncatedTail => {
            // The cut may land exactly on a frame boundary, in which case
            // the shorter log is already clean — only the watermark moves.
            assert!(repaired.next_seq < intact.next_seq, "{label}: tail damage loses frames");
        }
        StorageFaultKind::BitFlipMidSegment => {
            assert!(report.bit_flipped.is_some(), "{label}: report names the flipped bit");
            assert!(repaired.next_seq < intact.next_seq, "{label}: the flipped frame is lost");
            assert!(
                repaired.stats.torn_frames + repaired.stats.corrupt_frames > 0,
                "{label}: flipped bit must fail a frame check: {:?}",
                repaired.stats
            );
        }
    }

    // Second recovery is a no-op: same watermark, byte-identical files.
    let snapshot = dir_snapshot(&dir);
    let again = recover_quiet(&dir);
    assert_eq!(again.next_seq, repaired.next_seq, "{label}: recovery watermark is stable");
    assert_eq!(again.stats.bytes_truncated, 0, "{label}: second pass truncates nothing");
    assert_eq!(dir_snapshot(&dir), snapshot, "{label}: second pass rewrites nothing");

    // Resuming the damaged run regenerates the lost tail deterministically.
    resume_matches(&dir, label, plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storage_faults_recover_to_the_durable_watermark() {
    let plain = pipeline::run(storage_cfg(), storage_opts());
    storage_fault_case(StorageFaultKind::TornFinalWrite, "torn-final-write", &plain);
    storage_fault_case(StorageFaultKind::TruncatedTail, "truncated-tail", &plain);
    storage_fault_case(StorageFaultKind::BitFlipMidSegment, "bit-flip-mid-segment", &plain);
}

/// Logs written before the index sidecar was deleted still carry a
/// `wal.idx`. It is not a segment: recovery, resume and replay neither
/// read, rewrite nor remove it.
#[test]
fn stale_index_sidecar_is_ignored() {
    const STALE: &[u8] = b"AHWALIX1 left behind by an older writer";
    let label = "stale-sidecar";
    let plain = pipeline::run(storage_cfg(), storage_opts());
    let dir = suspend_halfway(label, &plain);
    let stray = dir.join("wal.idx");
    std::fs::write(&stray, STALE).expect("write stray file");

    let first = recover_quiet(&dir);
    assert_eq!(first.stats.bytes_truncated + first.stats.segments_dropped, 0, "{label}: clean log");
    let snapshot = dir_snapshot(&dir);
    assert_eq!(recover_quiet(&dir).next_seq, first.next_seq, "{label}: watermark is stable");
    assert_eq!(dir_snapshot(&dir), snapshot, "{label}: second pass rewrites nothing");

    resume_matches(&dir, label, &plain);
    let replayed =
        pipeline::replay_wal(storage_cfg(), storage_opts(), &dir, &mut Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    assert_eq!(replayed.fingerprint(), plain.fingerprint(), "{label}: replayed output diverged");
    assert_eq!(std::fs::read(&stray).expect("stray file kept"), STALE, "{label}: stray file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn burst_outages_are_dropped_and_ledgered() {
    let plan = FaultPlan::clean().with_outage(Dur::from_mins(60), Dur::from_mins(5));
    let out = chaos_run(Some(plan));
    assert_conserves(&out, "outage");
    let inj = out.health.stage("faults.injector").expect("injector stage present");
    let outage = inj.discarded.get("outage").copied().unwrap_or(0);
    assert!(outage > 0, "periodic outage windows must drop packets");
    assert_eq!(inj.received, inj.accepted + outage, "outage is the only loss");
    // Capture still conserves downstream of the holes.
    assert!(out.capture.total_packets > 0);
}
