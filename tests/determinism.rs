//! Serial/parallel equivalence suite.
//!
//! The sharded engine's headline invariant: `run_parallel` produces
//! **bitwise identical** output to the serial `run` — same hitter lists,
//! same record tables, same flow datasets, same health ledgers — at any
//! thread count, with or without fault injection. Beyond the fingerprint
//! (which covers every externally meaningful field), the key collections
//! are compared directly so a regression names the field that diverged.

mod common;

use aggressive_scanners::pipeline::{self, RunOptions, RunOutput};
use ah_core::defs::{Definition, Thresholds};
use ah_simnet::faults::FaultPlan;
use ah_simnet::scenario::ScenarioConfig;

/// Looser tail cuts so tiny scenarios yield non-trivial hitter lists.
fn test_thresholds() -> Thresholds {
    Thresholds { dispersion_fraction: 0.10, volume_alpha: 0.01, ports_alpha: 0.01 }
}

fn assert_equivalent(a: &RunOutput, b: &RunOutput, label: &str) {
    assert_eq!(a.generated_packets, b.generated_packets, "{label}: generated packets");
    assert_eq!(a.capture.total_packets, b.capture.total_packets, "{label}: capture totals");
    assert_eq!(a.capture.unique_sources, b.capture.unique_sources, "{label}: unique sources");
    assert_eq!(a.daily, b.daily, "{label}: daily rollups");
    for def in Definition::ALL {
        assert_eq!(a.report.hitters(def), b.report.hitters(def), "{label}: hitters {def:?}");
        assert_eq!(a.report.days(def), b.report.days(def), "{label}: day list {def:?}");
        for day in a.report.days(def) {
            assert_eq!(
                a.report.daily_hitters(def, day),
                b.report.daily_hitters(def, day),
                "{label}: daily hitters {def:?} day {day}"
            );
            assert_eq!(
                a.report.active_hitters(def, day),
                b.report.active_hitters(def, day),
                "{label}: active hitters {def:?} day {day}"
            );
            assert_eq!(
                a.report.ah_packets(def, day),
                b.report.ah_packets(def, day),
                "{label}: AH packets {def:?} day {day}"
            );
        }
    }
    assert_eq!(a.report.records(), b.report.records(), "{label}: event record table");
    match (a.merit_flows.as_ref(), b.merit_flows.as_ref()) {
        (Some(x), Some(y)) => {
            assert_eq!(x.records, y.records, "{label}: merit flow records");
            assert_eq!(x.router_days, y.router_days, "{label}: merit truth counters");
        }
        (None, None) => {}
        _ => panic!("{label}: merit dataset presence diverged"),
    }
    assert_eq!(
        a.cu_flows.as_ref().map(|f| &f.records),
        b.cu_flows.as_ref().map(|f| &f.records),
        "{label}: cu flow records"
    );
    assert_eq!(a.gn_entries, b.gn_entries, "{label}: honeypot entries");
    assert_eq!(a.health.stages, b.health.stages, "{label}: health ledgers");
    assert_eq!(a.fingerprint(), b.fingerprint(), "{label}: fingerprint");
}

#[test]
fn parallel_is_bitwise_identical_clean() {
    let opts = || RunOptions::full().with_thresholds(test_thresholds());
    let serial = pipeline::run(ScenarioConfig::tiny(2, 21), opts());
    for threads in [1, 2, 8] {
        let par = pipeline::run_parallel(ScenarioConfig::tiny(2, 21), opts(), threads);
        assert_equivalent(&serial, &par, &format!("clean, {threads} threads"));
    }
}

#[test]
fn parallel_is_bitwise_identical_under_faults() {
    let opts = || {
        RunOptions::full()
            .with_thresholds(test_thresholds())
            .with_faults(FaultPlan::uniform(0.01, 7))
    };
    let serial = pipeline::run(ScenarioConfig::tiny(2, 22), opts());
    assert!(
        serial.health.stage("faults.injector").is_some(),
        "fault plan must actually engage the injector"
    );
    for threads in [2, 8] {
        let par = pipeline::run_parallel(ScenarioConfig::tiny(2, 22), opts(), threads);
        assert_equivalent(&serial, &par, &format!("faulty, {threads} threads"));
    }
}

#[test]
fn parallel_darknet_only_matches() {
    let serial = pipeline::run(ScenarioConfig::tiny(2, 23), RunOptions::darknet_only());
    let par = pipeline::run_parallel(ScenarioConfig::tiny(2, 23), RunOptions::darknet_only(), 4);
    assert_equivalent(&serial, &par, "darknet-only, 4 threads");
}

#[test]
fn fingerprint_is_sensitive_to_inputs() {
    // Sanity: the fingerprint must not be a constant.
    let a = pipeline::run(ScenarioConfig::tiny(1, 31), RunOptions::darknet_only());
    let b = pipeline::run(ScenarioConfig::tiny(1, 32), RunOptions::darknet_only());
    assert_ne!(a.fingerprint(), b.fingerprint(), "different seeds must fingerprint differently");
}

// --- Durable-run equivalence ---------------------------------------------
//
// The write-ahead log must be observation-only: a run that logs every
// delivered packet, a replay of that log, and a run suspended mid-stream
// and resumed all produce bitwise identical output to a plain in-memory
// run — at any thread count, with or without fault injection.

use aggressive_scanners::pipeline::{Telemetry, WalOutcome, WalRun};
use std::path::PathBuf;

/// Unwrap a durable-run outcome that must have run to completion.
fn finished(outcome: std::io::Result<WalOutcome>, label: &str) -> RunOutput {
    *outcome
        .unwrap_or_else(|e| panic!("{label}: durable run failed: {e}"))
        .completed()
        .unwrap_or_else(|| panic!("{label}: run suspended unexpectedly"))
}

fn check_wal_equivalence(seed: u64, faults: Option<FaultPlan>, tag: &str) {
    let opts = || {
        let mut o = RunOptions::full().with_thresholds(test_thresholds());
        if let Some(plan) = faults {
            o = o.with_faults(plan);
        }
        o
    };
    let cfg = || ScenarioConfig::tiny(2, seed);
    let plain = pipeline::run(cfg(), opts());
    let mut tel = Telemetry::disabled();

    for threads in [1, 8] {
        // Live durable run == plain run, and its log replays identically.
        let dir = common::temp_dir(&format!("determinism-{tag}-t{threads}"));
        let live = finished(
            pipeline::run_parallel_wal(cfg(), opts(), threads, &WalRun::new(&dir), &mut tel),
            &format!("{tag}: wal live, {threads} threads"),
        );
        assert_equivalent(&plain, &live, &format!("{tag}: wal live, {threads} threads"));
        let replayed = pipeline::replay_wal(cfg(), opts(), &dir, &mut tel)
            .unwrap_or_else(|e| panic!("{tag}: replay failed: {e}"));
        assert_equivalent(&plain, &replayed, &format!("{tag}: replay, {threads} threads"));

        // Suspend mid-stream, then resume to completion == uninterrupted.
        let dir2 = common::temp_dir(&format!("determinism-{tag}-s{threads}"));
        let cut = plain.capture.total_packets.max(8) / 2;
        let wal = WalRun::new(&dir2).suspend_after(cut);
        match pipeline::run_parallel_wal(cfg(), opts(), threads, &wal, &mut tel) {
            Ok(WalOutcome::Suspended { delivered, .. }) => {
                assert_eq!(delivered, cut, "{tag}: suspension point honored")
            }
            Ok(WalOutcome::Completed(_)) => panic!("{tag}: run finished before suspension point"),
            Err(e) => panic!("{tag}: suspend run failed: {e}"),
        }
        // An interruption point inside the recovered prefix can never fire
        // where it says: rejected up front, log left resumable.
        let inside = WalRun::new(&dir2).suspend_after(cut / 2);
        match pipeline::resume_wal(cfg(), opts(), &inside, &mut tel) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{tag}: {e}"),
            Ok(_) => panic!("{tag}: resume accepted a suspension point inside the prefix"),
        }
        let resumed = finished(
            pipeline::resume_wal(cfg(), opts(), &WalRun::new(&dir2), &mut tel),
            &format!("{tag}: resume, {threads} threads"),
        );
        assert_equivalent(&plain, &resumed, &format!("{tag}: resumed, {threads} threads"));

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}

/// Every log file in `dir`, as (name, bytes), sorted by name.
fn journal_bytes(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
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

/// The sharded engine journals in **dispatcher order**, before packets
/// fan out to shards — so the log a parallel run writes is not merely
/// equivalent to the serial one, it is the same bytes. This is what
/// makes a log resumable and replayable at any thread count: the WAL
/// never records how many shards produced it. Compare every file in
/// the log directory, byte for byte.
#[test]
fn parallel_wal_journal_is_byte_identical_to_serial() {
    let opts = || {
        RunOptions::full()
            .with_thresholds(test_thresholds())
            .with_faults(FaultPlan::uniform(0.01, 7))
    };
    let cfg = || ScenarioConfig::tiny(2, 24);
    let mut tel = Telemetry::disabled();

    let serial_dir = common::temp_dir("determinism-journal-serial");
    finished(
        pipeline::run_wal(cfg(), opts(), &WalRun::new(&serial_dir), &mut tel),
        "journal: serial",
    );
    let serial = journal_bytes(&serial_dir);
    assert!(!serial.is_empty(), "serial run wrote no journal files");

    for threads in [2, 8] {
        let par_dir = common::temp_dir(&format!("determinism-journal-par{threads}"));
        finished(
            pipeline::run_parallel_wal(cfg(), opts(), threads, &WalRun::new(&par_dir), &mut tel),
            &format!("journal: {threads} threads"),
        );
        let parallel = journal_bytes(&par_dir);
        let serial_names: Vec<&String> = serial.iter().map(|(n, _)| n).collect();
        let parallel_names: Vec<&String> = parallel.iter().map(|(n, _)| n).collect();
        assert_eq!(serial_names, parallel_names, "{threads} threads: journal file set");
        for ((name, want), (_, got)) in serial.iter().zip(parallel.iter()) {
            assert_eq!(want, got, "{threads} threads: {name} bytes diverged from serial");
        }
        let _ = std::fs::remove_dir_all(&par_dir);
    }
    let _ = std::fs::remove_dir_all(&serial_dir);
}

#[test]
fn wal_live_replay_and_resume_are_bitwise_identical_clean() {
    check_wal_equivalence(21, None, "wal-clean");
}

#[test]
fn wal_live_replay_and_resume_are_bitwise_identical_under_faults() {
    check_wal_equivalence(22, Some(FaultPlan::uniform(0.01, 7)), "wal-faulty");
}

/// The feeder pulls the mux in 256-packet batches, but an interruption
/// point names a packet, not a batch: the run must stop exactly there —
/// on a batch edge or well inside the second batch, with the driver-side
/// injector in between or not — and the log it leaves must resume and
/// replay to the uninterrupted output.
#[test]
fn suspension_inside_and_between_pull_batches_resumes_identically() {
    let cfg = || ScenarioConfig::tiny(1, 26);
    let mut tel = Telemetry::disabled();
    for (cut, faults) in [(256, None), (300, None), (300, Some(FaultPlan::uniform(0.01, 7)))] {
        let opts = || {
            let o = RunOptions::full().with_thresholds(test_thresholds());
            faults.map_or(o, |plan| o.with_faults(plan))
        };
        let label = format!("suspend at {cut}, faults {}", faults.is_some());
        let dir = common::temp_dir(&format!("determinism-batch-{cut}-{}", faults.is_some()));
        let plain = pipeline::run(cfg(), opts());
        let wal = WalRun::new(&dir).suspend_after(cut);
        match pipeline::run_wal(cfg(), opts(), &wal, &mut tel) {
            Ok(WalOutcome::Suspended { delivered, durable_seq }) => {
                assert_eq!(delivered, cut, "{label}: stopped at the point, not the batch");
                // The log holds the meta frame and one frame per delivery.
                assert_eq!(durable_seq, cut + 1, "{label}: nothing journaled past the point");
            }
            Ok(WalOutcome::Completed(_)) => panic!("{label}: ran to completion"),
            Err(e) => panic!("{label}: suspend run failed: {e}"),
        }
        let resumed =
            finished(pipeline::resume_wal(cfg(), opts(), &WalRun::new(&dir), &mut tel), &label);
        assert_equivalent(&plain, &resumed, &format!("{label}: resumed"));
        let replayed = pipeline::replay_wal(cfg(), opts(), &dir, &mut tel)
            .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
        assert_equivalent(&plain, &replayed, &format!("{label}: replayed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An interruption point fires after the delivery that reaches it, so
/// point 0 can never fire: every journaled entry point must refuse it
/// before the writer creates the log, and the shipped binary must exit
/// non-zero.
#[test]
fn interruption_point_zero_is_rejected_before_the_log_exists() {
    let cfg = || ScenarioConfig::tiny(1, 25);
    let mut tel = Telemetry::disabled();
    let dir = common::temp_dir("determinism-point-zero");
    for wal in [WalRun::new(&dir).suspend_after(0), WalRun::new(&dir).crash_after(0)] {
        let outcomes = [
            ("run_wal", pipeline::run_wal(cfg(), RunOptions::darknet_only(), &wal, &mut tel)),
            (
                "run_parallel_wal",
                pipeline::run_parallel_wal(cfg(), RunOptions::darknet_only(), 2, &wal, &mut tel),
            ),
            ("resume_wal", pipeline::resume_wal(cfg(), RunOptions::darknet_only(), &wal, &mut tel)),
        ];
        for (entry, outcome) in outcomes {
            match outcome {
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{entry}: {e}"),
                Ok(_) => panic!("{entry} accepted {wal:?}"),
            }
        }
        let segs = aggressive_scanners::wal::segment_paths(&dir).expect("list segments");
        assert!(segs.is_empty(), "rejected runs left segments {segs:?}");
    }

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_aggressive-scanners"))
        .args(["--days", "1", "--wal-dir"])
        .arg(&dir)
        .args(["--suspend-after", "0"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run aggressive-scanners");
    assert!(!status.success(), "--suspend-after 0 must fail, got {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `output fingerprint:` as printed by the shipped binary run as its own
/// process on `tiny(1 day, seed 42)`.
fn child_fingerprint(threads: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aggressive-scanners"))
        .args(["--days", "1", "--seed", "42", "--threads", threads])
        .stderr(std::process::Stdio::null())
        .output()
        .expect("run aggressive-scanners");
    assert!(out.status.success(), "--threads {threads} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let line = stdout.lines().find_map(|l| l.strip_prefix("output fingerprint: "));
    line.unwrap_or_else(|| panic!("no fingerprint line in:\n{stdout}")).to_string()
}

#[test]
fn output_is_independent_of_the_per_process_hash_key() {
    // `ah_net::hash` keys every private per-packet map once per process,
    // so each child below — and this test process — hashes differently
    // and iterates its maps in a different order. Equal fingerprints
    // across all three say no result depends on either.
    let here = pipeline::run(ScenarioConfig::tiny(1, 42), RunOptions::full()).fingerprint();
    let sharded = child_fingerprint("4");
    assert_eq!(sharded, child_fingerprint("1"), "children at 4 and 1 threads");
    assert_eq!(sharded, format!("{here:016x}"), "child process vs this process");
}
