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
use ah_net::packet::PacketMeta;
use ah_obs::{Recorder, Value};
use ah_simnet::faults::FaultPlan;
use ah_simnet::scenario::{Scenario, ScenarioConfig};
use ah_wal::{WalRecord, WalWriter, WalWriterConfig};
use std::path::Path;

/// Looser tail cuts so tiny scenarios yield non-trivial hitter lists.
fn test_thresholds() -> Thresholds {
    Thresholds { dispersion_fraction: 0.10, volume_alpha: 0.01, ports_alpha: 0.01 }
}

fn assert_equivalent(a: &RunOutput, b: &RunOutput, label: &str) {
    assert_eq!(a.generated_packets, b.generated_packets, "{label}: generated packets");
    assert_eq!(a.capture.total_packets, b.capture.total_packets, "{label}: capture totals");
    assert_eq!(a.capture.unique_sources, b.capture.unique_sources, "{label}: unique sources");
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
// generated packet, a replay of that log, and a run suspended mid-stream
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

/// The engine journals what the feeder produced, in mux order, before
/// any fault and before packets fan out to shards — so the log a parallel
/// run writes is not merely equivalent to the serial one, it is the same
/// bytes, faults or no faults. This is what makes a log resumable and
/// replayable at any thread count: the WAL never records how many shards
/// produced it. Compare every file in the log directory, byte for byte.
#[test]
fn parallel_wal_journal_is_byte_identical_to_serial() {
    let mut tel = Telemetry::disabled();
    for (days, plan) in [(2, FaultPlan::uniform(0.01, 7)), (1, FaultPlan::uniform(0.05, 9))] {
        let opts = || RunOptions::full().with_thresholds(test_thresholds()).with_faults(plan);
        let cfg = || ScenarioConfig::tiny(days, 24);

        let serial_dir = common::temp_dir("determinism-journal-serial");
        finished(
            pipeline::run_wal(cfg(), opts(), &WalRun::new(&serial_dir), &mut tel),
            "journal: serial",
        );
        let serial = journal_bytes(&serial_dir);
        assert!(!serial.is_empty(), "serial run wrote no journal files");

        for threads in [1, 2, 8] {
            let par_dir = common::temp_dir(&format!("determinism-journal-par{threads}"));
            let wal = WalRun::new(&par_dir);
            finished(
                pipeline::run_parallel_wal(cfg(), opts(), threads, &wal, &mut tel),
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
}

/// The log *is* the generated stream: read a faulted sharded run's log
/// back and hold it, packet for packet, to a fresh mux of the same
/// scenario. The seal counts exactly those packets.
#[test]
fn faulted_runs_log_is_the_mux_stream_packet_for_packet() {
    let cfg = || ScenarioConfig::tiny(1, 28);
    let opts = RunOptions::full().with_faults(FaultPlan::uniform(0.05, 9));
    let dir = common::temp_dir("determinism-log-is-input");
    let wal = WalRun::new(&dir);
    let out = finished(
        pipeline::run_parallel_wal(cfg(), opts, 2, &wal, &mut Telemetry::disabled()),
        "log is input",
    );
    let inj = out.health.stage("faults.injector").expect("injector stage present");
    assert!(inj.discarded_total() > 0, "the plan must have cost the run packets");

    let mut mux = Scenario::build(cfg()).mux;
    let mut packet_frames = 0u64;
    let log = ah_wal::recover(&dir, &Recorder::noop(), |seq, _, record| {
        if let WalRecord::Packet(p) = record {
            assert_eq!(Some(p), mux.next_packet(), "frame {seq} is not the mux's next packet");
            packet_frames += 1;
        }
    })
    .expect("recover the sealed log");
    assert_eq!(mux.next_packet(), None, "the mux holds packets the log does not");
    let seal = log.seal.expect("a completed run seals its log");
    assert_eq!(seal.generated, packet_frames, "seal count vs packet frames");
    assert_eq!(seal.generated, out.generated_packets, "seal count vs the run's own total");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Every refusal of the durable path -------------------------------------

/// The message of the `InvalidData` refusal a durable run must end in.
fn refusal<T>(outcome: std::io::Result<T>, label: &str) -> String {
    match outcome {
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => e.to_string(),
        Err(e) => panic!("{label}: refused with {:?}, not InvalidData: {e}", e.kind()),
        Ok(_) => panic!("{label}: accepted"),
    }
}

/// Sum of the counter `name` over every label set on `rec`.
fn counter(rec: &Recorder, name: &str) -> u64 {
    let value = |v: &Value| if let Value::Counter(n) = v { *n } else { 0 };
    rec.snapshot().samples.iter().filter(|s| s.name == name).map(|s| value(&s.value)).sum()
}

/// A one-day faulted scenario's log: sealed, or suspended at packet 5000.
fn refusal_log(tag: &str, sealed: bool) -> PathBuf {
    let dir = common::temp_dir(&format!("determinism-refusal-{tag}"));
    let wal = if sealed { WalRun::new(&dir) } else { WalRun::new(&dir).suspend_after(5_000) };
    let outcome =
        pipeline::run_wal(refusal_cfg(), refusal_opts(), &wal, &mut Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{tag}: durable run failed: {e}"));
    assert_eq!(outcome.completed().is_some(), sealed, "{tag}: run ended the wrong way");
    dir
}

fn refusal_cfg() -> ScenarioConfig {
    ScenarioConfig::tiny(1, 27)
}

fn refusal_opts() -> RunOptions {
    RunOptions::darknet_only().with_faults(FaultPlan::uniform(0.01, 7))
}

/// Copy the log in `src` to `dst` through the writer's public surface,
/// passing packet number `n` (0-based) through `edit`; `None` drops it.
/// Meta and seal frames are copied as they are.
fn rewrite_log(src: &Path, dst: &Path, edit: impl Fn(u64, PacketMeta) -> Option<PacketMeta>) {
    let rec = Recorder::noop();
    let mut w = WalWriter::create(dst, WalWriterConfig::default(), &rec).expect("create copy");
    let mut n = 0u64;
    ah_wal::recover(src, &rec, |_, _, record| {
        let record = match record {
            WalRecord::Packet(p) => {
                n += 1;
                edit(n - 1, p).map(WalRecord::Packet)
            }
            other => Some(other),
        };
        if let Some(record) = record {
            w.append(&record).expect("append to copy");
        }
    })
    .expect("read the original");
    w.commit().expect("commit copy");
}

/// A log is checked against the run before it is fed: another seed,
/// option, fault plan, world or intensity is `InvalidData` on replay and
/// on resume, without one packet reaching the executor and without
/// touching the log.
#[test]
fn log_of_another_run_is_refused_before_a_packet_is_fed() {
    let sealed = refusal_log("meta-sealed", true);
    let suspended = refusal_log("meta-suspended", false);
    let mut other_world = refusal_cfg();
    other_world.world.dark = "20.0.4.0/22".parse().expect("dark prefix");
    let mut other_intensity = refusal_cfg();
    other_intensity.intensity.benign_merit_pps *= 2.0;
    let others: [(&str, ScenarioConfig, RunOptions); 6] = [
        ("seed", ScenarioConfig::tiny(1, 28), refusal_opts()),
        ("option", refusal_cfg(), RunOptions { sampling_rate: 50, ..refusal_opts() }),
        ("fault plan", refusal_cfg(), refusal_opts().with_faults(FaultPlan::uniform(0.01, 8))),
        ("no fault plan", refusal_cfg(), RunOptions::darknet_only()),
        ("world", other_world, refusal_opts()),
        ("intensity", other_intensity, refusal_opts()),
    ];
    for (what, cfg, opts) in others {
        for (dir, resume) in [(&sealed, false), (&sealed, true), (&suspended, true)] {
            let label = format!("other {what}, resume {resume}, {}", dir.display());
            let before = journal_bytes(dir);
            let rec = Recorder::new();
            let mut tel = Telemetry::new(rec.clone());
            let msg = if resume {
                refusal(
                    pipeline::resume_wal(cfg.clone(), opts, &WalRun::new(dir), &mut tel),
                    &label,
                )
            } else {
                refusal(pipeline::replay_wal(cfg.clone(), opts, dir, &mut tel), &label)
            };
            assert!(msg.contains("different scenario/options"), "{label}: {msg}");
            for name in ["ah_wal_replay_packets_total", "ah_core_health_received_total"] {
                assert_eq!(counter(&rec, name), 0, "{label}: {name} moved before the refusal");
            }
            assert_eq!(journal_bytes(dir), before, "{label}: the refused log was modified");
        }
    }
    // The same logs under their own run are accepted (the refusals above
    // are not a blanket "no").
    let mut tel = Telemetry::disabled();
    let replayed = pipeline::replay_wal(refusal_cfg(), refusal_opts(), &sealed, &mut tel);
    let resumed =
        pipeline::resume_wal(refusal_cfg(), refusal_opts(), &WalRun::new(&suspended), &mut tel);
    assert_eq!(
        replayed.expect("replay own log").fingerprint(),
        finished(resumed, "resume own log").fingerprint()
    );
    let _ = std::fs::remove_dir_all(&sealed);
    let _ = std::fs::remove_dir_all(&suspended);
}

/// Replay needs a sealed log, and says which of the two ways it lacks one.
#[test]
fn replay_refuses_an_unsealed_log_and_names_a_missing_one() {
    let mut tel = Telemetry::disabled();
    let suspended = refusal_log("unsealed", false);
    let msg = refusal(
        pipeline::replay_wal(refusal_cfg(), refusal_opts(), &suspended, &mut tel),
        "replay of an unsealed log",
    );
    assert!(msg.contains("not sealed") && msg.contains("resume_wal"), "{msg}");

    let missing = common::temp_dir("determinism-refusal-missing");
    for create in [false, true] {
        if create {
            std::fs::create_dir_all(&missing).expect("create empty dir");
        }
        let msg = refusal(
            pipeline::replay_wal(refusal_cfg(), refusal_opts(), &missing, &mut tel),
            "replay of no log",
        );
        assert!(msg.contains("there is no WAL"), "dir exists {create}: {msg}");
        assert!(msg.contains(&missing.display().to_string()), "dir not named: {msg}");
    }
    let _ = std::fs::remove_dir_all(&suspended);
    let _ = std::fs::remove_dir_all(&missing);
}

/// Frames that pass every CRC can still not be the run's stream: resume
/// proves the prefix by hash at the crossing, replay holds the seal's
/// count and hash to what the log contained.
#[test]
fn rewritten_logs_are_refused_by_prefix_hash_seal_count_and_seal_hash() {
    let mut tel = Telemetry::disabled();
    let alter = |n: u64, mut p: PacketMeta| {
        if n == 1_234 {
            p.ip_id ^= 1;
        }
        Some(p)
    };
    let drop_one = |n: u64, p: PacketMeta| (n != 1_234).then_some(p);
    let copy = common::temp_dir("determinism-refusal-copy");

    let suspended = refusal_log("tamper-suspended", false);
    rewrite_log(&suspended, &copy, alter);
    let msg = refusal(
        pipeline::resume_wal(refusal_cfg(), refusal_opts(), &WalRun::new(&copy), &mut tel),
        "resume of an altered prefix",
    );
    assert!(msg.contains("diverges from the deterministic packet stream"), "{msg}");
    let _ = std::fs::remove_dir_all(&copy);

    let sealed = refusal_log("tamper-sealed", true);
    rewrite_log(&sealed, &copy, drop_one);
    let msg = refusal(
        pipeline::replay_wal(refusal_cfg(), refusal_opts(), &copy, &mut tel),
        "replay with a packet dropped",
    );
    assert!(msg.contains("seal records") && msg.contains("but the log holds"), "{msg}");
    let _ = std::fs::remove_dir_all(&copy);

    rewrite_log(&sealed, &copy, alter);
    let msg = refusal(
        pipeline::replay_wal(refusal_cfg(), refusal_opts(), &copy, &mut tel),
        "replay with a packet altered",
    );
    assert!(msg.contains("hash does not match"), "{msg}");

    // An unedited copy is the original: the rewrite itself is not what
    // the three refusals above caught.
    let _ = std::fs::remove_dir_all(&copy);
    rewrite_log(&sealed, &copy, |_, p| Some(p));
    let original = pipeline::replay_wal(refusal_cfg(), refusal_opts(), &sealed, &mut tel);
    let rewritten = pipeline::replay_wal(refusal_cfg(), refusal_opts(), &copy, &mut tel);
    assert_eq!(
        original.expect("replay original").fingerprint(),
        rewritten.expect("replay identity rewrite").fingerprint()
    );
    for dir in [&copy, &sealed, &suspended] {
        let _ = std::fs::remove_dir_all(dir);
    }
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
/// on a batch edge or well inside the second batch, faulted or not — and
/// the log it leaves must resume and
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
                // The log holds the meta frame and one frame per fed packet.
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

/// An interruption point fires after the packet that reaches it, so
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
