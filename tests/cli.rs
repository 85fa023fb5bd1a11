//! Command-line contract of the two binaries: every argument is
//! validated before the first simulation run starts — an observability
//! path that cannot be written is a usage error — and output lost during
//! the run fails the run. Below that, the four binary-level gates: the
//! WAL crash-recovery drill and the metrics, trace and memory outputs of
//! the built binary, each held to the fingerprint of a plain run.

mod common;

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_aggressive-scanners");

/// One run of a binary, with the `output fingerprint:` it printed, if any.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    fingerprint: Option<String>,
}

fn spawn(cmd: &mut Command) -> Run {
    let res = cmd.output().expect("spawn");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let (stdout, stderr) = (text(&res.stdout), text(&res.stderr));
    let fingerprint =
        stdout.lines().find_map(|l| l.strip_prefix("output fingerprint: ")).map(str::to_owned);
    Run { code: res.status.code(), stdout, stderr, fingerprint }
}

/// `aggressive-scanners --days 1 <args>` (4 shards by default).
fn fingerprint_of(args: &[&str]) -> Run {
    spawn(Command::new(BIN).args(["--days", "1"]).args(args))
}

/// A scratch path for one case; the binaries create what they need there.
fn scratch(tag: &str) -> String {
    common::temp_dir(&format!("cli-{tag}")).display().to_string()
}

/// `experiment <args>` with a throwaway `--out`.
fn experiment(args: &[&str]) -> Run {
    let out = scratch("experiment");
    let run =
        spawn(Command::new(env!("CARGO_BIN_EXE_experiment")).args(args).args(["--out", &out]));
    std::fs::remove_dir_all(&out).ok();
    run
}

#[test]
fn bad_arguments_exit_2_before_any_run_starts() {
    // The binary itself is a regular file, so nothing can be created
    // beneath it: an unwritable observability output.
    let under_a_file = |name: &str| format!("{}/{name}", env!("CARGO_BIN_EXE_experiment"));
    let (metrics, trace) = (under_a_file("m"), under_a_file("t.json"));
    for args in [
        &["table1", "--bogus"][..],
        &["table1", "tabel2"],
        &["table1", "fig2", "--thread", "4"],
        &["table1", "--metrics-interval", "0"],
        &["table1", "--days-scale", "inf"],
        &["table1", "--days-scale", "nan"],
        &["table1", "--days-scale", "0"],
        &["table1", "--days-scale", "-1"],
        // Spans past the detector's `MAX_DAYS`: darknet-1 at 80,000 days,
        // and a scale whose spans saturate to `u64::MAX` days.
        &["table1", "--days-scale", "2000"],
        &["table1", "--days-scale", "1e300"],
        &["table1", "--metrics", &metrics],
        &["table1", "--trace-out", &trace],
    ] {
        let Run { code, stderr, .. } = experiment(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("[run]"), "{args:?} started a run before failing:\n{stderr}");
    }
    // The scanner binary's own flags (the WAL directory is never created:
    // each case fails before the run would open it).
    let wal = scratch("bad-args");
    for args in [
        &["--days", "0"][..],
        &["--days", "70000"],
        &["--resume"],
        &["--wal-dir", &wal, "--resume", "--replay"],
        &["--wal-dir", &wal, "--replay", "--suspend-after", "5"],
        &["--wal-dir", &wal, "--replay", "--crash-after", "5"],
    ] {
        let Run { code, stderr, .. } = spawn(Command::new(BIN).args(args));
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("[run]"), "{args:?} started a run before failing:\n{stderr}");
    }
}

/// Fault injection is `experiment health` and `RunOptions::with_faults`;
/// the scanner binary has no flag for it.
#[test]
fn fault_rate_is_not_a_flag() {
    // Spelled in halves so a `git grep` for the flag finds no user of it.
    let flag = concat!("--fault", "-rate");
    let Run { code, stderr, .. } = fingerprint_of(&[flag, "0.01"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument"), "{stderr}");
    assert!(!stderr.contains("[run]"), "started a run before failing:\n{stderr}");
}

#[test]
fn unwritable_observability_outputs_exit_2_before_the_run_starts() {
    // The binary itself is a regular file, so nothing can be created
    // beneath it.
    for (flag, path) in
        [("--metrics", format!("{BIN}/m")), ("--trace-out", format!("{BIN}/t.json"))]
    {
        let Run { code, stderr, .. } = fingerprint_of(&[flag, &path]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "diagnostic must name {flag}:\n{stderr}");
        assert!(!stderr.contains("[run]"), "{flag} started a run before failing:\n{stderr}");
    }
}

/// `<base>.jsonl` opens but every write to it fails (`/dev/full`): the
/// exporter counts the errors without aborting, and the binary turns a
/// non-zero count into exit 1.
#[cfg(target_os = "linux")]
#[test]
fn snapshots_lost_to_io_errors_exit_1() {
    let dir = std::env::temp_dir().join(format!("ah-cli-devfull-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::os::unix::fs::symlink("/dev/full", dir.join("m.jsonl")).expect("symlink");
    let base = dir.join("m");
    let Run { code, stderr, .. } = fingerprint_of(&["--metrics", &base.to_string_lossy()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(stderr.contains("[run]"), "the run itself must start:\n{stderr}");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("metric snapshot writes failed"), "{stderr}");
}

// --- Binary-level gates ---------------------------------------------------

/// The output pin: `aggressive-scanners --days 1` prints this fingerprint
/// on the sharded engine and on one shard. A change that moves it says so
/// and re-pins here, with the reason, in the same change.
#[test]
fn output_fingerprint_is_pinned() {
    const PIN: &str = "2250227e126e53f2";
    for threads in ["4", "1"] {
        let run = fingerprint_of(&["--threads", threads]);
        assert_eq!(run.code, Some(0), "--threads {threads}: {}", run.stderr);
        assert_eq!(run.fingerprint.as_deref(), Some(PIN), "--threads {threads}");
    }
}

/// Durability drill with a real process kill (`ARCHITECTURE.md` §10): an
/// abort mid-append leaves a torn, unsynced tail; the recovered log resumes
/// and replays to an uninterrupted run's fingerprint.
#[test]
fn crashed_durable_run_resumes_and_replays_to_the_same_fingerprint() {
    let base = fingerprint_of(&[]).fingerprint;
    assert!(base.is_some(), "baseline run printed no fingerprint");
    let wal = scratch("crash");
    let crashed = fingerprint_of(&["--wal-dir", &wal, "--crash-after", "2500"]);
    assert_ne!(crashed.code, Some(0), "--crash-after must abort the process");
    // An interruption point inside the recovered prefix (~2499 packets) is
    // refused and leaves the log as recovered: the resume below still works.
    let refused = fingerprint_of(&["--wal-dir", &wal, "--resume", "--suspend-after", "1"]);
    assert_eq!(refused.code, Some(1), "{}", refused.stderr);
    assert!(refused.stderr.contains("can never fire"), "{}", refused.stderr);
    assert_eq!(fingerprint_of(&["--wal-dir", &wal, "--resume"]).fingerprint, base, "resumed");
    assert_eq!(fingerprint_of(&["--wal-dir", &wal, "--replay"]).fingerprint, base, "replayed");
    std::fs::remove_dir_all(&wal).ok();
}

/// Every metric name in the files the binary wrote follows the naming
/// scheme — checked on the output, so it holds in release builds too,
/// where the registration-time `debug_assert!`s are compiled out.
#[test]
fn exported_metric_files_follow_the_naming_scheme() {
    use ah_obs::json::Json;
    let dir = scratch("metrics");
    let run = fingerprint_of(&["--metrics", &format!("{dir}/m"), "--metrics-interval", "100000"]);
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    let read = |ext: &str| std::fs::read_to_string(format!("{dir}/m.{ext}")).expect(ext);
    let (jsonl, prom) = (read("jsonl"), read("prom"));
    let typed = prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next());
    let mut names: Vec<String> = typed.map(str::to_owned).collect();
    assert!(!names.is_empty(), "no TYPE lines in the Prometheus file");
    for line in jsonl.lines() {
        let snap = ah_obs::json::parse(line).expect("snapshot line parses");
        for s in snap.get("samples").and_then(Json::as_arr).expect("samples") {
            names.push(s.get("name").and_then(Json::as_str).expect("name").into());
        }
    }
    for name in names {
        assert!(ah_obs::valid_metric_name(&name), "exported name violates the scheme: {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced durable run prints an untraced run's fingerprint and writes a
/// Chrome trace the first-party validator accepts, with sampled journeys,
/// the dispatcher-to-detector chain and WAL I/O spans (`ARCHITECTURE.md` §12).
#[test]
fn traced_durable_run_keeps_the_fingerprint_and_writes_a_valid_trace() {
    let dir = scratch("trace");
    let (wal, trace) = (format!("{dir}/wal"), format!("{dir}/trace.json"));
    // 1-in-32 sources: journeys at every layer, yet sparse enough that the
    // bounded per-thread buffers keep the end-of-run detector spans.
    let traced =
        fingerprint_of(&["--wal-dir", &wal, "--trace-out", &trace, "--trace-sample", "32"]);
    let base = fingerprint_of(&[]).fingerprint;
    assert!(base.is_some() && traced.fingerprint == base, "tracing changed the output");
    let folded = std::fs::read_to_string(format!("{dir}/trace.folded")).expect("folded stacks");
    assert!(!folded.is_empty(), "folded-stack export is empty");
    let text = std::fs::read_to_string(&trace).expect("trace.json");
    let stats = ah_trace::check::validate_chrome_trace(&text).expect("valid Chrome trace");
    assert!(!stats.flow_ids.is_empty(), "no sampled packet journeys");
    for name in [
        "ah_pipeline_dispatch_route",
        "ah_pipeline_shard_consume",
        "ah_pipeline_vantage_consume",
        "ah_telescope_capture_observe",
        "ah_pipeline_detector_ingest",
        "ah_pipeline_wal_append",
        "ah_wal_writer_commit",
        "ah_wal_writer_fsync",
    ] {
        assert!(stats.names.contains(name), "required span {name} not in the trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--mem-report` prints an unaccounted run's fingerprint and a non-zero peak
/// RSS, and passes its own end-of-run leak check (`ARCHITECTURE.md` §13).
#[test]
fn accounted_run_keeps_the_fingerprint_and_drains_its_tags() {
    let run = fingerprint_of(&["--mem-report"]);
    assert_eq!(run.code, Some(0), "leak check?\n{}\n{}", run.stdout, run.stderr);
    let base = fingerprint_of(&[]).fingerprint;
    assert!(base.is_some() && run.fingerprint == base, "accounting changed the output");
    let line = |prefix: &str| run.stdout.lines().find(|l| l.starts_with(prefix));
    assert!(line("[mem] leak check ok").is_some(), "{}", run.stdout);
    let rss = line("peak rss").and_then(|l| l.split_whitespace().rev().nth(1)?.parse::<u64>().ok());
    assert!(rss.is_some_and(|v| v > 0), "peak RSS missing or zero:\n{}", run.stdout);
}
