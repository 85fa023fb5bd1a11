//! Command-line contract of the `experiment` binary: every argument is
//! validated before the first simulation run starts.

use std::process::Command;

/// Run `experiment` with `args` and a throwaway `--out`, returning the
/// exit code and stderr.
fn experiment(args: &[&str]) -> (Option<i32>, String) {
    let out = std::env::temp_dir().join(format!("ah-bench-cli-{}", std::process::id()));
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
