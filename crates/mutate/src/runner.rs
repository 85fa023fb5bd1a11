//! The mutant runner: scratch copy, apply → build/test → restore, and
//! outcome classification.
//!
//! Mutants never touch the real tree. A scratch copy of the workspace
//! (default `out/mutate-scratch/`, its `target/` preserved across runs
//! so cargo stays incremental) receives one mutant at a time; the
//! runner drives the mutant's cargo steps with a per-mutant wall-clock
//! timeout, then restores the file byte-for-byte. Classification:
//!
//! * **caught** — some step's tests failed (the suite noticed);
//! * **survived** — every step passed (a blind spot);
//! * **build-broken** — the mutant does not compile (token-level
//!   operator heuristics misfired; excluded from scoring);
//! * **timeout** — the wall-clock budget elapsed (e.g. a comparison
//!   swap turning a loop infinite; counts as caught-by-hang in the
//!   survivor table but is reported distinctly).
//!
//! Processes are spawned through `setsid` when available so a timed-out
//! `cargo test` and its children die as a process group — a plain
//! `child.kill()` would orphan the running test binary on the only CPU.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::ops::Mutant;

/// Classification of one mutant run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Tests failed: the suite caught the mutant.
    Caught,
    /// Every step passed: the suite is blind to this mutant.
    Survived,
    /// The per-mutant wall-clock budget elapsed.
    Timeout,
    /// The mutant failed to compile; excluded from scoring.
    BuildBroken,
}

impl Outcome {
    /// Canonical lowercase name (used in the JSON report).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Caught => "caught",
            Outcome::Survived => "survived",
            Outcome::Timeout => "timeout",
            Outcome::BuildBroken => "build-broken",
        }
    }
}

/// One classified run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The classification.
    pub outcome: Outcome,
    /// Failing step and output tail, or a note that all steps passed.
    pub detail: String,
    /// Wall-clock seconds spent on this mutant.
    pub secs: f64,
}

/// Test scope for sweep mutants (sentinels carry explicit steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The mutated crate's own tests only.
    Crate,
    /// Crate tests plus the root package's integration suites.
    Package,
    /// Everything: crate, root, then the full workspace (minus
    /// `ah-mutate` itself — recursing into nested mutation runs from a
    /// mutation run would be absurd).
    Workspace,
}

impl Scope {
    /// Parse a `--scope` value.
    pub fn parse(s: &str) -> Option<Scope> {
        match s {
            "crate" => Some(Scope::Crate),
            "package" => Some(Scope::Package),
            "workspace" => Some(Scope::Workspace),
            _ => None,
        }
    }
}

/// The cargo step plan for a sweep mutant in `pkg` at `scope`. Steps
/// run in order and stop at the first failure; cheap, targeted steps
/// first so most mutants classify without touching the heavy suites.
pub fn default_steps(pkg: &str, scope: Scope) -> Vec<Vec<String>> {
    let s = |parts: &[&str]| parts.iter().map(|p| p.to_string()).collect::<Vec<_>>();
    let mut steps = vec![s(&["build", "-q", "-p", pkg]), s(&["test", "-q", "-p", pkg])];
    if scope != Scope::Crate && pkg != "aggressive-scanners" {
        steps.push(s(&["test", "-q", "-p", "aggressive-scanners"]));
    }
    if scope == Scope::Workspace {
        steps.push(s(&["test", "-q", "--workspace", "--exclude", "ah-mutate"]));
    }
    steps
}

/// A scratch copy of the workspace that mutants are applied to.
pub struct Scratch {
    /// Root of the scratch tree.
    pub dir: PathBuf,
}

impl Scratch {
    /// Create or refresh the scratch copy of `root` at `dir`:
    /// everything except `.git`, `target/` and `out/` is copied anew
    /// (stale files removed); the scratch `target/` survives so cargo
    /// rebuilds stay incremental across runs.
    pub fn prepare(root: &Path, dir: &Path) -> io::Result<Scratch> {
        fs::create_dir_all(dir)?;
        let dir_canon = dir.canonicalize()?;
        for entry in fs::read_dir(&dir_canon)? {
            let path = entry?.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                fs::remove_dir_all(&path)?;
            } else {
                fs::remove_file(&path)?;
            }
        }
        copy_tree(root, &dir_canon, &dir_canon)?;
        Ok(Scratch { dir: dir_canon })
    }

    /// Apply `mutant`, run `steps` under `timeout`, restore, classify.
    pub fn run_mutant(
        &self,
        mutant: &Mutant,
        steps: &[Vec<String>],
        timeout: Duration,
    ) -> io::Result<RunResult> {
        let path = self.dir.join(&mutant.file);
        let original = fs::read_to_string(&path)?;
        if original.get(mutant.start..mutant.end) != Some(mutant.original.as_str()) {
            return Err(io::Error::other(format!(
                "{}: scratch copy out of sync at byte {} (expected `{}`)",
                mutant.file, mutant.start, mutant.original
            )));
        }
        fs::write(&path, mutant.apply(&original))?;
        let started = Instant::now();
        let drive = self.drive(steps, timeout, started);
        // Restore before surfacing any error: the scratch tree must be
        // pristine for the next mutant no matter what happened.
        let restore = fs::write(&path, &original);
        let mut result = drive?;
        restore?;
        result.secs = started.elapsed().as_secs_f64();
        Ok(result)
    }

    fn drive(
        &self,
        steps: &[Vec<String>],
        timeout: Duration,
        started: Instant,
    ) -> io::Result<RunResult> {
        for step in steps {
            let label = format!("cargo {}", step.join(" "));
            let Some(remaining) = timeout.checked_sub(started.elapsed()) else {
                return Ok(RunResult {
                    outcome: Outcome::Timeout,
                    detail: format!("budget elapsed before `{label}`"),
                    secs: 0.0,
                });
            };
            let (timed_out, success, output) = run_cargo(&self.dir, step, remaining)?;
            if timed_out {
                return Ok(RunResult {
                    outcome: Outcome::Timeout,
                    detail: format!("`{label}` exceeded the per-mutant timeout"),
                    secs: 0.0,
                });
            }
            if !success {
                let compile_error = output.contains("error[E")
                    || output.contains("could not compile")
                    || output.contains("error: expected");
                let outcome = if compile_error { Outcome::BuildBroken } else { Outcome::Caught };
                return Ok(RunResult {
                    outcome,
                    detail: format!("`{label}` failed: {}", tail(&output, 400)),
                    secs: 0.0,
                });
            }
        }
        Ok(RunResult { outcome: Outcome::Survived, detail: "all steps passed".into(), secs: 0.0 })
    }
}

/// Last `n` characters of `s`, newlines flattened.
pub fn tail(s: &str, n: usize) -> String {
    let cut = s.char_indices().rev().nth(n.saturating_sub(1)).map_or(0, |(i, _)| i);
    s[cut..].replace('\n', " ⏎ ")
}

fn copy_tree(from: &Path, to: &Path, skip: &Path) -> io::Result<()> {
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if name == ".git" || name == "target" || name == "out" {
            continue;
        }
        // Never recurse into the scratch tree itself (a custom scratch
        // dir could sit inside the workspace).
        if path.canonicalize().map(|c| c == skip).unwrap_or(false) {
            continue;
        }
        let dest = to.join(&name);
        if path.is_dir() {
            fs::create_dir_all(&dest)?;
            copy_tree(&path, &dest, skip)?;
        } else {
            fs::copy(&path, &dest)?;
        }
    }
    Ok(())
}

fn setsid_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        Command::new("setsid")
            .arg("true")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    })
}

fn kill_group(pid: u32) {
    // `setsid` made the child a session leader, so its pid names the
    // process group; a plain kill would orphan cargo's test children.
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pid}")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Run `cargo <args>` in `cwd` with a wall-clock timeout. Returns
/// (timed out, succeeded, combined output).
fn run_cargo(cwd: &Path, args: &[String], timeout: Duration) -> io::Result<(bool, bool, String)> {
    let use_setsid = setsid_available();
    let mut cmd = if use_setsid {
        let mut c = Command::new("setsid");
        c.arg("cargo");
        c
    } else {
        Command::new("cargo")
    };
    cmd.args(args)
        .current_dir(cwd)
        .env("CARGO_TERM_COLOR", "never")
        .env_remove("CARGO_TARGET_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            if let Some(mut p) = pipe {
                let _ = p.read_to_end(&mut buf);
            }
            buf
        })
    };
    let t_out = drain(child.stdout.take().map(|p| Box::new(p) as Box<dyn Read + Send>));
    let t_err = drain(child.stderr.take().map(|p| Box::new(p) as Box<dyn Read + Send>));
    let start = Instant::now();
    let mut timed_out = false;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break Some(status);
        }
        if start.elapsed() >= timeout {
            timed_out = true;
            if use_setsid {
                kill_group(child.id());
            }
            let _ = child.kill();
            break child.wait().ok();
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut output = String::from_utf8_lossy(&t_out.join().unwrap_or_default()).into_owned();
    output.push_str(&String::from_utf8_lossy(&t_err.join().unwrap_or_default()));
    let success = status.is_some_and(|s| s.success());
    Ok((timed_out, success, output))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_plans_scale_with_scope() {
        assert_eq!(default_steps("ah-wal", Scope::Crate).len(), 2);
        assert_eq!(default_steps("ah-wal", Scope::Package).len(), 3);
        assert_eq!(default_steps("aggressive-scanners", Scope::Package).len(), 2);
        let ws = default_steps("ah-wal", Scope::Workspace);
        assert_eq!(ws.len(), 4);
        assert!(ws[3].contains(&"--exclude".to_string()));
    }

    #[test]
    fn tail_truncates_from_the_back() {
        assert_eq!(tail("abcdef", 3), "def");
        assert_eq!(tail("ab", 5), "ab");
        assert_eq!(tail("a\nb", 5), "a ⏎ b");
    }
}
