//! Shared scaffolding for the observation-only suites (`tests/telemetry.rs`,
//! `tests/trace.rs`, `tests/memory.rs`; `tests/cli.rs` borrows [`temp_dir`]).
//!
//! All three hold the same contract from a different instrument: turning
//! the instrument on must leave [`RunOutput::fingerprint`] bitwise
//! identical. [`assert_observation_only`] walks the one matrix they
//! share — {inline, 8 shards} × {clean, faulted} × {in-memory, journaled,
//! replayed} — so a new execution path is added here once, not per suite.
#![allow(dead_code)] // each suite uses its own subset of the helpers

use aggressive_scanners::pipeline::{self, Log, RunOptions, RunOutput, Telemetry, WalRun};
use aggressive_scanners::simnet::faults::FaultPlan;
use aggressive_scanners::simnet::scenario::ScenarioConfig;
use std::path::PathBuf;

/// Seed of the shared scenario, fault plan and journey sampler.
pub const SEED: u64 = 33;

pub fn scenario() -> ScenarioConfig {
    ScenarioConfig::tiny(1, SEED)
}

pub fn opts(faulted: bool) -> RunOptions {
    let o = RunOptions::full();
    if faulted {
        o.with_faults(FaultPlan::uniform(0.01, SEED))
    } else {
        o
    }
}

/// In-memory run of the shared scenario on the executor `threads` picks
/// (`None` = the inline unit).
pub fn run_with(tel: &mut Telemetry, threads: Option<usize>, faulted: bool) -> RunOutput {
    pipeline::run_with(scenario(), opts(faulted), threads, tel)
}

/// A durable run of the shared scenario that must run to completion.
pub fn run_logged(
    tel: &mut Telemetry,
    threads: Option<usize>,
    faulted: bool,
    log: Log<'_>,
) -> RunOutput {
    *pipeline::run_with_log(scenario(), opts(faulted), threads, log, tel)
        .unwrap_or_else(|e| panic!("{log:?}: durable run failed: {e}"))
        .completed()
        .unwrap_or_else(|| panic!("{log:?}: run suspended"))
}

/// A fresh, collision-free scratch directory path for one test case
/// (removed if a previous run left it behind; not created).
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ah-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// How a cell of the matrix executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `pipeline::run_with`.
    InMemory,
    /// `pipeline::run_with_log` into a fresh log.
    Journaled,
    /// `pipeline::run_with_log` replaying the log the journaled cell just
    /// sealed, on the same executor.
    Replayed,
}

/// One cell of the matrix, handed to a suite's `inspect` hook.
pub struct Cell<'a> {
    pub threads: Option<usize>,
    pub faulted: bool,
    pub path: Path,
    /// The same inputs run in memory under `Telemetry::disabled()`.
    pub baseline: &'a RunOutput,
}

/// For every cell of {inline, 8 shards} × {clean, faulted} × {in-memory,
/// journaled, replayed}: run once unobserved, once under `make_tel()`,
/// require equal fingerprints, then let `inspect` check what the
/// instrument recorded. `make_tel` runs immediately before each observed
/// run and `inspect` immediately after it, so a suite with process-global
/// state (memory accounting) can bracket exactly the observed runs.
pub fn assert_observation_only(
    tag: &str,
    mut make_tel: impl FnMut() -> Telemetry,
    mut inspect: impl FnMut(&Cell<'_>, &mut Telemetry, &RunOutput),
) {
    for threads in [None, Some(8)] {
        for faulted in [false, true] {
            let baseline = run_with(&mut Telemetry::disabled(), threads, faulted);
            let dir = temp_dir(&format!("{tag}-t{}-f{faulted}", threads.unwrap_or(0)));
            for path in [Path::InMemory, Path::Journaled, Path::Replayed] {
                let mut tel = make_tel();
                let wal = WalRun::new(&dir);
                let observed = match path {
                    Path::InMemory => run_with(&mut tel, threads, faulted),
                    Path::Journaled => run_logged(&mut tel, threads, faulted, Log::Fresh(&wal)),
                    Path::Replayed => run_logged(&mut tel, threads, faulted, Log::Replay(&dir)),
                };
                assert_eq!(
                    baseline.fingerprint(),
                    observed.fingerprint(),
                    "observation changed the output at threads={threads:?} faulted={faulted} path={path:?}"
                );
                inspect(&Cell { threads, faulted, path, baseline: &baseline }, &mut tel, &observed);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
