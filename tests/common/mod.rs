//! Shared scaffolding for the observation-only suites (`tests/telemetry.rs`,
//! `tests/trace.rs`, `tests/memory.rs`; `tests/cli.rs` borrows [`temp_dir`]).
//!
//! All three hold the same contract from a different instrument: turning
//! the instrument on must leave [`RunOutput::fingerprint`] bitwise
//! identical. [`assert_observation_only`] walks the one matrix they
//! share — {1, 8 threads} × {clean, faulted} × {in-memory, journaled,
//! replayed} — so a new execution path is added here once, not per suite.
#![allow(dead_code)] // each suite uses its own subset of the helpers

use aggressive_scanners::pipeline::{self, RunOptions, RunOutput, Telemetry, WalRun};
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

/// In-memory run: the inline executor at `threads <= 1`, else `threads`
/// shards.
pub fn run_with(tel: &mut Telemetry, threads: usize, faulted: bool) -> RunOutput {
    if threads <= 1 {
        pipeline::run_with_recorder(scenario(), opts(faulted), tel)
    } else {
        pipeline::run_parallel_with_recorder(scenario(), opts(faulted), threads, tel)
    }
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
    /// `run_with_recorder` / `run_parallel_with_recorder`.
    InMemory,
    /// `run_wal` / `run_parallel_wal` into a fresh log.
    Journaled,
    /// `replay_wal` over the log the journaled cell just sealed.
    Replayed,
}

/// One cell of the matrix, handed to a suite's `inspect` hook.
pub struct Cell<'a> {
    pub threads: usize,
    pub faulted: bool,
    pub path: Path,
    /// The same inputs run in memory under `Telemetry::disabled()`.
    pub baseline: &'a RunOutput,
}

/// For every cell of {1, 8 threads} × {clean, faulted} × {in-memory,
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
    for threads in [1, 8] {
        for faulted in [false, true] {
            let baseline = run_with(&mut Telemetry::disabled(), threads, faulted);
            let dir = temp_dir(&format!("{tag}-t{threads}-f{faulted}"));
            for path in [Path::InMemory, Path::Journaled, Path::Replayed] {
                let mut tel = make_tel();
                let wal = WalRun::new(&dir);
                let observed = match path {
                    Path::InMemory => run_with(&mut tel, threads, faulted),
                    Path::Journaled if threads <= 1 => {
                        *pipeline::run_wal(scenario(), opts(faulted), &wal, &mut tel)
                            .expect("durable run")
                            .completed()
                            .expect("run completed")
                    }
                    Path::Journaled => *pipeline::run_parallel_wal(
                        scenario(),
                        opts(faulted),
                        threads,
                        &wal,
                        &mut tel,
                    )
                    .expect("parallel durable run")
                    .completed()
                    .expect("run completed"),
                    Path::Replayed => {
                        *pipeline::replay_wal(scenario(), opts(faulted), &dir, &mut tel)
                            .expect("replay")
                    }
                };
                assert_eq!(
                    baseline.fingerprint(),
                    observed.fingerprint(),
                    "observation changed the output at threads={threads} faulted={faulted} path={path:?}"
                );
                inspect(&Cell { threads, faulted, path, baseline: &baseline }, &mut tel, &observed);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
