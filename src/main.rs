//! Turnkey pipeline run with live telemetry — the smallest way to watch
//! the measurement pipeline from the outside.
//!
//! ```text
//! aggressive-scanners [--metrics PATH] [--metrics-interval N]
//!                     [--threads N] [--days N] [--seed N]
//!                     [--wal-dir DIR] [--resume] [--replay]
//!                     [--suspend-after N] [--crash-after N]
//!                     [--trace-out PATH] [--trace-sample N]
//!                     [--mem-report]
//! ```
//!
//! Runs one full-vantage scenario (telescope + both ISPs + honeypots) and
//! prints the health ledger. `--threads N` picks the executor for every
//! run, replays and resumes included: 0 or 1 is the inline unit, 2 to
//! 256 that many shards (default 4); the output is bitwise identical on
//! either. With `--metrics PATH`
//! every stage records instruments on a shared recorder and periodic
//! snapshots are written to `PATH.jsonl` (one JSON object per line) and
//! `PATH.prom` (Prometheus text exposition, latest snapshot). Telemetry
//! is observation-only: the run's output fingerprint is identical with
//! metrics on or off (see `tests/telemetry.rs`).
//!
//! With `--wal-dir DIR` the run becomes durable: every generated packet
//! is appended to a write-ahead log in `DIR` before the executor sees it.
//! `--resume` continues an interrupted durable run from its
//! recovered prefix; `--replay` re-runs detection over a sealed log
//! without re-simulating. `--suspend-after N` stops cleanly after `N`
//! packets fed (exit code 0, log left resumable); `--crash-after N`
//! aborts the process with a deliberately torn tail — the crash-recovery
//! gate (`tests/cli.rs`) uses it to prove that an interrupted run,
//! resumed, prints the same output fingerprint as an uninterrupted one.
//!
//! With `--trace-out PATH` every stage also emits structured spans into
//! per-thread [`ah_trace`] tracks; on exit the run writes a Chrome
//! trace-event JSON at `PATH` (load it in Perfetto / `chrome://tracing`)
//! and a folded-stack file at `PATH` with extension `.folded`
//! (flamegraph input). `--trace-sample N` follows roughly 1-in-`N`
//! source IPs end to end as causal packet journeys (default 64; seeded
//! by `--seed`). Tracing, like metrics, is observation-only — the
//! fingerprint is identical with it on or off (see `tests/trace.rs`).
//!
//! With `--mem-report` the tagged allocator (see `ah-mem`) starts
//! accounting every allocation to the subsystem that made it; on exit
//! the run prints a per-tag live/peak/cumulative table plus the
//! process peak RSS, then verifies that every run-scoped tag drained
//! back to ~zero live bytes (a leak fails the process with exit 1).
//! With metrics also on, the `ah_mem_*` gauges refresh at the export
//! interval (`--metrics-interval`).
//! Accounting, like metrics and tracing, is observation-only — the
//! fingerprint is identical with it on or off (see `tests/memory.rs`).
//!
//! For the paper's tables and figures use the `experiment` binary
//! (`src/bin/experiment.rs`), which takes the same observability flags
//! (both parse them through `aggressive_scanners::cli`).

use aggressive_scanners::cli::{parse_flag, parse_threads, usage_error, ObsFlags, OBS_USAGE};
use aggressive_scanners::pipeline::{self, Log, RunOptions, RunOutput, WalOutcome, WalRun};
use aggressive_scanners::simnet::scenario::ScenarioConfig;
use aggressive_scanners::telescope::event::MAX_DAYS;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = ObsFlags::new(10_000);
    let mut threads = Some(4);
    let mut days = 3u64;
    let mut seed = 7u64;
    let mut wal_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut replay = false;
    let mut suspend_after: Option<u64> = None;
    let mut crash_after: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = parse_threads(&args, i);
            }
            "--days" => {
                i += 1;
                days = parse_flag(&args, i, "--days", "integer");
            }
            "--seed" => {
                i += 1;
                seed = parse_flag(&args, i, "--seed", "integer");
            }
            "--wal-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    usage_error("--wal-dir requires a directory".into());
                };
                wal_dir = Some(PathBuf::from(dir));
            }
            "--resume" => resume = true,
            "--replay" => replay = true,
            "--suspend-after" => {
                i += 1;
                suspend_after = Some(parse_flag(&args, i, "--suspend-after", "integer"));
            }
            "--crash-after" => {
                i += 1;
                crash_after = Some(parse_flag(&args, i, "--crash-after", "integer"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: aggressive-scanners [--threads N (0/1 inline, up to 256 shards)] [--days N] [--seed N] [--wal-dir DIR] [--resume] [--replay] [--suspend-after N] [--crash-after N] {OBS_USAGE}"
                );
                return;
            }
            _ if obs.accept(&args, &mut i).unwrap_or_else(|e| usage_error(e)) => {}
            other => usage_error(format!("unknown argument {other:?} (try --help)")),
        }
        i += 1;
    }
    if days == 0 {
        usage_error("--days must be at least 1".into());
    }
    if days > MAX_DAYS {
        usage_error(format!(
            "--days {days} exceeds the {MAX_DAYS} days the detector can represent"
        ));
    }
    if (resume || replay || suspend_after.is_some() || crash_after.is_some()) && wal_dir.is_none() {
        usage_error("--resume/--replay/--suspend-after/--crash-after need --wal-dir".into());
    }
    if resume && replay {
        usage_error("--resume and --replay are mutually exclusive".into());
    }
    if replay && (suspend_after.is_some() || crash_after.is_some()) {
        usage_error("--replay takes no --suspend-after or --crash-after".into());
    }

    let mut tel = obs.telemetry(seed);

    let opts = RunOptions::full();
    let cfg = ScenarioConfig::tiny(days, seed);
    let t0 = std::time::Instant::now();
    let on = match threads {
        None => "inline".to_string(),
        Some(n) => format!("{n} shards"),
    };
    let out: RunOutput = match wal_dir {
        None => {
            eprintln!("[run] tiny world, {days} days, seed {seed}, {on}...");
            pipeline::run_with(cfg, opts, threads, &mut tel)
        }
        Some(dir) => {
            let mut wal = WalRun::new(dir.clone());
            wal.suspend_after = suspend_after;
            wal.crash_after = crash_after;
            let log = if replay {
                eprintln!("[run] replaying sealed WAL {}, {on}...", dir.display());
                Log::Replay(&dir)
            } else if resume {
                eprintln!("[run] resuming durable run from {}, {on}...", dir.display());
                Log::Resume(&wal)
            } else {
                eprintln!(
                    "[run] durable run, tiny world, {days} days, seed {seed}, {on}, WAL {}...",
                    dir.display()
                );
                Log::Fresh(&wal)
            };
            match pipeline::run_with_log(cfg, opts, threads, log, &mut tel) {
                Ok(WalOutcome::Completed(out)) => *out,
                Ok(WalOutcome::Suspended { delivered, durable_seq }) => {
                    println!("suspended at {delivered} packets fed ({durable_seq} durable frames)");
                    println!("resume with: --wal-dir {} --resume", dir.display());
                    return;
                }
                Err(e) => {
                    eprintln!("error: durable run failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let secs = t0.elapsed().as_secs_f64();

    println!("generated packets : {}", out.generated_packets);
    println!("captured packets  : {}", out.capture.total_packets);
    println!("scan packets      : {}", out.capture.scan_packets);
    println!("output fingerprint: {:016x}", out.fingerprint());
    println!("wall clock        : {secs:.1}s");
    println!();
    print!("{}", out.health.render());
    if !out.health.conserves() {
        eprintln!("error: conservation violated in {:?}", out.health.violations());
        std::process::exit(1);
    }
    if let Err(e) = obs.finish(&tel) {
        eprintln!("error: observability output: {e}");
        std::process::exit(1);
    }
    if obs.mem_report() {
        let report = out.mem.clone().unwrap_or_else(ah_mem::report);
        println!();
        print!("{}", report.render());
        // Leak gate: once the run's output is gone, every run-scoped
        // tag must have drained back to (approximately) zero live
        // bytes. The epsilon absorbs interned span/metric names that
        // were charged to a run tag before their owner registered them.
        drop(out);
        let leaks = ah_mem::leak_check(16 * 1024);
        if leaks.is_empty() {
            println!("[mem] leak check ok: run-scoped tags drained");
        } else {
            for (tag, bytes) in &leaks {
                eprintln!("[mem] leak: tag {} holds {bytes} live bytes after shutdown", tag.name());
            }
            eprintln!("error: memory leak check failed");
            std::process::exit(1);
        }
    }
}
