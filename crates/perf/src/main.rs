//! `ah-perf` command line. See the crate's `README.md`.
//!
//! ```text
//! ah-perf all   [--seed N] [--out FILE] [--trace-dir DIR]   every workload, every metric
//! ah-perf check [--seed N]                                  the whole set twice (A/A) against the bounds
//! ah-perf trace <workload> [--seed N] [--trace-out FILE]    one workload with its ledger
//! ah-perf --workload W --seed N --seconds S --trace 0|1     one measured run, JSON on the last line
//! ```
//!
//! `child` and `staged` are the two modes the driver runs in fresh
//! processes; `benchmark-json` prints `BENCHMARK.json` from the catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ah_perf::adapter::{self, Engine, Size, Workload};
use ah_perf::driver::{self, Scratch};
use ah_perf::probe::Probe;
use ah_perf::report::{self, Host};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ah-perf all [--seed N] [--out FILE] [--trace-dir DIR]
       ah-perf check [--seed N]
       ah-perf trace <workload> [--seed N] [--trace-out FILE]
       ah-perf --workload <workload> --seed N --seconds S --trace 0|1
workloads: darknet flows full-serial full-parallel full-faulted full-observed durable replay";

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--account", "--smoke"];

/// Parsed command line: positional words and `--flag value` pairs.
struct Args {
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), flags: BTreeMap::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") || a == "--help" {
                args.words.push(a);
            } else if SWITCHES.contains(&a.as_str()) {
                args.flags.insert(a, String::new());
            } else {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.insert(a, v);
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.flags.get(flag).map(PathBuf::from)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} {v:?} is not a valid number")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    }

    /// Reject flags the mode does not take.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown flag {k}")),
            None => Ok(()),
        }
    }

    fn workload(&self, name: Option<&String>) -> Result<&'static Workload, String> {
        let name = name.ok_or("a workload name is required")?;
        adapter::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn size(&self) -> Size {
        if self.has("--smoke") {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

/// A bad command line (exit 2) or a run that could not produce a result
/// (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

fn run(args: &Args, exe: &Path) -> Result<ExitCode, Failure> {
    let usage = Failure::Usage;
    let mode = args.words.first().map(String::as_str);
    match mode {
        None if args.has("--workload") => {
            args.only(&["--workload", "--seed", "--seconds", "--trace"]).map_err(usage)?;
            let w = args.workload(args.flags.get("--workload")).map_err(usage)?;
            let seed = args.number("--seed", None).map_err(usage)?;
            let seconds: f64 = args.number("--seconds", None).map_err(usage)?;
            let traced = match args.number::<u8>("--trace", None).map_err(usage)? {
                0 => false,
                1 => true,
                t => return Err(usage(format!("--trace {t} is neither 0 nor 1"))),
            };
            if !(seconds.is_finite() && seconds >= 0.0) {
                return Err(usage(format!("--seconds {seconds} is not a duration")));
            }
            let r = driver::run_one(exe, w, seed, seconds, traced).map_err(Failure::Run)?;
            for line in &r.failures {
                eprintln!("FAILED: {line}");
            }
            if let Some(speed) = r.summary("host_speed") {
                eprintln!(
                    "[ah-perf] host speed {:.3}; times are reference-host seconds (measured x host speed)",
                    speed.median
                );
            }
            println!("{}", report::contract_line(&r, traced));
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => {
            args.only(&["--seed", "--out", "--trace-dir"]).map_err(usage)?;
            let seed = args.number("--seed", Some(42)).map_err(usage)?;
            let host = Host::sample(seed);
            let trace_dir = args.path("--trace-dir");
            if let Some(dir) = &trace_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| Failure::Run(format!("mkdir {}: {e}", dir.display())))?;
            }
            let results = driver::run_all(exe, seed, Size::Full, true, trace_dir.as_deref())
                .map_err(Failure::Run)?;
            print!("{}", report::render_all(&host, &results));
            if let Some(out) = args.path("--out") {
                std::fs::write(&out, report::results_json(&host, &results))
                    .map_err(|e| Failure::Run(format!("write {}: {e}", out.display())))?;
                println!("results -> {}", out.display());
            }
            Ok(exit_code(results.iter().all(|r| r.failed == 0)))
        }
        Some("check") => {
            args.only(&["--seed"]).map_err(usage)?;
            let seed = args.number("--seed", Some(42)).map_err(usage)?;
            let host = Host::sample(seed);
            eprintln!("[ah-perf] set A");
            let a = driver::run_all(exe, seed, Size::Full, false, None).map_err(Failure::Run)?;
            eprintln!("[ah-perf] set B");
            let b = driver::run_all(exe, seed, Size::Full, false, None).map_err(Failure::Run)?;
            let (table, regressed) = report::render_check(&a, &b);
            println!(
                "ah-perf check: the same code twice (A/A), seed {seed}, commit {}, host_cpus {}, loadavg_1m {:.2}",
                host.git_commit, host.cpus, host.loadavg_1m
            );
            print!("{table}");
            let failed: u64 = a.iter().chain(&b).map(|r| r.failed).sum();
            for line in a.iter().chain(&b).flat_map(|r| &r.failures) {
                println!("FAILED: {line}");
            }
            println!("{regressed} regressed, {failed} failed operations");
            Ok(exit_code(regressed == 0 && failed == 0))
        }
        Some("trace") => {
            args.only(&["--seed", "--trace-out"]).map_err(usage)?;
            let w = args.workload(args.words.get(1)).map_err(usage)?;
            let seed = args.number("--seed", Some(42)).map_err(usage)?;
            let host = Host::sample(seed);
            let mut probe = Probe::new();
            let mut s = driver::Session::new(exe, w, seed, Size::Full).map_err(Failure::Run)?;
            s.setup(&mut probe, 1);
            for _ in 0..driver::MIN_REPEATS {
                s.repeat(&mut probe);
            }
            s.trace(&mut probe, args.path("--trace-out").as_deref());
            let r = s.finish(&probe);
            print!("{}", report::render_all(&host, std::slice::from_ref(&r)));
            Ok(exit_code(r.failed == 0))
        }
        Some(mode @ ("child" | "staged")) => {
            args.only(&[
                "--seed",
                "--scratch",
                "--engine",
                "--log",
                "--account",
                "--smoke",
                "--trace-out",
            ])
            .map_err(usage)?;
            let w = args.workload(args.words.get(1)).map_err(usage)?;
            let seed = args.number("--seed", None).map_err(usage)?;
            // Normally handed down by the driver; a hand-run child makes
            // (and removes) its own.
            let own = if args.has("--scratch") {
                None
            } else {
                Some(Scratch::new(exe).map_err(Failure::Run)?)
            };
            let scratch = args
                .path("--scratch")
                .or(own.as_ref().map(|s| s.path().to_path_buf()))
                .unwrap_or_default();
            let log = args.path("--log");
            let fields = if mode == "child" {
                let engine = match args.flags.get("--engine") {
                    Some(e) => {
                        Engine::parse(e).ok_or_else(|| usage(format!("unknown engine {e:?}")))?
                    }
                    None => w.engine,
                };
                adapter::run_engine(
                    w,
                    engine,
                    seed,
                    args.size(),
                    &scratch,
                    log.as_deref(),
                    args.has("--account"),
                )
                .map_err(Failure::Run)?
            } else {
                let (fields, spans) =
                    adapter::run_staged(w, seed, args.size(), &scratch, log.as_deref())
                        .map_err(Failure::Run)?;
                if let Some(out) = args.path("--trace-out") {
                    std::fs::write(&out, spans.to_chrome_json())
                        .map_err(|e| Failure::Run(format!("write {}: {e}", out.display())))?;
                }
                fields
            };
            print!("{}", fields.render());
            Ok(ExitCode::SUCCESS)
        }
        Some("benchmark-json") => {
            print!("{}", report::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(usage(format!("unknown command {other:?}"))),
        None => Err(usage("no command given".into())),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).map_err(Failure::Usage).and_then(|args| {
        let exe = std::env::current_exe().map_err(|e| Failure::Run(format!("current_exe: {e}")))?;
        run(&args, &exe)
    });
    match outcome {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
