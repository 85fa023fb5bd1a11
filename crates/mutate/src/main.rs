//! Command-line front end for the `ah-mutate` mutation-testing
//! harness; see the library crate docs for the operator set and the
//! caught/survived/timeout/build-broken classification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ah_mutate::plan::{enumerate_workspace, pkg_for, sample};
use ah_mutate::report::{count, render_json, render_survivors, write_reports, Classified};
use ah_mutate::runner::{default_steps, Scope, Scratch};
use ah_mutate::sentinel::{resolve_all, SENTINELS};
use ah_mutate::Outcome;

const USAGE: &str = "\
ah-mutate — first-party mutation-testing harness

USAGE: ah-mutate [MODE] [OPTIONS]

Modes (default: the CI sentinel gate — every curated mutant must be caught):
  --all             full sweep over every enumerated product mutant
  --id HEX          run only the named mutant(s) (repeatable; burn-down loop)
  --list            print enumerated mutants without running anything

Options:
  --sample N        with --all: run a deterministic N-mutant subset
  --seed S          sample seed (default 1)
  --scope KIND      sweep test scope: crate | package | workspace (default: package)
  --timeout SECS    per-mutant wall-clock budget (default 900)
  --budget SECS     sentinel-gate total wall-clock budget (default 3600)
  --root DIR        workspace root (default: current directory)
  --scratch DIR     scratch tree (default: <root>/out/mutate-scratch)
  --json            print the ah-mutate/1 JSON report to stdout
";

struct Opts {
    all: bool,
    ids: Vec<String>,
    list: bool,
    sample: Option<usize>,
    seed: u64,
    scope: Scope,
    timeout: Duration,
    budget: Duration,
    root: PathBuf,
    scratch: Option<PathBuf>,
    json: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        all: false,
        ids: Vec::new(),
        list: false,
        sample: None,
        seed: 1,
        scope: Scope::Package,
        timeout: Duration::from_secs(900),
        budget: Duration::from_secs(3600),
        root: PathBuf::from("."),
        scratch: None,
        json: false,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => opts.all = true,
            "--id" => opts.ids.push(value(&mut it, "--id")?),
            "--list" => opts.list = true,
            "--sample" => {
                opts.sample = Some(
                    value(&mut it, "--sample")?
                        .parse()
                        .map_err(|_| "--sample needs an integer".to_string())?,
                );
            }
            "--seed" => {
                opts.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--scope" => {
                let s = value(&mut it, "--scope")?;
                opts.scope =
                    Scope::parse(&s).ok_or_else(|| format!("unknown scope `{s}` (see usage)"))?;
            }
            "--timeout" => {
                opts.timeout = Duration::from_secs(
                    value(&mut it, "--timeout")?
                        .parse()
                        .map_err(|_| "--timeout needs seconds".to_string())?,
                );
            }
            "--budget" => {
                opts.budget = Duration::from_secs(
                    value(&mut it, "--budget")?
                        .parse()
                        .map_err(|_| "--budget needs seconds".to_string())?,
                );
            }
            "--root" => opts.root = PathBuf::from(value(&mut it, "--root")?),
            "--scratch" => opts.scratch = Some(PathBuf::from(value(&mut it, "--scratch")?)),
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ah-mutate: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ah-mutate: {msg}");
            ExitCode::from(3)
        }
    }
}

fn run(opts: &Opts) -> Result<ExitCode, String> {
    let root =
        opts.root.canonicalize().map_err(|e| format!("bad --root {}: {e}", opts.root.display()))?;
    if opts.list {
        return list(opts, &root);
    }
    if opts.all || !opts.ids.is_empty() {
        return sweep(opts, &root);
    }
    gate(opts, &root)
}

fn list(opts: &Opts, root: &Path) -> Result<ExitCode, String> {
    let mutants = select(opts, root)?;
    for m in &mutants {
        println!("{} {}:{} {} `{}` -> `{}`", m.id, m.file, m.line, m.op, m.original, m.replacement);
    }
    eprintln!("{} mutants enumerated", mutants.len());
    Ok(ExitCode::SUCCESS)
}

/// Enumerate and apply `--id` / `--sample` filters.
fn select(opts: &Opts, root: &Path) -> Result<Vec<ah_mutate::Mutant>, String> {
    let mut mutants = enumerate_workspace(root)?;
    if !opts.ids.is_empty() {
        mutants.retain(|m| opts.ids.iter().any(|id| id == &m.id));
        for id in &opts.ids {
            if !mutants.iter().any(|m| &m.id == id) {
                return Err(format!("--id {id}: no such mutant in this tree (see --list)"));
            }
        }
    } else if let Some(n) = opts.sample {
        mutants = sample(mutants, n, opts.seed);
    }
    Ok(mutants)
}

/// Copy the tree to `--scratch` (default `<root>/out/mutate-scratch`).
fn prepare_scratch(opts: &Opts, root: &Path) -> Result<Scratch, String> {
    eprintln!("preparing scratch tree…");
    let dir = opts.scratch.clone().unwrap_or_else(|| root.join("out/mutate-scratch"));
    Scratch::prepare(root, &dir).map_err(|e| format!("preparing scratch: {e}"))
}

/// The full sweep (or an `--id`-filtered burn-down run).
fn sweep(opts: &Opts, root: &Path) -> Result<ExitCode, String> {
    let mutants = select(opts, root)?;
    eprintln!("sweeping {} mutants", mutants.len());
    let scratch = prepare_scratch(opts, root)?;
    let mut results = Vec::with_capacity(mutants.len());
    let total = mutants.len();
    for (i, m) in mutants.into_iter().enumerate() {
        let steps = default_steps(&pkg_for(&m.file), opts.scope);
        let result = scratch
            .run_mutant(&m, &steps, opts.timeout)
            .map_err(|e| format!("running {}: {e}", m.id))?;
        eprintln!(
            "[{}/{total}] {} {}:{} {} `{}`->`{}`: {} ({:.1}s)",
            i + 1,
            m.id,
            m.file,
            m.line,
            m.op,
            m.original,
            m.replacement,
            result.outcome.as_str(),
            result.secs
        );
        results.push(Classified { mutant: m, result });
    }

    write_reports(&root.join("out"), &results).map_err(|e| format!("writing reports: {e}"))?;
    if opts.json {
        print!("{}", render_json(&results));
    } else {
        print!("{}", render_survivors(&results));
    }
    eprintln!(
        "wrote out/mutants.json and out/survivors.md ({} survivors of {} mutants)",
        count(&results).survived,
        results.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// The CI sentinel gate: every curated mutant must be caught, inside
/// the wall-clock budget.
fn gate(opts: &Opts, root: &Path) -> Result<ExitCode, String> {
    let started = Instant::now();
    let resolved = resolve_all(root)?;
    eprintln!("sentinel gate: {} mutants", resolved.len());
    let scratch = prepare_scratch(opts, root)?;

    let mut failures = Vec::new();
    let total = resolved.len();
    for (i, (s, m)) in resolved.iter().enumerate() {
        if started.elapsed() > opts.budget {
            return Err(format!(
                "gate exceeded its {}s budget after {} of {total} sentinels",
                opts.budget.as_secs(),
                i
            ));
        }
        let steps: Vec<Vec<String>> =
            s.kill.iter().map(|step| step.iter().map(|a| a.to_string()).collect()).collect();
        let per_mutant = opts.timeout.min(opts.budget.saturating_sub(started.elapsed()));
        let r = scratch
            .run_mutant(m, &steps, per_mutant)
            .map_err(|e| format!("running sentinel {}: {e}", s.name))?;
        eprintln!(
            "[{}/{total}] {} ({}:{} {} `{}`->`{}`): {} ({:.1}s)",
            i + 1,
            s.name,
            m.file,
            m.line,
            m.op,
            m.original,
            m.replacement,
            r.outcome.as_str(),
            r.secs
        );
        if r.outcome != Outcome::Caught {
            failures.push((s.name, r));
        }
    }

    let secs = started.elapsed().as_secs();
    if failures.is_empty() {
        println!(
            "mutation gate: all {} sentinels caught in {secs}s ({} curated: WAL integrity, \
             the suspension trim, the delta publish, the fate instants' delta, \
             the ring occupancy's unit, the mux's window end, detector thresholds and source runs, \
             aggregator boundaries)",
            total,
            SENTINELS.len(),
        );
        return Ok(ExitCode::SUCCESS);
    }
    println!("mutation gate FAILED ({secs}s): {} of {total} sentinels not caught:", failures.len());
    for (name, r) in &failures {
        println!("  {name}: {} — {}", r.outcome.as_str(), r.detail);
    }
    Ok(ExitCode::from(1))
}
