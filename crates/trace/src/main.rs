//! `ah-trace` — trace-file checker CLI.
//!
//! ```text
//! ah-trace check <trace.json> [--require-journey] [--require <span-name>]...
//! ```
//!
//! Validates a Chrome trace-event JSON file against the first-party
//! schema check ([`ah_trace::check::validate_chrome_trace`]): balanced
//! `B`/`E` events with stack discipline, non-decreasing timestamps per
//! track, scheme-valid span names, well-formed journey flows. With
//! `--require-journey` the trace must contain at least one sampled
//! packet journey; each `--require NAME` asserts that a span or
//! instant with that name is present. Exit status: 0 on success, 1 on
//! validation failure, 2 on usage/IO errors. The trace gate in the
//! root package's `tests/cli.rs` calls the same validator in process.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ah-trace check <trace.json> [--require-journey] [--require <span-name>]...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("check") {
        return usage();
    }
    let Some(path) = it.next() else { return usage() };
    let mut require_journey = false;
    let mut required: Vec<&str> = Vec::new();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--require-journey" => require_journey = true,
            "--require" => match it.next() {
                Some(name) => required.push(name),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ah-trace: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let stats = match ah_trace::check::validate_chrome_trace(&text) {
        Ok(stats) => stats,
        Err(reason) => {
            eprintln!("ah-trace: {path}: INVALID: {reason}");
            return ExitCode::from(1);
        }
    };
    let mut failed = false;
    if require_journey && stats.flow_ids.is_empty() {
        eprintln!("ah-trace: {path}: no sampled packet journeys (want >= 1 flow chain)");
        failed = true;
    }
    for name in &required {
        if !stats.names.contains(*name) {
            eprintln!("ah-trace: {path}: required span {name:?} not present");
            failed = true;
        }
    }
    println!(
        "ah-trace: {path}: OK — {} events, {} tracks, {} spans, {} instants, {} journeys",
        stats.events,
        stats.tracks,
        stats.spans,
        stats.instants,
        stats.flow_ids.len()
    );
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
