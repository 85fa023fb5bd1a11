//! Report rendering: `out/mutants.json` (machine-readable, schema
//! `ah-mutate/1`) and the markdown survivor table (`out/survivors.md`
//! plus stdout).
//!
//! The JSON file is written one mutant per line, so downstream line
//! scanners need no JSON parser. EXPERIMENTS.md §Mutation testing
//! documents the schema. The survivor table is
//! the human deliverable: every surviving mutant is a test to write,
//! with file:line, the exact token flip, and the source line attached.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ah_obs::json::escape;

use crate::ops::Mutant;
use crate::runner::{Outcome, RunResult};

/// One classified mutant, ready to render.
pub struct Classified {
    /// The mutant.
    pub mutant: Mutant,
    /// Its verdict.
    pub result: RunResult,
}

/// Outcome counts across a run.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Mutants the suite caught.
    pub caught: usize,
    /// Mutants the suite missed.
    pub survived: usize,
    /// Mutants that hit the wall-clock budget.
    pub timeout: usize,
    /// Mutants that failed to compile (excluded from scoring).
    pub build_broken: usize,
}

/// Tally outcomes.
pub fn count(results: &[Classified]) -> Counts {
    let mut c = Counts::default();
    for r in results {
        match r.result.outcome {
            Outcome::Caught => c.caught += 1,
            Outcome::Survived => c.survived += 1,
            Outcome::Timeout => c.timeout += 1,
            Outcome::BuildBroken => c.build_broken += 1,
        }
    }
    c
}

/// Kill rate over the scoreable population (caught + timeout over
/// everything except build-broken), as a percentage.
pub fn kill_rate(c: &Counts) -> f64 {
    let scoreable = c.caught + c.timeout + c.survived;
    if scoreable == 0 {
        return 100.0;
    }
    100.0 * (c.caught + c.timeout) as f64 / scoreable as f64
}

/// Render the `ah-mutate/1` JSON report.
pub fn render_json(results: &[Classified]) -> String {
    let c = count(results);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"ah-mutate/1\",\
         \"caught\":{},\"survived\":{},\"timeout\":{},\"build_broken\":{},\
         \"kill_rate\":{:.1},",
        c.caught,
        c.survived,
        c.timeout,
        c.build_broken,
        kill_rate(&c)
    );
    out.push_str("\"mutants\":[\n");
    for (i, r) in results.iter().enumerate() {
        let m = &r.mutant;
        let _ = writeln!(
            out,
            "{{\"id\":\"{}\",\"file\":\"{}\",\"line\":{},\"op\":\"{}\",\
             \"original\":\"{}\",\"replacement\":\"{}\",\"outcome\":\"{}\",\
             \"secs\":{:.3},\"detail\":\"{}\"}}{}",
            m.id,
            escape(&m.file),
            m.line,
            m.op,
            escape(&m.original),
            escape(&m.replacement),
            r.result.outcome.as_str(),
            r.result.secs,
            escape(&r.result.detail),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// Render the markdown survivor table (empty table elided).
pub fn render_survivors(results: &[Classified]) -> String {
    let c = count(results);
    let mut out = String::new();
    let _ = writeln!(out, "# Mutation survivors\n");
    let _ = writeln!(
        out,
        "{} mutants: **{} caught**, **{} survived**, {} timeout, {} build-broken \
         — kill rate {:.1}%.\n",
        results.len(),
        c.caught,
        c.survived,
        c.timeout,
        c.build_broken,
        kill_rate(&c)
    );
    if c.survived == 0 {
        let _ = writeln!(out, "No survivors. Every scoreable mutant was caught.");
        return out;
    }
    let _ = writeln!(out, "| id | site | flip | source line |");
    let _ = writeln!(out, "|----|------|------|-------------|");
    for r in results {
        if r.result.outcome != Outcome::Survived {
            continue;
        }
        let m = &r.mutant;
        let _ = writeln!(
            out,
            "| `{}` | `{}:{}` | {} `{}` → `{}` | `{}` |",
            m.id,
            m.file,
            m.line,
            m.op,
            md_code(&m.original),
            md_code(&m.replacement),
            md_code(&m.context)
        );
    }
    let _ = writeln!(
        out,
        "\nEach row is a missing test: re-run just one with \
         `ah-mutate --id <id>` after writing it."
    );
    out
}

/// Escape backticks/pipes for use inside a markdown code span in a table.
fn md_code(s: &str) -> String {
    s.replace('`', "'").replace('|', "\\|")
}

/// Write both artifacts under `out_dir`.
pub fn write_reports(out_dir: &Path, results: &[Classified]) -> io::Result<()> {
    fs::create_dir_all(out_dir)?;
    fs::write(out_dir.join("mutants.json"), render_json(results))?;
    fs::write(out_dir.join("survivors.md"), render_survivors(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::enumerate_source;

    fn classified(outcome: Outcome) -> Classified {
        let src = "//! d\nfn f(a: u64) -> bool {\n    a >= 10\n}\n";
        let mutant = enumerate_source("crates/x/src/lib.rs", src).remove(0);
        Classified {
            mutant,
            result: RunResult { outcome, detail: "step `x` said \"no\"".into(), secs: 2.5 },
        }
    }

    #[test]
    fn json_report_counts_and_escapes() {
        let results = vec![classified(Outcome::Caught), classified(Outcome::Survived)];
        let json = render_json(&results);
        assert!(json.contains("\"schema\":\"ah-mutate/1\""));
        assert!(json.contains("\"caught\":1,\"survived\":1,\"timeout\":0"));
        assert!(json.contains("\\\"no\\\""), "details must be JSON-escaped");
        assert!(json.contains("\"kill_rate\":50.0"));
    }

    #[test]
    fn survivor_table_lists_only_survivors() {
        let results = vec![
            classified(Outcome::Caught),
            classified(Outcome::Survived),
            classified(Outcome::BuildBroken),
        ];
        let md = render_survivors(&results);
        assert!(md.contains("| id | site |"));
        assert_eq!(md.matches("crates/x/src/lib.rs:3").count(), 1);
        assert!(md.contains("kill rate 50.0%"), "build-broken excluded from the rate:\n{md}");
    }

    #[test]
    fn clean_run_elides_the_table() {
        let md = render_survivors(&[classified(Outcome::Caught)]);
        assert!(md.contains("No survivors"));
        assert!(!md.contains("| id |"));
    }
}
