//! The house rules rustc and clippy cannot see, checked as plain text.
//!
//! Everything else `scripts/ci.sh` holds the code to is a compiler lint
//! (ARCHITECTURE.md §9): panic paths, `unsafe` hygiene and crate docs are
//! clippy and rustc lints on the library and binary targets, and a stale
//! `#[expect]` is rustc's `unfulfilled_lint_expectations`. What is left
//! is checked here, over the shipped sources — `src/`, `crates/*/src/`
//! and `vendor/*/src/`, each file above its `#[cfg(test)]` module:
//!
//! 1. every module file opens with a `//!` doc block;
//! 2. every `Ordering::Relaxed` / `Ordering::SeqCst` has an `ORDERING:`
//!    or `SAFETY:` comment on its line or ending within the two lines
//!    above, or its file states the argument once in a `// ORDERING:`
//!    comment before the first line of code;
//! 3. every `#[expect(…)]` / `#![expect(…)]` carries a `reason = …`;
//! 4. every relative link and `#anchor` in every markdown file of the
//!    repo resolves ([`mdcheck`]);
//! 5. the storage crate `ah-wal` depends on the instrument crates only,
//!    never on the simulator or the analysis crates;
//! 6. no `Ordering::Acquire` / `Release` / `AcqRel` in `src/` or
//!    `crates/*/src/`: a cross-thread hand-off goes through std, which
//!    proves its own ordering, and every atomic left is a statistic;
//! 7. every metric or span name the documentation (README.md and the
//!    markdown files it names) spells out in full is one the sources name;
//! 8. the stage crates hold no `Counter` or `Gauge`: a stage counts in
//!    its own stats, and the engine publishes them (ARCHITECTURE.md §8).

mod mdcheck;

use std::fs;
use std::path::{Path, PathBuf};

/// One broken markdown link, as [`mdcheck`] reports it.
pub struct Diagnostic {
    /// Repo-relative path of the markdown file.
    pub file: String,
    /// 1-based line of the link.
    pub line: u32,
    /// Always `doc-link`.
    pub lint: &'static str,
    /// What does not resolve.
    pub message: String,
}

impl Diagnostic {
    fn human(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every shipped source file: its repo-relative path and its lines above
/// its `#[cfg(test)] mod` (a `#[cfg(test)]` on a single item mid-file
/// does not end the shipped code).
fn sources() -> Vec<(String, Vec<String>)> {
    let mut dirs = vec![root().join("src")];
    for parent in ["crates", "vendor"] {
        for entry in fs::read_dir(root().join(parent)).expect(parent) {
            dirs.push(entry.expect("directory entry").path().join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut files);
    }
    files.sort();
    assert!(files.len() > 50, "found only {} source files", files.len());
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("source file");
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let test_mod = lines.windows(2).position(|w| {
                w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod ")
            });
            lines.truncate(test_mod.unwrap_or(lines.len()));
            (path.strip_prefix(root()).expect("under the root").display().to_string(), lines)
        })
        .collect()
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

fn assert_none(rule: &str, bad: &[String]) {
    assert!(bad.is_empty(), "{rule}:\n{}", bad.join("\n"));
}

#[test]
fn every_module_opens_with_a_doc_block() {
    let mut bad = Vec::new();
    for (path, lines) in sources() {
        let first = lines.iter().map(|l| l.trim_start()).find(|l| !l.is_empty());
        if !first.is_some_and(|l| l.starts_with("//!")) {
            bad.push(format!("{path}:1: no leading `//!` doc block describing the module"));
        }
    }
    assert_none("module files without a doc header", &bad);
}

/// Is the ordering on line `i` argued for: an `ORDERING:`/`SAFETY:` on
/// the line itself, or in a comment block ending one or two lines above?
fn justified(lines: &[String], i: usize) -> bool {
    let argues = |l: &String| l.contains("ORDERING:") || l.contains("SAFETY:");
    argues(&lines[i])
        || (1..=2)
            .filter_map(|k| i.checked_sub(k))
            .any(|j| lines[..=j].iter().rev().take_while(|l| is_comment(l)).any(argues))
}

#[test]
fn relaxed_and_seqcst_orderings_are_justified() {
    let mut bad = Vec::new();
    for (path, lines) in sources() {
        let mut header = lines.iter().take_while(|l| l.trim().is_empty() || is_comment(l));
        if header.any(|l| l.starts_with("// ORDERING:")) {
            continue;
        }
        for (i, line) in lines.iter().enumerate() {
            let names_one = line.contains("Ordering::Relaxed") || line.contains("Ordering::SeqCst");
            if names_one && !is_comment(line) && !justified(&lines, i) {
                bad.push(format!(
                    "{path}:{}: Relaxed/SeqCst without an ORDERING:/SAFETY: comment — argue \
                     for the ordering where it is used",
                    i + 1
                ));
            }
        }
    }
    assert_none("unjustified atomic orderings", &bad);
}

#[test]
fn lint_expectations_carry_reasons() {
    let mut bad = Vec::new();
    for (path, lines) in sources() {
        let text = lines.join("\n");
        for attr in ["#[expect(", "#![expect("] {
            for (at, _) in text.match_indices(attr) {
                let body = text[at..].split(")]").next().unwrap_or_default();
                if !body.contains("reason = ") {
                    let line = text[..at].matches('\n').count() + 1;
                    bad.push(format!("{path}:{line}: `{attr}…)]` without `reason = \"…\"`"));
                }
            }
        }
    }
    assert_none("lint expectations without a reason", &bad);
}

#[test]
fn markdown_links_and_anchors_resolve() {
    let (diags, files, links) = mdcheck::check_workspace(root()).expect("markdown walk");
    assert!(files > 0 && links > 0, "{files} markdown files, {links} links");
    let bad: Vec<String> = diags.iter().map(Diagnostic::human).collect();
    assert_none("broken markdown links", &bad);
}

/// Storage holds bytes: `ah-wal` may lean on the instrument crates, and
/// anything it needs to know of a run arrives as opaque bytes.
#[test]
fn wal_depends_on_the_instrument_crates_only() {
    const ALLOWED: [&str; 4] = ["ah-mem", "ah-trace", "ah-net", "ah-obs"];
    let manifest =
        fs::read_to_string(root().join("crates/wal/Cargo.toml")).expect("ah-wal manifest");
    let deps: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| l.split(['.', '=']).next().unwrap_or(l).trim())
        .collect();
    assert!(!deps.is_empty(), "no [dependencies] table in crates/wal/Cargo.toml");
    let bad: Vec<String> = deps
        .iter()
        .filter(|d| !ALLOWED.contains(d))
        .map(|d| format!("crates/wal/Cargo.toml: `{d}` is not one of {ALLOWED:?}"))
        .collect();
    assert_none("ah-wal dependencies outside the instrument crates", &bad);
}

/// Ordering memory by hand needs a proof, and the repository keeps no
/// model checker: the shard hand-off is std's bounded channel, and every
/// atomic left in the product is a `Relaxed` statistic under rule 2.
#[test]
fn no_hand_written_happens_before() {
    const ORDERINGS: [&str; 3] = ["Ordering::Acquire", "Ordering::Release", "Ordering::AcqRel"];
    let mut bad = Vec::new();
    for (path, lines) in sources() {
        if !(path.starts_with("src") || path.starts_with("crates")) {
            continue;
        }
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| !is_comment(l)) {
            if let Some(ord) = ORDERINGS.iter().find(|o| line.contains(*o)) {
                bad.push(format!("{path}:{}: `{ord}`", i + 1));
            }
        }
    }
    assert_none(
        "hand-written happens-before: a cross-thread hand-off goes through std (a channel, a \
         mutex, a join), or brings a model check back with it",
        &bad,
    );
}

/// Each backticked `ah_…` name with the four segments of the naming
/// scheme in `line`, skipping prefixes that stop at `_`, `…` or `*`
/// (`ah_mem_*`, `ah_flow_cache_…`) and reading a name through to any
/// `{labels}`.
fn documented_names(line: &str) -> Vec<&str> {
    let spans = line.split('`').skip(1).step_by(2);
    spans
        .filter(|span| span.starts_with("ah_"))
        .filter_map(|span| {
            let end = span
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(span.len());
            let (name, rest) = span.split_at(end);
            let prefix = name.ends_with('_') || rest.starts_with(['…', '*']);
            (!prefix && ah_obs::valid_metric_name(name)).then_some(name)
        })
        .collect()
}

/// The documentation set: README.md and every markdown file it names. Plans
/// and change records stay out: they may name instruments that are yet to
/// be built or have been retired.
fn documentation() -> Vec<String> {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md");
    let mut docs = vec!["README.md".to_string()];
    let path_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '/' | '.' | '_' | '-');
    for word in readme.split(|c: char| !path_char(c)) {
        let word = word.trim_end_matches('.');
        if word.ends_with(".md") && root().join(word).is_file() && !docs.iter().any(|d| d == word) {
            docs.push(word.to_string());
        }
    }
    docs
}

/// A metric or span the documentation names must exist: a renamed or
/// retired instrument strands every sentence that still spells it.
#[test]
fn documented_metric_names_exist() {
    let shipped: Vec<String> = sources()
        .into_iter()
        .filter(|(path, _)| path.starts_with("src") || path.starts_with("crates"))
        .map(|(_, lines)| lines.join("\n"))
        .collect();
    let named = |name: &str| {
        let literal = format!("\"{name}\"");
        shipped.iter().any(|text| text.contains(&literal))
    };
    let docs = documentation();
    assert!(docs.len() > 3, "README.md names only {docs:?}");
    let mut bad = Vec::new();
    for rel in docs {
        let text = fs::read_to_string(root().join(&rel)).expect("markdown file");
        for (i, line) in text.lines().enumerate() {
            for name in documented_names(line) {
                if !named(name) {
                    bad.push(format!(
                        "{rel}:{}: `{name}` is no string literal in the sources",
                        i + 1
                    ));
                }
            }
        }
    }
    assert_none("documented names the sources never register", &bad);
}

/// A stage computes and counts in its own stats; observation is the
/// execution unit's job alone. The unit reads the stats at its batch
/// boundary and publishes them, draws every packet journey, and runs and
/// times every sweep. The stages and the fault injector therefore hold
/// no `ah_obs` instrument or recorder and no `ah_trace` tracer, and no
/// stage crate depends on `ah-obs` or `ah-trace` at all.
#[test]
fn stage_crates_hold_no_instruments() {
    const STAGES: [&str; 5] = [
        "crates/telescope/src/",
        "crates/flow/src/",
        "crates/intel/src/",
        "crates/core/src/",
        "crates/simnet/src/faults.rs",
    ];
    let mut bad = Vec::new();
    for (path, lines) in sources() {
        if !STAGES.iter().any(|s| path.starts_with(s)) {
            continue;
        }
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| !is_comment(l)) {
            let mut words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            let instrument =
                |w: &&str| matches!(*w, "Counter" | "Gauge" | "Histogram" | "Recorder" | "Tracer");
            if let Some(ty) = words.find(instrument) {
                bad.push(format!("{path}:{}: a stage holds a {ty}", i + 1));
            }
        }
    }
    for krate in ["telescope", "flow", "simnet", "intel", "core"] {
        let path = format!("crates/{krate}/Cargo.toml");
        let manifest = fs::read_to_string(root().join(&path)).expect("stage crate manifest");
        for dep in ["ah-obs", "ah-trace"] {
            if manifest.contains(dep) {
                bad.push(format!("{path}: ah-{krate} names {dep}"));
            }
        }
    }
    assert_none("stage instruments outside the engine", &bad);
}
