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
//!    repo resolves ([`mdcheck`]).

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
                    "{path}:{}: Relaxed/SeqCst without an ORDERING:/SAFETY: comment — use \
                     Acquire/Release or argue for the weaker/stronger ordering",
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
