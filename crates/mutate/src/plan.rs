//! Workspace enumeration and deterministic sampling.
//!
//! Mutation scope is the *product* code: the root crate's `src/` and
//! the library crates the pipeline ships. The verification layer itself
//! (`crates/mutate`, `crates/perf`), the experiment runner under
//! `src/bin/` and the vendored test-support crates are excluded —
//! mutating the measuring stick tells us nothing about the suite's
//! coverage of the product, and every survivor there would be noise in
//! the burn-down list.

use std::fs;
use std::io;
use std::path::Path;

use ah_net::hash::mix64;

use crate::ops::{enumerate_source, Mutant};

/// Directory names under `crates/` that are in mutation scope.
pub const PRODUCT_CRATES: &[&str] =
    &["core", "flow", "intel", "mem", "net", "obs", "simnet", "telescope", "trace", "wal"];

/// The cargo package owning a workspace-relative source path.
pub fn pkg_for(rel: &str) -> String {
    match rel.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some(dir) => format!("ah-{dir}"),
        None => "aggressive-scanners".to_string(),
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel_string(rel));
            }
        }
    }
    Ok(())
}

fn rel_string(rel: &Path) -> String {
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Workspace-relative paths of every product source file in mutation
/// scope, sorted.
pub fn product_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    // The experiment runner prints tables; it is harness, not product.
    files.retain(|f| !f.starts_with("src/bin/"));
    for dir in PRODUCT_CRATES {
        let src = root.join("crates").join(dir).join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Enumerate every mutant of every product file under `root`, in
/// (file, offset, operator) order.
pub fn enumerate_workspace(root: &Path) -> Result<Vec<Mutant>, String> {
    let files = product_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut out = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        out.extend(enumerate_source(rel, &src));
    }
    out.sort_by(|a, b| (&a.file, a.start, a.op).cmp(&(&b.file, b.start, b.op)));
    Ok(out)
}

/// Deterministically sample `n` mutants from `all` with `seed`
/// (partial Fisher–Yates over indices), preserving enumeration order
/// among the chosen. `n >= all.len()` returns everything.
pub fn sample(all: Vec<Mutant>, n: usize, seed: u64) -> Vec<Mutant> {
    if n >= all.len() {
        return all;
    }
    // splitmix64 over the workspace's one finalizer.
    let mut state = seed;
    let mut idx: Vec<usize> = (0..all.len()).collect();
    for i in 0..n {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let j = i + (mix64(state) as usize) % (idx.len() - i);
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx.into_iter().take(n).collect();
    chosen.sort_unstable();
    let mut keep = vec![false; all.len()];
    for c in chosen {
        keep[c] = true;
    }
    all.into_iter().zip(keep).filter_map(|(m, k)| k.then_some(m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(n: usize) -> Vec<Mutant> {
        (0..n)
            .map(|i| {
                let src = format!("//! d\nfn f(a: u64) -> bool {{ a >= {} }}\n", 10 + i);
                enumerate_source(&format!("crates/x/src/f{i}.rs"), &src).remove(0)
            })
            .collect()
    }

    #[test]
    fn sampling_is_deterministic_and_order_preserving() {
        let a = sample(mk(50), 10, 42);
        let b = sample(mk(50), 10, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let picked: Vec<usize> = a
            .iter()
            .map(|m| {
                m.file.trim_start_matches("crates/x/src/f").trim_end_matches(".rs").parse().unwrap()
            })
            .collect();
        assert!(picked.windows(2).all(|w| w[0] < w[1]), "sample preserves enumeration order");
        let c = sample(mk(50), 10, 43);
        assert_ne!(a, c, "different seed, different sample");
        assert_eq!(sample(mk(5), 99, 1).len(), 5);
    }

    #[test]
    fn pkg_mapping_covers_root_and_crates() {
        assert_eq!(pkg_for("src/pipeline.rs"), "aggressive-scanners");
        assert_eq!(pkg_for("crates/telescope/src/daily.rs"), "ah-telescope");
        assert_eq!(pkg_for("crates/wal/src/frame.rs"), "ah-wal");
    }
}
