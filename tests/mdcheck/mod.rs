//! First-party markdown link and anchor checker (`doc-link`).
//!
//! The repo's documentation layer (README, ARCHITECTURE, DESIGN,
//! EXPERIMENTS, …) cross-references itself heavily; a renamed file or
//! section silently strands those links because nothing compiles
//! markdown. This pass walks every `*.md` in the workspace and checks,
//! for each inline link or reference definition:
//!
//! * **relative paths** resolve to an existing file or directory
//!   (external `http(s)://` and `mailto:` targets are skipped — CI
//!   must not depend on the network);
//! * **`#fragment` anchors** — same-file or into another markdown
//!   file — match a heading there, using GitHub's slugging rules
//!   (lowercase, punctuation stripped, spaces to hyphens, `-N`
//!   suffixes for duplicates).
//!
//! Fenced code blocks and inline code spans are excluded, so shell
//! snippets and `[i]` indexing in example code are never parsed as
//! links. Like the rest of `repo_rules` this is deliberately text-level
//! and dependency-free: a small scanner, not a markdown parser.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::Diagnostic;

/// Every `*.md` under `root`, recursively, skipping VCS metadata and
/// build output (`.git`, `target`, any hidden directory).
pub fn markdown_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_md(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_md(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            collect_md(&path, out)?;
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
    Ok(())
}

/// One extracted link: line number and raw destination.
struct Link {
    line: u32,
    dest: String,
}

/// GitHub-style anchor slug for a heading text: lowercase, markdown
/// emphasis/code markers dropped, remaining punctuation stripped,
/// spaces become hyphens.
fn slug(heading: &str) -> String {
    let mut s = String::with_capacity(heading.len());
    for c in heading.trim().chars() {
        match c {
            'A'..='Z' => s.push(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' | '-' | '_' => s.push(c),
            ' ' => s.push('-'),
            _ => {}
        }
    }
    s
}

/// Headings of one markdown source, as the set of anchor slugs GitHub
/// would generate (duplicate headings get `-1`, `-2`, … suffixes).
fn anchors(src: &str) -> Vec<String> {
    let mut seen: HashMap<String, u32> = HashMap::new();
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in src.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !trimmed.starts_with('#') {
            continue;
        }
        let text = trimmed.trim_start_matches('#');
        if !text.starts_with(' ') && !text.is_empty() {
            continue; // "#111" etc. is not a heading
        }
        let base = slug(text);
        let n = seen.entry(base.clone()).or_insert(0);
        out.push(if *n == 0 { base.clone() } else { format!("{base}-{n}") });
        *n += 1;
    }
    out
}

/// Inline `[text](dest)` links and `[ref]: dest` reference definitions
/// of one markdown source, fenced blocks and inline code excluded.
fn links(src: &str) -> Vec<Link> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (i, line) in src.lines().enumerate() {
        let lineno = i as u32 + 1;
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Blank out inline code spans so `[idx](…)`-shaped code is
        // invisible to the link scanner (column positions preserved).
        let cooked: String = {
            let mut in_code = false;
            line.chars()
                .map(|c| match c {
                    '`' => {
                        in_code = !in_code;
                        '`'
                    }
                    _ if in_code => ' ',
                    _ => c,
                })
                .collect()
        };
        // Reference definition: `[name]: dest`
        if let Some(rest) = cooked.trim_start().strip_prefix('[') {
            if let Some((_, after)) = rest.split_once("]:") {
                let dest = after.split_whitespace().next().unwrap_or("");
                if !dest.is_empty() {
                    out.push(Link { line: lineno, dest: dest.to_string() });
                    continue;
                }
            }
        }
        // Inline links: every `](dest)` with a matching `[` before it.
        let bytes = cooked.as_bytes();
        let mut j = 0;
        while j + 1 < bytes.len() {
            if bytes[j] == b']' && bytes[j + 1] == b'(' {
                // Walk back for the matching unescaped `[`.
                let mut depth = 1i32;
                let mut k = j;
                let mut opened = false;
                while k > 0 {
                    k -= 1;
                    match bytes[k] {
                        b']' => depth += 1,
                        b'[' => {
                            depth -= 1;
                            if depth == 0 {
                                opened = k == 0 || bytes[k - 1] != b'\\';
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if opened {
                    if let Some(close) = cooked[j + 2..].find(')') {
                        let dest = &cooked[j + 2..j + 2 + close];
                        // Strip an optional `"title"` part.
                        let dest = dest.split_whitespace().next().unwrap_or("");
                        if !dest.is_empty() {
                            out.push(Link { line: lineno, dest: dest.to_string() });
                        }
                        j += 2 + close;
                        continue;
                    }
                }
            }
            j += 1;
        }
    }
    out
}

/// Check every markdown file under `root`; returns the findings plus
/// the number of files and links scanned.
pub fn check_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize, usize), String> {
    let files = markdown_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut diags = Vec::new();
    let mut total_links = 0usize;
    for path in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let display = path.strip_prefix(root).unwrap_or(path).display().to_string();
        let own_anchors = anchors(&src);
        for link in links(&src) {
            total_links += 1;
            let dest = link.dest.as_str();
            if dest.starts_with("http://")
                || dest.starts_with("https://")
                || dest.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, frag) = match dest.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (dest, None),
            };
            let (target_path, target_anchors): (String, Option<Vec<String>>) = if path_part
                .is_empty()
            {
                (display.clone(), Some(own_anchors.clone()))
            } else {
                let resolved = if let Some(rel) = path_part.strip_prefix('/') {
                    root.join(rel)
                } else {
                    path.parent().unwrap_or(root).join(path_part)
                };
                if !resolved.exists() {
                    diags.push(Diagnostic {
                        file: display.clone(),
                        line: link.line,
                        lint: "doc-link",
                        message: format!("broken link: `{dest}` — `{path_part}` does not exist"),
                    });
                    continue;
                }
                let target_anchors =
                    if frag.is_some() && resolved.extension().is_some_and(|e| e == "md") {
                        let tsrc = fs::read_to_string(&resolved)
                            .map_err(|e| format!("reading {}: {e}", resolved.display()))?;
                        Some(anchors(&tsrc))
                    } else {
                        None
                    };
                (path_part.to_string(), target_anchors)
            };
            if let (Some(frag), Some(anchor_set)) = (frag, target_anchors) {
                let want = frag.to_ascii_lowercase();
                if !anchor_set.contains(&want) {
                    diags.push(Diagnostic {
                        file: display.clone(),
                        line: link.line,
                        lint: "doc-link",
                        message: format!(
                            "broken anchor: `#{frag}` matches no heading in `{target_path}`"
                        ),
                    });
                }
            }
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((diags, files.len(), total_links))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_follow_github_rules() {
        assert_eq!(slug(" Sharded determinism"), "sharded-determinism");
        assert_eq!(slug(" §5. The `ring` hand-off"), "5-the-ring-hand-off");
        assert_eq!(slug(" WAL resume/replay"), "wal-resumereplay");
    }

    #[test]
    fn duplicate_headings_get_numeric_suffixes() {
        let a = anchors("# One\n## Two\n## Two\n");
        assert_eq!(a, vec!["one", "two", "two-1"]);
    }

    #[test]
    fn fenced_code_is_not_scanned() {
        let src = "# T\n```\n[not](a-link.md)\n# not a heading\n```\n[real](#t)\n";
        assert_eq!(links(src).len(), 1);
        assert_eq!(anchors(src), vec!["t"]);
    }

    #[test]
    fn inline_code_spans_hide_bracket_pairs() {
        let src = "see `arr[0](x)` and [ok](#h)\n# H\n";
        let ls = links(src);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].dest, "#h");
    }

    #[test]
    fn reference_definitions_are_links_too() {
        let ls = links("[spec]: ./MISSING.md\n");
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].dest, "./MISSING.md");
    }
}
