//! The lint passes and the suppression machinery.
//!
//! Each lint is a token-pattern check over the [`lexer`](crate::lexer)
//! stream of one file. Suppressions are first-class and *audited*: an
//! `// ah-lint: allow(<id>, reason = "…")` comment silences the named
//! lint on its own and the following line, `allow-file` silences it
//! for the whole file, and a suppression without a non-empty reason is
//! itself a diagnostic — the allowlist stays self-documenting.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, Token};

/// One finding: where, which lint, and what is wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint id (one of [`LINTS`]).
    pub lint: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Render as the canonical `file:line: [lint] message` form.
    pub fn human(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }

    /// Render as a single JSON object (first-party, no serde).
    pub fn json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            ah_obs::json::escape(&self.file),
            self.line,
            self.lint,
            ah_obs::json::escape(&self.message)
        )
    }
}

/// Every lint this tool knows, with a one-line description.
pub const LINTS: &[(&str, &str)] = &[
    ("panic-path", "no unwrap/expect/panic!/todo!/unimplemented!/unreachable! in non-test library code"),
    ("atomic-ordering", "SeqCst/Relaxed atomic orderings only at sites justified by an ORDERING:/SAFETY: comment"),
    ("metric-name", "metric registration and ah-trace span/track name literals must satisfy the ah_<crate>_<subsystem>_<name> scheme"),
    ("unsafe-safety-comment", "unsafe blocks/impls/traits need a SAFETY: comment; unsafe fns need a '# Safety' doc section"),
    ("doc-header", "crate roots must carry #![warn(missing_docs)]; every module file must open with a doc comment"),
    ("doc-link", "markdown links must resolve: relative paths exist, #anchors match a heading"),
    ("unsafe-forbid", "crate roots must carry #![forbid(unsafe_code)] unless allow-file'd with a reason"),
    ("bad-suppression", "ah-lint suppression comments must name a known lint and carry a reason"),
    ("unused-suppression", "an allow/allow-file whose lint would not have fired must be removed"),
];

/// True when `id` names a known lint.
pub fn known_lint(id: &str) -> bool {
    LINTS.iter().any(|(l, _)| *l == id)
}

/// Everything the passes need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative display path.
    pub path: &'a str,
    /// True for `src/lib.rs` of a crate (doc-header / unsafe-forbid
    /// apply).
    pub crate_root: bool,
    /// Token stream of the file.
    pub tokens: &'a [Token],
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    fn diag(&self, line: u32, lint: &'static str, message: String) -> Diagnostic {
        Diagnostic { file: self.path.to_string(), line, lint, message }
    }
}

/// Parsed suppressions for one file.
#[derive(Default)]
pub struct Suppressions {
    /// Lints silenced for the whole file, each with the line of the
    /// `allow-file` comment that declared it (for unused reporting).
    pub file: HashMap<String, u32>,
    /// (lint, line) pairs; a suppression on line L silences L and L+1.
    pub line: HashSet<(String, u32)>,
    /// Malformed suppression comments found while parsing.
    pub bad: Vec<(u32, String)>,
}

impl Suppressions {
    /// Is `lint` silenced at `line`?
    pub fn allows(&self, lint: &str, line: u32) -> bool {
        self.file.contains_key(lint)
            || self.line.contains(&(lint.to_string(), line))
            || (line > 0 && self.line.contains(&(lint.to_string(), line - 1)))
    }
}

/// Parse `ah-lint:` control comments out of the token stream.
pub fn parse_suppressions(tokens: &[Token]) -> Suppressions {
    let mut sup = Suppressions::default();
    for t in tokens {
        let text = match &t.kind {
            Tok::Comment(c) | Tok::DocComment(c) => c.trim(),
            _ => continue,
        };
        let Some(rest) = text.strip_prefix("ah-lint:") else { continue };
        let rest = rest.trim();
        let (file_scope, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
            (true, b)
        } else if let Some(b) = rest.strip_prefix("allow(") {
            (false, b)
        } else {
            sup.bad.push((t.line, format!("unrecognized ah-lint directive: `{rest}`")));
            continue;
        };
        let Some(body) = body.strip_suffix(')') else {
            sup.bad.push((t.line, "unterminated ah-lint directive (missing `)`)".into()));
            continue;
        };
        let (id, tail) = match body.split_once(',') {
            Some((id, tail)) => (id.trim(), tail.trim()),
            None => (body.trim(), ""),
        };
        if !known_lint(id) {
            sup.bad.push((t.line, format!("unknown lint `{id}` in suppression")));
            continue;
        }
        let reason_ok = tail
            .strip_prefix("reason")
            .map(|r| r.trim_start().trim_start_matches('='))
            .map(|r| r.trim())
            .is_some_and(|r| r.len() > 2 && r.starts_with('"') && r.ends_with('"'));
        if !reason_ok {
            sup.bad.push((
                t.line,
                format!("suppression of `{id}` needs a reason: allow({id}, reason = \"…\")"),
            ));
            continue;
        }
        if file_scope {
            sup.file.entry(id.to_string()).or_insert(t.line);
        } else {
            sup.line.insert((id.to_string(), t.line));
        }
    }
    sup
}

/// Compute the (inclusive) line ranges covered by `#[cfg(test)]` /
/// `#[test]` items, so panic-path and friends skip test code. Works on
/// tokens, so braces in strings or comments cannot confuse the
/// tracker.
pub fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> =
        tokens.iter().filter(|t| !matches!(t.kind, Tok::Comment(_) | Tok::DocComment(_))).collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].kind != Tok::Punct('#')
            || code.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct('['))
        {
            i += 1;
            continue;
        }
        let attr_start_line = code[i].line;
        // Collect idents to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            match &code[j].kind {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test = idents.contains(&"test")
            && !idents.contains(&"not")
            && idents.first() != Some(&"cfg_attr");
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the item itself: to the
        // matching `}` of its first top-level `{`, or to a `;` if one
        // comes first (e.g. a use declaration).
        while j + 1 < code.len()
            && code[j].kind == Tok::Punct('#')
            && code[j + 1].kind == Tok::Punct('[')
        {
            let mut d = 1i32;
            let mut k = j + 2;
            while k < code.len() && d > 0 {
                match code[k].kind {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        let mut brace = 0i32;
        let mut end_line = code.get(j.saturating_sub(1)).map_or(attr_start_line, |t| t.line);
        while j < code.len() {
            match code[j].kind {
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = code[j].line;
                        j += 1;
                        break;
                    }
                }
                Tok::Punct(';') if brace == 0 => {
                    end_line = code[j].line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = code[j].line;
            j += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = j;
    }
    ranges
}

/// Run the selected lints over one file.
pub fn run_lints(ctx: &FileCtx<'_>, enabled: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let sup = parse_suppressions(ctx.tokens);
    let mut out = Vec::new();
    if enabled("bad-suppression") {
        for (line, msg) in &sup.bad {
            out.push(ctx.diag(*line, "bad-suppression", msg.clone()));
        }
    }
    if enabled("panic-path") {
        panic_path(ctx, &mut out);
    }
    if enabled("atomic-ordering") {
        atomic_ordering(ctx, &mut out);
    }
    if enabled("metric-name") {
        metric_name(ctx, &mut out);
    }
    if enabled("unsafe-safety-comment") {
        unsafe_safety_comment(ctx, &mut out);
    }
    if enabled("doc-header") {
        doc_header(ctx, &mut out);
    }
    if ctx.crate_root && enabled("unsafe-forbid") {
        unsafe_forbid(ctx, &mut out);
    }
    // An allow that silenced nothing is itself a finding: compute usage
    // against the *pre-filter* diagnostics, so a suppression is "used"
    // exactly when some finding it covers actually fired. Lints not
    // enabled in this run are skipped — under `--lint` filtering we
    // cannot know whether the suppressed lint would have fired.
    if enabled("unused-suppression") {
        let mut unused = Vec::new();
        for (id, decl_line) in &sup.file {
            if enabled(id) && !out.iter().any(|d| d.lint == id.as_str()) {
                unused.push((*decl_line, id.clone(), true));
            }
        }
        for (id, decl_line) in &sup.line {
            let hit = out.iter().any(|d| {
                d.lint == id.as_str() && (d.line == *decl_line || d.line == decl_line + 1)
            });
            if enabled(id) && !hit {
                unused.push((*decl_line, id.clone(), false));
            }
        }
        for (line, id, file_scope) in unused {
            let form = if file_scope { "allow-file" } else { "allow" };
            out.push(ctx.diag(
                line,
                "unused-suppression",
                format!(
                    "unused {form}({id}): the suppressed lint would not have fired — remove it"
                ),
            ));
        }
    }
    out.retain(|d| d.lint == "bad-suppression" || !sup.allows(d.lint, d.line));
    out.sort_by_key(|d| d.line);
    out
}

/// Code tokens only (comments stripped), preserving order.
fn code_tokens<'a>(ctx: &'a FileCtx<'_>) -> Vec<&'a Token> {
    ctx.tokens.iter().filter(|t| !matches!(t.kind, Tok::Comment(_) | Tok::DocComment(_))).collect()
}

/// Contiguous runs of comment lines, merged into blocks: (first line,
/// last line, concatenated text). A `// SAFETY:` argument often spans
/// several lines; anchoring on the whole block lets the nearby-ness
/// checks measure from the block's end, not the line the keyword
/// happens to sit on. Doc and non-doc comments merge separately.
fn comment_blocks(tokens: &[Token], doc: bool) -> Vec<(u32, u32, String)> {
    let mut blocks: Vec<(u32, u32, String)> = Vec::new();
    for t in tokens {
        let (is_doc, text) = match &t.kind {
            Tok::Comment(c) => (false, c),
            Tok::DocComment(c) => (true, c),
            _ => continue,
        };
        if is_doc != doc {
            continue;
        }
        let end = t.line + text.matches('\n').count() as u32;
        match blocks.last_mut() {
            Some((_, last_end, body)) if t.line <= *last_end + 1 => {
                *last_end = end;
                body.push('\n');
                body.push_str(text);
            }
            _ => blocks.push((t.line, end, text.clone())),
        }
    }
    blocks
}

/// Is there a block (from `blocks`) containing `needle` whose end is
/// within `above` lines above `line`, or whose start is within `below`
/// lines below it?
fn near_block(
    blocks: &[(u32, u32, String)],
    needle: &str,
    line: u32,
    above: u32,
    below: u32,
) -> bool {
    blocks.iter().any(|(start, end, body)| {
        body.contains(needle)
            && ((*end <= line && line - end <= above) || (*start >= line && start - line <= below))
    })
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let code = code_tokens(ctx);
    for (i, t) in code.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.kind else { continue };
        let prev = i.checked_sub(1).and_then(|p| code.get(p)).map(|t| &t.kind);
        let next = code.get(i + 1).map(|t| &t.kind);
        if (name == "unwrap" || name == "expect")
            && prev == Some(&Tok::Punct('.'))
            && next == Some(&Tok::Punct('('))
        {
            out.push(ctx.diag(
                t.line,
                "panic-path",
                format!(".{name}() in library code — return a Result or annotate with a reason"),
            ));
        } else if PANIC_MACROS.contains(&name.as_str()) && next == Some(&Tok::Punct('!')) {
            out.push(ctx.diag(
                t.line,
                "panic-path",
                format!("{name}! in library code — return an error or annotate with a reason"),
            ));
        }
    }
}

fn atomic_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    // A SeqCst/Relaxed site is fine when a nearby comment block (same
    // line or just above) argues for it with ORDERING: or SAFETY:.
    let mut blocks = comment_blocks(ctx.tokens, false);
    blocks.extend(comment_blocks(ctx.tokens, true));
    for t in code_tokens(ctx) {
        if ctx.in_test(t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.kind else { continue };
        if name != "Relaxed" && name != "SeqCst" {
            continue;
        }
        if near_block(&blocks, "ORDERING:", t.line, 2, 0)
            || near_block(&blocks, "SAFETY:", t.line, 2, 0)
        {
            continue;
        }
        out.push(ctx.diag(
            t.line,
            "atomic-ordering",
            format!(
                "Ordering::{name} without an ORDERING:/SAFETY: justification — \
                 use Acquire/Release or justify the weaker/stronger ordering"
            ),
        ));
    }
}

const METRIC_FNS: &[&str] =
    &["counter", "counter_with", "gauge", "gauge_with", "histogram", "histogram_with"];

/// ah-trace registration points whose first string-literal argument is a
/// span/instant/track name. ah-trace checks them with the metric
/// predicate (`ah_obs::valid_metric_name`), so violations report as
/// `metric-name`.
const TRACE_FNS: &[&str] = &["span", "journey_span", "instant", "journey_instant", "set_track"];

/// Memory-observability helpers (`src/pipeline.rs`) whose first
/// string-literal argument is an `ah_mem_*` gauge/counter name. They are
/// deliberately name-first so this pass sees the same
/// `ident ( "literal"` shape as the recorder methods.
const MEM_FNS: &[&str] = &["mem_gauge", "mem_counter"];

fn metric_name(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let code = code_tokens(ctx);
    for (i, t) in code.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.kind else { continue };
        let is_metric = METRIC_FNS.contains(&name.as_str()) || MEM_FNS.contains(&name.as_str());
        let is_trace = TRACE_FNS.contains(&name.as_str());
        if !is_metric && !is_trace {
            continue;
        }
        if code.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct('(')) {
            continue;
        }
        let Some(Tok::Str(lit)) = code.get(i + 2).map(|t| &t.kind) else { continue };
        if !ah_obs::valid_metric_name(lit) {
            let kind = if is_metric { "metric" } else { "trace span/track" };
            out.push(ctx.diag(
                t.line,
                "metric-name",
                format!(
                    "{kind} name \"{lit}\" violates the ah_<crate>_<subsystem>_<name> scheme \
                     (ah_obs::valid_metric_name)"
                ),
            ));
        }
    }
}

fn unsafe_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let comments = comment_blocks(ctx.tokens, false);
    let docs = comment_blocks(ctx.tokens, true);
    let code = code_tokens(ctx);
    for (i, t) in code.iter().enumerate() {
        if !matches!(&t.kind, Tok::Ident(name) if name == "unsafe") {
            continue;
        }
        let next = code.get(i + 1).map(|t| &t.kind);
        let is_block_like = matches!(next, Some(Tok::Punct('{')))
            || matches!(next, Some(Tok::Ident(k)) if k == "impl" || k == "trait");
        let is_fn = matches!(next, Some(Tok::Ident(k)) if k == "fn");
        if is_block_like {
            // Block / impl / trait: want `// SAFETY:` ending on the
            // same line or within the 4 lines above (rustfmt may wrap
            // the statement the comment was written against).
            if !near_block(&comments, "SAFETY:", t.line, 4, 0) {
                out.push(ctx.diag(
                    t.line,
                    "unsafe-safety-comment",
                    "unsafe without a `// SAFETY:` comment justifying it".into(),
                ));
            }
        } else if is_fn {
            // An unsafe fn documents its contract in a `# Safety` doc
            // section; a trait-impl definition may instead carry the
            // `// SAFETY:` justification just above or inside its body
            // (the trait declaration owns the contract).
            if !near_block(&docs, "# Safety", t.line, 4, 0)
                && !near_block(&comments, "SAFETY:", t.line, 4, 3)
            {
                out.push(ctx.diag(
                    t.line,
                    "unsafe-safety-comment",
                    "unsafe fn without a `# Safety` doc section or SAFETY: comment".into(),
                ));
            }
        }
    }
}

/// Does the stream open with `#![<level>(<what>)]`? Scans all inner
/// attributes of the file.
fn has_inner_attr(ctx: &FileCtx<'_>, levels: &[&str], what: &str) -> bool {
    let code = code_tokens(ctx);
    let mut i = 0;
    while i + 4 < code.len() {
        if code[i].kind == Tok::Punct('#')
            && code[i + 1].kind == Tok::Punct('!')
            && code[i + 2].kind == Tok::Punct('[')
        {
            let mut d = 1i32;
            let mut j = i + 3;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() && d > 0 {
                match &code[j].kind {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    Tok::Ident(s) => idents.push(s),
                    _ => {}
                }
                j += 1;
            }
            if idents.first().is_some_and(|l| levels.contains(l)) && idents.contains(&what) {
                return true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

fn doc_header(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.crate_root && !has_inner_attr(ctx, &["warn", "deny", "forbid"], "missing_docs") {
        out.push(ctx.diag(
            1,
            "doc-header",
            "crate root lacks #![warn(missing_docs)] (or deny/forbid)".into(),
        ));
    }
    // Every module file — crate root or not — opens with a doc block:
    // some doc comment must precede the first code token. (Token-level
    // heuristic: an outer `///` on the first item also satisfies this,
    // but rustfmt'd module files put the `//!` header first, so in
    // practice this pins the module-doc convention.)
    let first_code = ctx
        .tokens
        .iter()
        .find(|t| !matches!(t.kind, Tok::Comment(_) | Tok::DocComment(_)))
        .map_or(u32::MAX, |t| t.line);
    let has_doc =
        ctx.tokens.iter().any(|t| matches!(t.kind, Tok::DocComment(_)) && t.line < first_code);
    if !has_doc {
        out.push(ctx.diag(
            1,
            "doc-header",
            "module file lacks a leading `//!` doc block describing the module".into(),
        ));
    }
}

fn unsafe_forbid(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !has_inner_attr(ctx, &["forbid", "deny"], "unsafe_code") {
        out.push(
            ctx.diag(
                1,
                "unsafe-forbid",
                "crate root lacks #![forbid(unsafe_code)]; crates that need unsafe \
             allow-file this lint with a reason"
                    .into(),
            ),
        );
    }
}
