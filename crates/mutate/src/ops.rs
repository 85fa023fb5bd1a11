//! Token-level mutation operators and the per-file site enumerator.
//!
//! Mutants are byte-range edits derived from the `lexer` module's
//! token stream, so a mutation can never land inside a string literal,
//! comment, or `#[cfg(test)]` region. The operators target the failure
//! classes the workspace actually fears (see ARCHITECTURE.md §14):
//! flipped or off-by-one threshold comparisons, logic and arithmetic
//! swaps, and silent saturating/wrapping arithmetic substitutions.
//!
//! Token-level means heuristics, not syntax: `<` and `>` double as
//! generic brackets, `&&`/`||`/`*`/`-` have prefix readings. The
//! enumerator filters those with neighbour-shape rules (expression
//! ender on the left, starter on the right, type-like identifiers
//! skipped); the few misfires that slip through fail to compile and are
//! classified `build-broken` by the runner — noisy, never wrong.

use ah_net::hash::{fnv1a_fold, FNV_OFFSET};

use crate::lexer::{lex, test_ranges, Tok, Token};

/// One candidate mutation: a byte-range splice in one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutant {
    /// Stable content-derived id: FNV-1a over
    /// `file ‖ NUL ‖ start-offset ‖ NUL ‖ op ‖ NUL ‖ replacement`,
    /// rendered as 16 hex chars (the replacement disambiguates
    /// operators that emit several mutants at one site, e.g. lit-bump's
    /// up and down nudges).
    pub id: String,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the mutated site.
    pub line: u32,
    /// Operator id (one of [`OPERATORS`]).
    pub op: &'static str,
    /// Byte offset of the replaced range.
    pub start: usize,
    /// Byte offset one past the replaced range.
    pub end: usize,
    /// Original source text of the range.
    pub original: String,
    /// Replacement text.
    pub replacement: String,
    /// The full (trimmed) source line, for reports and sentinel
    /// matching.
    pub context: String,
}

impl Mutant {
    /// Apply this mutant to `src`, returning the mutated file body.
    pub fn apply(&self, src: &str) -> String {
        let mut out = String::with_capacity(src.len() + self.replacement.len());
        out.push_str(&src[..self.start]);
        out.push_str(&self.replacement);
        out.push_str(&src[self.end..]);
        out
    }
}

/// Every operator id with a one-line description.
pub const OPERATORS: &[(&str, &str)] = &[
    ("cmp-swap", "swap a comparison with its boundary neighbour: < ↔ <=, > ↔ >=, == ↔ !="),
    ("lit-bump", "nudge an integer literal adjacent to a comparison by ±1"),
    ("logic-swap", "swap && ↔ ||"),
    ("arith-swap", "swap + ↔ - and * ↔ / (plain and compound-assign forms)"),
    ("sat-wrap", "swap saturating_* ↔ wrapping_* method calls"),
];

fn mutant_id(file: &str, start: usize, op: &str, replacement: &str) -> String {
    let key = format!("{file}\u{0}{start}\u{0}{op}\u{0}{replacement}");
    format!("{:016x}", fnv1a_fold(FNV_OFFSET, key.as_bytes()))
}

/// A code atom: either a single non-punct token or a run of adjacent
/// punctuation combined into one of Rust's composite operators.
struct Atom {
    text: String,
    start: usize,
    end: usize,
    line: u32,
    kind: AtomKind,
}

/// What an atom is; punctuation (single or composite) is `Op`.
enum AtomKind {
    Op,
    Ident(String),
    Num,
    Str,
    Char,
    Lifetime,
}

/// Composite punctuation operators, longest-match-first.
const COMPOSITES: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn combine(tokens: &[&Token], src: &str) -> Vec<Atom> {
    let mut atoms: Vec<Atom> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        let (n, kind) = match &t.kind {
            Tok::Punct(_) => {
                // Greedy maximal munch over span-adjacent puncts.
                let mut munch = 1;
                for want in COMPOSITES {
                    let n = want.len();
                    if i + n > tokens.len() {
                        continue;
                    }
                    let adjacent = (0..n).all(|k| {
                        matches!(tokens[i + k].kind, Tok::Punct(_))
                            && (k == 0 || tokens[i + k].start == tokens[i + k - 1].end)
                    });
                    if adjacent && src.get(t.start..tokens[i + n - 1].end) == Some(*want) {
                        munch = n;
                        break;
                    }
                }
                (munch, AtomKind::Op)
            }
            Tok::Ident(s) => (1, AtomKind::Ident(s.clone())),
            Tok::Num => (1, AtomKind::Num),
            Tok::Str => (1, AtomKind::Str),
            Tok::Char => (1, AtomKind::Char),
            Tok::Lifetime => (1, AtomKind::Lifetime),
            // Comments were filtered out by the caller.
            Tok::Comment => (1, AtomKind::Op),
        };
        let end = tokens[i + n - 1].end;
        atoms.push(Atom {
            text: src.get(t.start..end).unwrap_or_default().to_string(),
            start: t.start,
            end,
            line: t.line,
            kind,
        });
        i += n;
    }
    atoms
}

/// Identifier that names a type (CamelCase-ish or primitive): the shape
/// generic brackets wrap, so `<`/`>` beside one reads as a bracket.
fn type_like(id: &str) -> bool {
    const PRIMITIVES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "f32", "f64", "bool", "char", "str", "dyn", "impl",
    ];
    if PRIMITIVES.contains(&id) {
        return true;
    }
    let mut chars = id.chars();
    let first_upper = chars.next().is_some_and(|c| c.is_ascii_uppercase());
    // CamelCase (has a lowercase tail, no underscores) or a bare
    // single-capital generic parameter; SCREAMING_CASE constants are
    // expressions, not types.
    first_upper
        && !id.contains('_')
        && (id.len() == 1 || id.chars().any(|c| c.is_ascii_lowercase()))
}

fn is_ident(kind: &AtomKind) -> Option<&str> {
    match kind {
        AtomKind::Ident(s) => Some(s),
        _ => None,
    }
}

/// Can this atom end an expression (left operand of a binary op)?
fn expr_ender(a: &Atom) -> bool {
    match &a.kind {
        AtomKind::Ident(s) => !is_keyword_nonvalue(s),
        AtomKind::Num | AtomKind::Str | AtomKind::Char => true,
        AtomKind::Op => a.text == ")" || a.text == "]",
        AtomKind::Lifetime => false,
    }
}

/// Can this atom start an expression (right operand of a binary op)?
fn expr_starter(a: &Atom) -> bool {
    match &a.kind {
        AtomKind::Ident(s) => !is_keyword_nonvalue(s),
        AtomKind::Num | AtomKind::Str | AtomKind::Char => true,
        AtomKind::Op => a.text == "(",
        AtomKind::Lifetime => false,
    }
}

/// Keywords that never stand as a value operand.
fn is_keyword_nonvalue(id: &str) -> bool {
    const KW: &[&str] = &[
        "as", "break", "const", "continue", "crate", "else", "enum", "extern", "fn", "for", "if",
        "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
        "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "dyn",
    ];
    KW.contains(&id)
}

/// The 1-based line texts of `src`, trimmed, for mutant context.
fn line_text(src: &str, line: u32) -> String {
    src.lines().nth(line as usize - 1).unwrap_or_default().trim().to_string()
}

/// Enumerate every mutation site in one file. `rel_path` feeds the
/// mutant ids, so pass the same workspace-relative path on every
/// machine (forward slashes).
pub fn enumerate_source(rel_path: &str, src: &str) -> Vec<Mutant> {
    let tokens = lex(src);
    let tests = test_ranges(&tokens);
    let in_test = |line: u32| tests.iter().any(|&(a, b)| a <= line && line <= b);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != Tok::Comment).collect();
    let atoms = combine(&code, src);
    let mut out = Vec::new();
    let mut push = |op: &'static str, start: usize, end: usize, line: u32, replacement: String| {
        out.push(Mutant {
            id: mutant_id(rel_path, start, op, &replacement),
            file: rel_path.to_string(),
            line,
            op,
            start,
            end,
            original: src[start..end].to_string(),
            replacement,
            context: line_text(src, line),
        });
    };

    for (i, a) in atoms.iter().enumerate() {
        if in_test(a.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &atoms[p]);
        let next = atoms.get(i + 1);

        if let Some(id) = is_ident(&a.kind) {
            // --- sat-wrap: saturating_* ↔ wrapping_* calls.
            if next.is_some_and(|n| n.text == "(") {
                if let Some(rest) = id.strip_prefix("saturating_") {
                    push("sat-wrap", a.start, a.end, a.line, format!("wrapping_{rest}"));
                } else if let Some(rest) = id.strip_prefix("wrapping_") {
                    push("sat-wrap", a.start, a.end, a.line, format!("saturating_{rest}"));
                }
            }
            continue;
        }
        if !matches!(a.kind, AtomKind::Op) {
            continue;
        }

        // Neighbour shape for the ambiguous operators.
        let prev_ender = prev.is_some_and(expr_ender);
        let next_starter = next.is_some_and(expr_starter);
        // After an operand, a binary `-`, `*` or `/` is never followed by a
        // type, so a unary `*`, `&`, `-` or `!` starts its right operand.
        let next_operand =
            next_starter || next.is_some_and(|n| matches!(n.text.as_str(), "*" | "&" | "-" | "!"));
        let prev_type = prev.and_then(|p| is_ident(&p.kind)).is_some_and(type_like);
        let next_type = next.and_then(|n| is_ident(&n.kind)).is_some_and(type_like);
        let next_lifetime = next.is_some_and(|n| matches!(n.kind, AtomKind::Lifetime));
        let prev_turbofish = prev.is_some_and(|p| p.text == "::");
        // A `<`/`>` reads as a comparison only when both operands are
        // expression-shaped and neither side looks like a type.
        let comparison_shaped = prev_ender
            && next_starter
            && !prev_type
            && !next_type
            && !next_lifetime
            && !prev_turbofish;

        let swap: Option<&'static str> = match a.text.as_str() {
            "<" if comparison_shaped => Some("<="),
            ">" if comparison_shaped => Some(">="),
            "<=" => Some("<"),
            ">=" => Some(">"),
            "==" => Some("!="),
            "!=" => Some("=="),
            _ => None,
        };
        if let Some(rep) = swap {
            push("cmp-swap", a.start, a.end, a.line, rep.into());
        }

        // --- lit-bump: integer literal beside a genuine comparison.
        let is_cmp = matches!(a.text.as_str(), "<=" | ">=" | "==" | "!=")
            || (matches!(a.text.as_str(), "<" | ">") && comparison_shaped);
        if is_cmp {
            for side in [prev, next].into_iter().flatten() {
                if !matches!(side.kind, AtomKind::Num) || in_test(side.line) {
                    continue;
                }
                if let Some((value, suffix)) = parse_int(&side.text) {
                    push(
                        "lit-bump",
                        side.start,
                        side.end,
                        side.line,
                        format!("{}{}", value + 1, suffix),
                    );
                    if value > 0 {
                        push(
                            "lit-bump",
                            side.start,
                            side.end,
                            side.line,
                            format!("{}{}", value - 1, suffix),
                        );
                    }
                }
            }
        }

        // --- logic-swap: && ↔ || (prefix readings excluded by shape).
        if (a.text == "&&" || a.text == "||") && prev_ender && next_starter {
            let rep = if a.text == "&&" { "||" } else { "&&" };
            push("logic-swap", a.start, a.end, a.line, rep.into());
        }

        // --- arith-swap.
        let arith: Option<&'static str> = match a.text.as_str() {
            // Binary-position plain operators; `*` additionally must not
            // head a raw-pointer type.
            "+" if prev_ender && !prev_type && !next_type && !next_lifetime => Some("-"),
            "-" if prev_ender && next_operand => Some("+"),
            "*" if prev_ender
                && next_operand
                && !matches!(next.and_then(|n| is_ident(&n.kind)), Some("const" | "mut")) =>
            {
                Some("/")
            }
            "/" if prev_ender && next_operand => Some("*"),
            // Compound assignments are unambiguous.
            "+=" => Some("-="),
            "-=" => Some("+="),
            "*=" => Some("/="),
            "/=" => Some("*="),
            _ => None,
        };
        if let Some(rep) = arith {
            push("arith-swap", a.start, a.end, a.line, rep.into());
        }
    }
    out
}

/// Parse a decimal integer literal with optional `_` separators and an
/// optional `u*`/`i*` suffix. Floats, non-decimal radixes and
/// exponent forms return `None`.
fn parse_int(text: &str) -> Option<(u128, &str)> {
    if text.contains('.') {
        return None;
    }
    let bytes = text.as_bytes();
    if bytes.len() >= 2 && bytes[0] == b'0' && bytes[1].is_ascii_alphabetic() {
        return None; // 0x / 0o / 0b
    }
    let digits_end = bytes.iter().position(|b| !b.is_ascii_digit() && *b != b'_');
    let (digits, suffix) = match digits_end {
        Some(p) => text.split_at(p),
        None => (text, ""),
    };
    if digits.is_empty()
        || !(suffix.is_empty() || suffix.starts_with('u') || suffix.starts_with('i'))
    {
        return None;
    }
    let cleaned: String = digits.chars().filter(|c| *c != '_').collect();
    cleaned.parse::<u128>().ok().map(|v| (v, suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_at(src: &str) -> Vec<(&'static str, String, String)> {
        enumerate_source("f.rs", src)
            .into_iter()
            .map(|m| (m.op, m.original, m.replacement))
            .collect()
    }

    #[test]
    fn comparisons_swap_and_generics_do_not() {
        let got = ops_at("//! d\nfn f(a: usize, cap: usize) -> bool { a <= cap }\n");
        assert!(got.contains(&("cmp-swap", "<=".into(), "<".into())), "{got:?}");
        let got = ops_at("//! d\nfn f(a: u64, b: u64) -> bool { a < b }\n");
        assert!(got.contains(&("cmp-swap", "<".into(), "<=".into())), "{got:?}");
        // Generic brackets, turbofish, fat arrows, shifts: untouched.
        for src in [
            "//! d\nfn f(v: Vec<u8>) -> Option<u32> { None }\n",
            "//! d\nfn f() { let x = Vec::<u8>::new(); }\n",
            "//! d\nfn f(x: u8) -> u8 { match x { 1 => 2, _ => 3 } }\n",
            "//! d\nfn f(x: u8) -> u8 { x << 2 }\n",
        ] {
            let got = ops_at(src);
            assert!(
                got.iter().all(|(op, o, _)| *op != "cmp-swap" && o != "<" && o != ">"),
                "{src}: {got:?}"
            );
        }
    }

    #[test]
    fn equality_swaps_both_ways() {
        let got = ops_at("//! d\nfn f(a: u8) -> bool { a == 0 || a != 9 }\n");
        assert!(got.contains(&("cmp-swap", "==".into(), "!=".into())));
        assert!(got.contains(&("cmp-swap", "!=".into(), "==".into())));
        assert!(got.contains(&("logic-swap", "||".into(), "&&".into())));
    }

    #[test]
    fn literals_bump_only_beside_comparisons() {
        let got = ops_at("//! d\nfn f(a: u64) -> bool { a >= 10 }\n");
        assert!(got.contains(&("lit-bump", "10".into(), "11".into())), "{got:?}");
        assert!(got.contains(&("lit-bump", "10".into(), "9".into())), "{got:?}");
        // Suffixes survive; zero does not bump down; floats and hex skip.
        let got = ops_at("//! d\nfn f(a: u64) -> bool { a > 4_096u64 }\n");
        assert!(got.contains(&("lit-bump", "4_096u64".into(), "4097u64".into())), "{got:?}");
        let got = ops_at("//! d\nfn f(a: u64) -> bool { a == 0 }\n");
        assert_eq!(got.iter().filter(|(op, ..)| *op == "lit-bump").count(), 1, "{got:?}");
        let got = ops_at("//! d\nfn f(a: f64, b: u64) -> bool { a < 1.5 && b < 0x1f }\n");
        assert!(got.iter().all(|(op, ..)| *op != "lit-bump"), "{got:?}");
        // An assignment literal with no comparison nearby is not a site.
        let got = ops_at("//! d\nfn f() -> u64 { let x = 10; x }\n");
        assert!(got.iter().all(|(op, ..)| *op != "lit-bump"), "{got:?}");
    }

    #[test]
    fn logic_swap_skips_references_and_closures() {
        for src in [
            "//! d\nfn f(x: &&u32) -> u32 { **x }\n",
            "//! d\nfn f() -> u32 { (|| 1)() }\n",
            "//! d\nfn f(v: Option<u32>) -> u32 { v.map_or_else(|| 0, |x| x) }\n",
        ] {
            let got = ops_at(src);
            assert!(got.iter().all(|(op, ..)| *op != "logic-swap"), "{src}: {got:?}");
        }
    }

    #[test]
    fn arithmetic_swaps_in_binary_position_only() {
        let got = ops_at("//! d\nfn f(a: u64, b: u64) -> u64 { a + b * 2 }\n");
        assert!(got.contains(&("arith-swap", "+".into(), "-".into())), "{got:?}");
        assert!(got.contains(&("arith-swap", "*".into(), "/".into())), "{got:?}");
        // Unary minus, deref, raw pointers, arrows, trait bounds: no.
        for src in [
            "//! d\nfn f(a: i64) -> i64 { -a }\n",
            "//! d\nfn f(a: &u64) -> u64 { *a }\n",
            "//! d\nfn f(p: *const u8) -> *const u8 { p }\n",
            "//! d\nfn f() -> u8 { 0 }\n",
            "//! d\nfn f<T: Send + Sync>(t: T) -> T { t }\n",
        ] {
            let got = ops_at(src);
            assert!(got.iter().all(|(op, ..)| *op != "arith-swap"), "{src}: {got:?}");
        }
        let got = ops_at("//! d\nfn f(a: &mut u64) { *a += 3; }\n");
        assert!(got.contains(&("arith-swap", "+=".into(), "-=".into())), "{got:?}");
        // A unary operator opening the right operand: yes.
        for (src, op, rep) in [
            ("//! d\nfn f(a: u64, b: &u64) -> u64 { a - *b }\n", "-", "+"),
            ("//! d\nfn f(a: u64, b: &u64) -> u64 { a * *b }\n", "*", "/"),
            ("//! d\nfn f(a: &V, b: V) -> V { a - &b }\n", "-", "+"),
        ] {
            let got = ops_at(src);
            let swaps: Vec<_> = got.iter().filter(|(o, ..)| *o == "arith-swap").collect();
            assert_eq!(swaps, [&("arith-swap", op.into(), rep.into())], "{src}: {got:?}");
        }
    }

    #[test]
    fn saturating_wrapping_swap_both_ways() {
        let got = ops_at("//! d\nfn f(a: u64) -> u64 { a.saturating_sub(1).wrapping_add(2) }\n");
        assert!(got.contains(&("sat-wrap", "saturating_sub".into(), "wrapping_sub".into())));
        assert!(got.contains(&("sat-wrap", "wrapping_add".into(), "saturating_add".into())));
    }

    #[test]
    fn strings_comments_and_test_code_are_never_sites() {
        let src = "//! d\n\
                   // a < b && c == d in a comment\n\
                   fn f() -> &'static str { \"x < y && z\" }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { assert!(1 < 2 && 3 == 3); }\n\
                   }\n";
        assert!(ops_at(src).is_empty(), "{:?}", ops_at(src));
    }

    #[test]
    fn applying_a_mutant_splices_exactly() {
        let src = "//! d\nfn f(a: u64) -> bool { a >= 10 }\n";
        let ms = enumerate_source("f.rs", src);
        let cmp = ms.iter().find(|m| m.op == "cmp-swap").unwrap();
        assert_eq!(cmp.apply(src), "//! d\nfn f(a: u64) -> bool { a > 10 }\n");
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let src = "//! d\nfn f(a: u64) -> bool { a >= 10 && a <= 20 }\n";
        let a = enumerate_source("crates/x/src/l.rs", src);
        let b = enumerate_source("crates/x/src/l.rs", src);
        assert_eq!(a, b);
        let mut ids: Vec<&str> = a.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len(), "duplicate mutant ids");
        // Same site, different file ⇒ different id.
        let c = enumerate_source("crates/y/src/l.rs", src);
        assert_ne!(a[0].id, c[0].id);
    }
}
