//! A small token-level lexer for Rust source.
//!
//! This is deliberately *not* a parser: the mutation operators are
//! token-pattern rewrites, so all the lexer must get right is the hard
//! part of tokenization — knowing what is code and what is not.
//! Comments (line, nested block, doc), string literals (cooked, raw,
//! byte, raw byte), char literals versus lifetimes, and raw
//! identifiers are all recognized exactly, so a `<` inside a string or
//! an `&&` inside a comment can never become a mutation site.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers are unescaped: `r#type`
    /// lexes as `type`).
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// String literal (cooked, raw, byte, or raw byte).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`) or the placeholder lifetime (`'_`).
    Lifetime,
    /// Numeric literal.
    Num,
    /// Comment of any form: line, nested block, or doc.
    Comment,
}

/// A token plus the 1-based line it starts on and its byte span.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind (and an identifier's name).
    pub kind: Tok,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Byte offset of the token's first character in the source.
    pub start: usize,
    /// Byte offset one past the token's last character (so
    /// `&src[start..end]` is the token's exact source text).
    pub end: usize,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. The lexer is total: any byte sequence produces a
/// token stream (unterminated literals run to end of file), because a
/// site enumerator must keep going where a compiler would stop.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { b: src.as_bytes(), src, i: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.b.len() {
            let line = self.line;
            let start = self.i;
            let before = self.out.len();
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'"' => {
                    self.cooked_string();
                    self.push(Tok::Str, line);
                }
                b'\'' => self.char_or_lifetime(line),
                b'r' | b'b' if self.literal_prefix() => self.prefixed_literal(line),
                _ if is_ident_start(c) => {
                    let id = self.ident();
                    self.push(Tok::Ident(id), line);
                }
                _ if c.is_ascii_digit() => {
                    self.number();
                    self.push(Tok::Num, line);
                }
                _ => {
                    self.push(Tok::Punct(c as char), line);
                    self.i += 1;
                }
            }
            // Each arm pushes at most one token; stamp its byte span
            // here so the handlers stay span-agnostic.
            if self.out.len() > before {
                let end = self.i;
                if let Some(tok) = self.out.last_mut() {
                    tok.start = start;
                    tok.end = end;
                }
            }
        }
        self.out
    }

    fn peek(&self, n: usize) -> Option<u8> {
        self.b.get(self.i + n).copied()
    }

    fn push(&mut self, kind: Tok, line: u32) {
        // start/end are stamped by `run` once the handler returns.
        self.out.push(Token { kind, line, start: 0, end: 0 });
    }

    fn bump_line_counter(&mut self, from: usize, to: usize) {
        self.line += self.b[from..to].iter().filter(|&&b| b == b'\n').count() as u32;
    }

    fn line_comment(&mut self, line: u32) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.push(Tok::Comment, line);
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.i;
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.i += 1;
            }
        }
        self.bump_line_counter(start, self.i);
        self.push(Tok::Comment, line);
    }

    /// Cooked string starting at the opening quote.
    fn cooked_string(&mut self) {
        let start = self.i + 1;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => break,
                _ => self.i += 1,
            }
        }
        let end = self.i.min(self.b.len());
        self.bump_line_counter(start, end);
        self.i = (end + 1).min(self.b.len());
    }

    /// True when the `r`/`b` at the cursor starts a literal rather than
    /// an identifier: `r"`, `r#"`, `b"`, `b'`, `br`, `rb` forms.
    fn literal_prefix(&self) -> bool {
        let mut j = self.i;
        // Up to two prefix letters (b, r, br, rb — rb isn't real Rust
        // but accepting it is harmless).
        let mut letters = 0;
        while letters < 2 && matches!(self.b.get(j), Some(&b'r') | Some(&b'b')) {
            j += 1;
            letters += 1;
        }
        let mut hashes = false;
        while self.b.get(j) == Some(&b'#') {
            j += 1;
            hashes = true;
        }
        match self.b.get(j) {
            Some(&b'"') => true,
            // b'x' byte literal; a raw identifier like r#type has no quote.
            Some(&b'\'') => !hashes && self.b[self.i] == b'b',
            _ => false,
        }
    }

    fn prefixed_literal(&mut self, line: u32) {
        let mut raw = false;
        while matches!(self.b.get(self.i), Some(&b'r') | Some(&b'b')) {
            raw |= self.b[self.i] == b'r';
            self.i += 1;
        }
        if !raw {
            // b"…" cooked byte string or b'…' byte char.
            if self.b.get(self.i) == Some(&b'"') {
                self.cooked_string();
                self.push(Tok::Str, line);
            } else {
                self.byte_char();
                self.push(Tok::Char, line);
            }
            return;
        }
        let mut hashes = 0usize;
        while self.b.get(self.i) == Some(&b'#') {
            hashes += 1;
            self.i += 1;
        }
        // Opening quote.
        self.i += 1;
        let start = self.i;
        let closer: Vec<u8> =
            std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
        while self.i < self.b.len() && !self.b[self.i..].starts_with(&closer) {
            self.i += 1;
        }
        let end = self.i.min(self.b.len());
        self.bump_line_counter(start, end);
        self.i = (end + closer.len()).min(self.b.len());
        self.push(Tok::Str, line);
    }

    /// Byte char `b'x'` starting at the quote.
    fn byte_char(&mut self) {
        self.i += 1; // opening '
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // 'a' is a char; 'a (no closing quote after the ident) is a
        // lifetime; '\n' and '\u{…}' are chars.
        if self.peek(1) == Some(b'\\') {
            self.byte_char();
            self.push(Tok::Char, line);
            return;
        }
        if let Some(c1) = self.peek(1) {
            if is_ident_continue(c1) {
                let mut j = self.i + 2;
                while self.b.get(j).is_some_and(|&b| is_ident_continue(b)) {
                    j += 1;
                }
                if self.b.get(j) == Some(&b'\'') {
                    self.i = j + 1;
                    self.push(Tok::Char, line);
                } else {
                    self.i = j;
                    self.push(Tok::Lifetime, line);
                }
                return;
            }
        }
        // ''' or stray quote: treat as a char-ish token, consume quote.
        self.byte_char();
        self.push(Tok::Char, line);
    }

    fn ident(&mut self) -> String {
        let mut start = self.i;
        // Raw identifier r#name.
        if self.b[self.i] == b'r' && self.peek(1) == Some(b'#') {
            self.i += 2;
            start = self.i;
        }
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.src[start..self.i].to_string()
    }

    fn number(&mut self) {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.i += 1;
            } else if c == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // 1.5 continues the number; 1..5 and 1.method() do not.
                self.i += 1;
            } else {
                break;
            }
        }
    }
}

/// Compute the (inclusive) line ranges covered by `#[cfg(test)]` /
/// `#[test]` items, so test code is never a mutation site. Works on
/// tokens, so braces in strings or comments cannot confuse the
/// tracker.
pub fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != Tok::Comment).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_not_code() {
        let src = r##"
            // calls unwrap() in a comment
            /* panic! in /* nested */ block */
            let s = "x.unwrap()";
            let r = r#"panic!("hi")"#;
            let b = b"expect";
            real_ident();
        "##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "let", "b", "real_ident"]);
    }

    #[test]
    fn chars_lifetimes_and_raw_idents() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let t = r#type; }";
        let ids = idents(src);
        assert!(ids.contains(&"type".to_string()), "raw ident unescapes");
        let kinds: Vec<_> = lex(src).into_iter().map(|t| t.kind).collect();
        assert_eq!(kinds.iter().filter(|k| matches!(k, Tok::Lifetime)).count(), 2);
        assert_eq!(kinds.iter().filter(|k| matches!(k, Tok::Char)).count(), 2);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n\"two\nline\"\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4, "line counter must advance past multi-line strings");
    }

    #[test]
    fn every_comment_form_is_one_comment_token() {
        let toks = lex("/// doc\n//! inner\n// plain\n//// separator\n/** block */\n/*!inner*/");
        assert_eq!(toks.len(), 6);
        assert!(toks.iter().all(|t| t.kind == Tok::Comment));
    }

    #[test]
    fn byte_spans_cover_the_source_exactly() {
        let src = "let x = r#\"raw\"# + 0x1f; // tail\n'a'";
        for t in lex(src) {
            assert!(t.start < t.end, "empty span for {:?}", t.kind);
            assert!(t.end <= src.len());
            let text = &src[t.start..t.end];
            match &t.kind {
                Tok::Ident(s) => assert_eq!(text, s),
                Tok::Str => assert!(text.starts_with("r#\"") && text.ends_with("\"#"), "{text}"),
                Tok::Punct(c) => assert_eq!(text, c.to_string()),
                Tok::Comment => assert!(text.starts_with("//")),
                _ => {}
            }
        }
    }

    #[test]
    fn spans_are_contiguous_outside_whitespace() {
        // Re-splicing every token's span text plus the gaps between
        // spans must reproduce the source byte-for-byte.
        let src = "fn f(a: u8) -> bool { a <= 3 && a != 0 /* c */ }";
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut cursor = 0;
        for t in &toks {
            rebuilt.push_str(&src[cursor..t.start]);
            rebuilt.push_str(&src[t.start..t.end]);
            cursor = t.end;
        }
        rebuilt.push_str(&src[cursor..]);
        assert_eq!(rebuilt, src);
        // And the gaps are pure whitespace: tokens never overlap or
        // swallow neighbouring code.
        let mut prev_end = 0;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping spans");
            assert!(src[prev_end..t.start].chars().all(char::is_whitespace));
            prev_end = t.end;
        }
    }

    #[test]
    fn spans_of_tricky_literals_are_exact() {
        // Byte-accurate spans over the forms the mutation harness must
        // never splice into: raw strings with `#` delimiters, byte
        // strings, escaped byte chars, labelled-loop lifetimes.
        let src = r###"let a = r##"x"## ; let b = b"y"; let c = b'\''; 'l: loop { break 'l; }"###;
        let toks = lex(src);
        let texts: Vec<&str> = toks.iter().map(|t| &src[t.start..t.end]).collect();
        assert!(texts.contains(&r###"r##"x"##"###), "{texts:?}");
        assert!(texts.contains(&r#"b"y""#), "{texts:?}");
        assert!(texts.contains(&r"b'\''"), "{texts:?}");
        assert_eq!(texts.iter().filter(|t| **t == "'l").count(), 2);
        let strs = toks.iter().filter(|t| t.kind == Tok::Str).count();
        let lifetimes = toks.iter().filter(|t| matches!(t.kind, Tok::Lifetime)).count();
        assert_eq!((strs, lifetimes), (2, 2));
    }

    #[test]
    fn nested_block_comment_span_runs_to_outer_close() {
        let src = "a /* o /* i */ still */ b";
        let toks = lex(src);
        assert_eq!(toks.len(), 3);
        assert_eq!(&src[toks[1].start..toks[1].end], "/* o /* i */ still */");
        assert_eq!(toks[1].kind, Tok::Comment);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("0..10 1.max(2) 3.5_f64");
        let puncts: Vec<char> = toks
            .iter()
            .filter_map(|t| match t.kind {
                Tok::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!['.', '.', '.', '(', ')']);
    }
}
