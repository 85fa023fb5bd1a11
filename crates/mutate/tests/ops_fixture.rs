//! Fixture-driven enumeration test: `fixtures/sites.rs` marks every
//! line that must produce mutation sites with `//~ <op>…` (distinct
//! operators, order-free), and every unmarked line must produce none —
//! the marker idiom of rustc's UI tests.

use std::collections::BTreeSet;

use ah_mutate::enumerate_source;

#[test]
fn fixture_lines_enumerate_exactly_the_marked_operators() {
    let src = include_str!("fixtures/sites.rs");
    let mutants = enumerate_source("crates/x/src/sites.rs", src);

    // line -> distinct ops enumerated there.
    let mut got: std::collections::BTreeMap<u32, BTreeSet<&str>> = Default::default();
    for m in &mutants {
        got.entry(m.line).or_default().insert(m.op);
    }

    let mut checked_lines = 0;
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let want: BTreeSet<&str> = match line.split_once("//~") {
            Some((_, marks)) => marks.split_whitespace().collect(),
            None => BTreeSet::new(),
        };
        let have = got.remove(&lineno).unwrap_or_default();
        assert_eq!(
            have,
            want,
            "line {lineno} `{}`: enumerated {have:?}, fixture expects {want:?}",
            line.trim()
        );
        checked_lines += 1;
    }
    assert!(got.is_empty(), "mutants past the last line: {got:?}");
    assert!(checked_lines > 50, "fixture unexpectedly short");
    assert!(mutants.len() >= 15, "fixture should be operator-dense, got {}", mutants.len());
}
