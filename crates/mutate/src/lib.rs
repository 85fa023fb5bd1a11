//! `ah-mutate` — the workspace's first-party mutation-testing harness.
//!
//! The repo's deliverable is a *daily AH blocklist* whose value rests on
//! bitwise-reproducible detector decisions. A silently-flipped threshold
//! comparison, a weakened atomic ordering, or a dropped CRC check ships
//! bad intelligence without failing a single existing test — unless the
//! test suite would notice. Mutation testing measures exactly that:
//! plant a plausible bug (a *mutant*), run the tests, and demand they
//! fail. A mutant the suite kills is evidence; one that *survives* is a
//! blind spot with a file:line attached.
//!
//! The harness is zero-dependency and token-level, built on its own
//! small lexer (see [`ops`] for the operator set), so mutations never
//! land in strings, comments, or `#[cfg(test)]` code. The pipeline:
//!
//! * `lexer` — tokens with byte spans and line numbers, plus the line
//!   ranges of `#[cfg(test)]`/`#[test]` items;
//! * [`ops`] — mutation operators + per-file site enumeration; every
//!   mutant gets a stable content-derived id (FNV-1a over
//!   `path ‖ offset ‖ operator ‖ replacement`) so reports diff cleanly
//!   across commits;
//! * [`plan`] — workspace walking (product crates only) and
//!   deterministic `--sample`/`--seed` subsetting;
//! * [`runner`] — applies one mutant at a time to a scratch copy of the
//!   tree, drives `cargo build`/`cargo test` with per-mutant wall-clock
//!   timeouts, and classifies **caught / survived / timeout /
//!   build-broken**;
//! * [`sentinel`] — the curated must-be-caught set backing the CI
//!   `mutation` gate (ring orderings, WAL CRC/truncation, detector
//!   thresholds, watermark comparisons);
//! * [`report`] — `out/mutants.json` plus the markdown survivor table.
//!
//! See ARCHITECTURE.md §14 for the operator table, the id scheme and
//! the sentinel-set rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
pub mod ops;
pub mod plan;
pub mod report;
pub mod runner;
pub mod sentinel;

pub use ops::{enumerate_source, Mutant, OPERATORS};
pub use runner::Outcome;
