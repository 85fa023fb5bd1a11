//! `ah-perf` — the repo's benchmark.
//!
//! Eight workloads drive the product through its public pipeline entry
//! points, each timed repeat in a fresh child process; a staged,
//! single-threaded rebuild of every workload attributes the time to
//! layers (the cost ledger); and an A/A `check` holds two sets of runs
//! of the same code to the benchmark's own regression bounds. A
//! host-speed [`probe`] run between children puts the gated times in
//! reference-host seconds, so a shared host's slow spells do not read as
//! regressions. See `README.md` in this crate for the catalogue and how
//! to read it.
//!
//! The product is measured from outside only: every call into it is in
//! [`adapter`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod catalog;
pub mod driver;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire;
