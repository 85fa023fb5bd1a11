//! Network-telescope substrate (ORION-style).
//!
//! A telescope passively records traffic destined to a *dark* (unused but
//! routed) address block. This crate provides:
//!
//! * [`capture`] — the dark-space filter and scanning-packet classifier,
//!   with running capture statistics (Table 1 of the paper);
//! * [`event`] — *darknet events* ("logical scans"): per
//!   (source IP, destination port, traffic type) aggregation with an idle
//!   timeout, the unit over which all three aggressive-hitter definitions
//!   are computed;
//! * [`timeout`] — the Moore et al. flow-timeout derivation the paper uses
//!   to pick its ~10-minute event expiration;
//! * [`daily`] — a per-day packet tally that only the benchmark's staged
//!   rebuild uses;
//! * [`dstset`] — a memory-adaptive exact distinct-counter used for
//!   per-event destination dispersion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod daily;
pub mod dstset;
pub mod event;
pub mod timeout;
