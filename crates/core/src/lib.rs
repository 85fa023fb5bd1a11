//! The paper's contribution: aggressive-hitter detection over darknet
//! events, network-impact measurement, and longitudinal characterization.
//!
//! Pipeline overview:
//!
//! ```text
//! telescope events ──► Detector ──► AhReport (yearly/daily/active lists,
//!        │                          thresholds, per-event records)
//!        │                               │
//!        │             ┌─────────────────┼──────────────────┐
//!        ▼             ▼                 ▼                  ▼
//!   characterize   impact (flows)   impact (taps)       validate
//!   (origins,      Table 2/4/8      Figures 1/2     (ACKed: Table 6,
//!    ports, trends, protocols                        GreyNoise: Table 9,
//!    Zipf)         Table 3                           Figure 6)
//! ```
//!
//! * [`ecdf`] — empirical CDFs and top-α thresholds;
//! * [`defs`] — the three aggressive-hitter definitions;
//! * [`detector`] — streaming event compaction and list finalization;
//! * [`lists`] — set algebra over hitter lists (Jaccard, intersections);
//! * [`health`] — per-stage graceful-degradation ledgers (received /
//!   accepted / repaired / quarantined / discarded-by-category);
//! * [`impact`] — joins against flow datasets and live packet taps;
//! * [`characterize`] — origins, port profiles, temporal trends, Zipf;
//! * [`validate`] — acknowledged-scanner and honeypot cross-validation;
//! * [`report`] — text-table and CSV rendering for the experiment runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod defs;
pub mod detector;
pub mod ecdf;
pub mod health;
pub mod impact;
pub mod lists;
pub mod report;
pub mod validate;
