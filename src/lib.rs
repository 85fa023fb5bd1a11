//! # aggressive-scanners
//!
//! A full reproduction of *"Aggressive Internet-Wide Scanners: Network
//! Impact and Longitudinal Characterization"* (CoNEXT 2023) as a Rust
//! workspace:
//!
//! * [`net`] — packet substrate (IPv4/TCP/UDP/ICMP, pcap, prefixes,
//!   scanner fingerprints);
//! * [`telescope`] — ORION-style darknet capture and darknet-event
//!   aggregation;
//! * [`flow`] — NetFlow-style sampling, flow caches, and the border-
//!   router/peering model;
//! * [`ah_intel`] — ASN registry, Acknowledged-Scanners list, reverse DNS,
//!   GreyNoise-style honeypot;
//! * [`simnet`] — the synthetic internet standing in for the paper's
//!   proprietary traces (see `DESIGN.md` for the substitution table);
//! * [`core`] — the paper's contribution: three aggressive-hitter
//!   definitions, network-impact measurement, characterization;
//! * [`obs`] — observation-only pipeline telemetry: atomic instruments
//!   behind a cheap [`obs::Recorder`] handle plus JSONL/Prometheus
//!   snapshot export (see `ARCHITECTURE.md` §Observability);
//! * [`ah_mem`] — tagged-allocator memory observability: per-subsystem
//!   live/peak/cumulative accounting behind [`ah_mem::MemScope`] tag
//!   scopes, installed process-wide by this crate's
//!   `#[global_allocator]` (see `ARCHITECTURE.md` §13);
//! * [`wal`] — durable write-ahead event store: CRC-framed append-only
//!   segments with crash recovery, powering suspend/resume and
//!   re-simulation-free replay (see `ARCHITECTURE.md` §Durability);
//! * [`pipeline`] (this crate) — turnkey end-to-end runs used by the
//!   examples, the integration tests, and the experiment harness;
//! * [`cli`] (this crate) — the observability flags the two binaries
//!   share.
//!
//! ## Quickstart
//!
//! ```
//! use aggressive_scanners::pipeline::{self, RunOptions};
//! use aggressive_scanners::simnet::scenario::ScenarioConfig;
//! use aggressive_scanners::core::defs::Definition;
//!
//! // A 2-day miniature world; see ScenarioConfig::darknet for full runs.
//! let run = pipeline::run(ScenarioConfig::tiny(2, 42), RunOptions::darknet_only());
//! let hitters = run.report.hitters(Definition::AddressDispersion);
//! println!("{} aggressive hitters detected", hitters.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ah_core as core;
pub use ah_flow as flow;
pub use ah_net as net;
pub use ah_obs as obs;
pub use ah_simnet as simnet;
pub use ah_telescope as telescope;
pub use ah_wal as wal;

/// The tagged system allocator (see [`ah_mem`]). Installing it here puts
/// every binary, test, bench, and example linking this crate under
/// per-subsystem memory accounting; until
/// [`ah_mem::set_accounting`]`(true)` is called the shim only pads each
/// allocation with its 8-byte header. Declaring the static is safe —
/// all `unsafe` stays inside `ah-mem`'s allocator shim.
#[global_allocator]
static GLOBAL_ALLOC: ah_mem::TaggedSystem = ah_mem::TaggedSystem::new();

pub mod cli;
pub mod pipeline;
