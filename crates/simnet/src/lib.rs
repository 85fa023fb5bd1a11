//! Synthetic internet substrate — the paper's data substitution.
//!
//! The paper's raw inputs (ORION telescope captures, Merit NetFlow,
//! mirrored packet taps, GreyNoise ground truth) are proprietary. This
//! crate generates a synthetic internet whose *wire-visible invariants*
//! match what the paper's pipeline keys on, so the telescope, flow and
//! detection code runs unmodified:
//!
//! * [`rng`] — a small, fully deterministic PRNG (splitmix64/xoshiro256**)
//!   plus the distributions the actors need;
//! * [`permute`] — a Feistel-network bijection used to reproduce
//!   ZMap-style random-permutation target ordering;
//! * [`space`] — the *observable space* scaling trick: scanners
//!   conceptually sweep all of IPv4, but only packets landing in the
//!   simulated observable prefixes (dark space, the two ISPs, honeypot
//!   sensors) are ever materialized, with rates thinned accordingly;
//! * `actors` — behavioral scanner models (ZMap, Masscan, Mirai bots,
//!   bruteforcing scanners, acknowledged research sweeps, vertical port
//!   sweeps, DoS backscatter, background radiation, benign user traffic);
//! * [`mux`] — the time-ordered event-queue multiplexer;
//! * [`ring`] — a bounded lock-free SPSC ring buffer used by the
//!   sharded parallel pipeline to fan packets out to worker threads;
//! * [`faults`] — seeded fault injection (drops, duplicates, bounded
//!   reordering, truncation, corruption, burst outages) applied between
//!   the mux and the measurement consumers;
//! * [`world`] — the address plan and org/AS registry, and the builders
//!   for the intel substrate (ASN DB, rDNS, acknowledged list);
//! * [`scenario`] — paper-shaped presets: Darknet-1 (2021), Darknet-2
//!   (2022), the flow weeks, the 72-hour packet taps, the GreyNoise
//!   month.

#![warn(missing_docs)]

mod actors;
pub mod faults;
pub mod mux;
pub mod permute;
pub mod ring;
pub mod rng;
pub mod scenario;
pub mod space;
pub mod world;
