//! `ah-wal` — durable write-ahead packet log for the aggressive-scanner
//! pipeline.
//!
//! The simulation pipeline is deterministic, but a run is only
//! re-creatable while the code and seeds that produced it exist. This
//! crate gives runs a durable form: every packet the feeder produces is
//! appended to an on-disk log that survives crashes, can be **resumed**
//! mid-simulation, and can be **replayed** through the vantage points
//! without re-simulating — producing bitwise-identical daily
//! aggressive-scanner lists. The log is the run's raw input: fault
//! injection happens after it, from the caller's plan. The crate knows
//! nothing of scenarios: frame 0 holds the caller's description of the
//! run as opaque bytes, and the caller compares it.
//!
//! Layering, bottom up:
//!
//! * `crc` — hand-rolled CRC32 (the workspace has no third-party
//!   dependencies).
//! * [`frame`] — length-prefixed, CRC-framed log entries with monotonic
//!   sequence numbers.
//! * [`record`] — the domain payloads: an opaque run description,
//!   packets, and the end-of-run seal.
//! * `segment` — on-disk segment files; the log is exactly its
//!   `*.seg` files.
//! * `writer` — batched group-commit appends, segment rotation, the
//!   durable watermark, and a deliberate crash hook for fault drills.
//! * [`mod@recover`] — the recovery scanner: validates every frame,
//!   truncates at the first torn/corrupt one, drops unreachable
//!   segments, and streams the surviving records to the caller.
//!
//! Durability contract, in one paragraph: a frame is durable once the
//! group commit containing it returns ([`writer::WalWriter::commit`]
//! writes + `fdatasync`s the batch). Recovery never invents data and
//! never keeps a suffix after damage: the recovered log is exactly the
//! durable prefix, and recovering twice is a no-op. The pipeline-side
//! wiring (`ah-pipeline`'s `wal` runners) builds suspend/resume and
//! replay on top of those two guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod frame;
pub mod record;
pub mod recover;
mod segment;
mod writer;

pub use record::{RunSeal, WalRecord, FNV_OFFSET};
pub use recover::{recover, RecoveredLog};
pub use segment::segment_paths;
pub use writer::{WalWriter, WalWriterConfig};
