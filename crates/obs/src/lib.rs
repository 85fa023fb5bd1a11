//! Lightweight telemetry for the measurement pipeline.
//!
//! Every long replay in this workspace (22 simulated months through the
//! serial or sharded engine) used to be a black box until the end-of-run
//! structs came back. This crate adds the missing live view: cheap
//! instruments the hot paths can update, and a snapshot exporter that
//! periodically serializes everything to JSONL and Prometheus
//! text-exposition files.
//!
//! # Design
//!
//! * [`Recorder`] is the single entry point: a cheap, cloneable handle.
//!   [`Recorder::noop`] produces a disabled recorder whose instruments
//!   are `None` inside — every update compiles to a branch on an
//!   `Option` discriminant and nothing else, which is what keeps the
//!   "telemetry off" overhead inside the pipeline bench's 2% budget.
//! * Instruments are plain atomics behind `Arc`s: [`Counter`] (monotone
//!   add), [`Gauge`] (set / set-max), and [`Histogram`] (fixed upper
//!   bounds chosen at registration, atomic bucket counts plus sum and
//!   count). [`Histogram::time`] returns a `SpanTimer` guard that
//!   observes elapsed wall-clock microseconds on drop.
//! * **Observation-only contract.** Instruments never feed back into the
//!   code that updates them: no instrument has a read path the pipeline
//!   consults, so a run with telemetry enabled produces output bitwise
//!   identical to one without (`tests/telemetry.rs` in the workspace
//!   root holds the engines to exactly this).
//! * Metric names follow `ah_<crate>_<subsystem>_<name>` (validated by
//!   [`valid_metric_name`]: every registration `debug_assert!`s it, and
//!   the binary-level tests check every exported name against it).
//!   Wall-clock derived values (span timers) are exported for operators
//!   but never folded into run output, so determinism of results is
//!   unaffected by scheduler noise.
//!
//! # Example
//!
//! ```
//! use ah_obs::Recorder;
//!
//! let rec = Recorder::new();
//! let pkts = rec.counter("ah_demo_stage_packets_total");
//! pkts.add(3);
//! let lag = rec.histogram("ah_demo_stage_lag_us", ah_obs::LATENCY_US_BUCKETS);
//! lag.observe(250);
//! let snap = rec.snapshot();
//! assert_eq!(snap.samples.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod json;
mod recorder;

pub use export::{to_jsonl_line, Exporter, HistogramSnapshot, Sample, Snapshot, Value};
pub use recorder::{Counter, Gauge, Histogram, Recorder};

/// Default bucket upper bounds for microsecond latency histograms:
/// 1 µs … 10 s in a 1-2-5 ladder. Values above the last bound land in
/// the implicit `+Inf` bucket.
pub const LATENCY_US_BUCKETS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    1_000_000, 10_000_000,
];

/// True when `name` follows the workspace metric naming scheme
/// `ah_<crate>_<subsystem>_<name>`: at least four `_`-separated
/// segments, the first exactly `ah`, every segment non-empty lowercase
/// ASCII alphanumeric.
pub fn valid_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('_').collect();
    segments.len() >= 4
        && segments[0] == "ah"
        && segments.iter().all(|s| {
            !s.is_empty() && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_scheme() {
        assert!(valid_metric_name("ah_flow_cache_occupancy"));
        assert!(valid_metric_name("ah_telescope_agg_watermark_lag_us"));
        assert!(valid_metric_name("ah_simnet_ring_occupancy_hwm"));
        assert!(!valid_metric_name("flow_cache_occupancy")); // no ah_ prefix
        assert!(!valid_metric_name("ah_flow_occupancy")); // too few segments
        assert!(!valid_metric_name("ah_Flow_cache_occupancy")); // uppercase
        assert!(!valid_metric_name("ah_flow__occupancy")); // empty segment
        assert!(!valid_metric_name("ah_flow_cache_occupancy ")); // whitespace
    }
}
