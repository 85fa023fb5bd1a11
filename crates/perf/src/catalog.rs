//! The metric catalogue: every end-to-end metric with its regression
//! bound, every per-layer metric with its unit, and the stages of the
//! cost ledger. `BENCHMARK.json` is this file written as JSON (a test
//! holds the two together).

use crate::stats::{Better, Bound};

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How much worse the median may get before it is a regression.
    pub bound: Bound,
}

const fn rel(rel: f64) -> Bound {
    Bound { rel, abs_floor: 0.0 }
}

/// The end-to-end metrics, per workload.
///
/// The first [`CONTRACT_END_TO_END`] are the ones `BENCHMARK.json`
/// lists: its contract wants metrics every workload reports, that are
/// never 0, and that hold still when only the *seed* changes — so the
/// gated cost metrics are normalised (CPU per packet, resident bytes per
/// darknet event). The raw totals (`run_s`, `cpu_s`, `peak_rss_bytes`)
/// move with the generated input's size and are reported beside them;
/// `wal_bytes_per_packet` exists on one workload only and rides in the
/// file's per-layer list; `failed_share` is 0 on a healthy run and rides
/// in the result line's `attempted`/`failed`.
///
/// `packets_per_s`, `cpu_ns_per_packet` and `setup_s` are in
/// reference-host seconds — measured seconds × the host speed the
/// [`crate::probe`] read around the child — because the reference
/// host's speed wanders by a factor of 1.5 over minutes; `run_s` and
/// `cpu_s` are as measured. Their bounds stay wide: what the probe
/// cannot cancel (second-to-second noise, and contention that hits the
/// product and the probe's kernel differently) still spreads ten runs
/// by 5–10%, and a bound a back-to-back A/A cannot hold is noise.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "packets_per_s", unit: "1/s", better: Better::Higher, bound: rel(0.25) },
    EndToEnd { name: "cpu_ns_per_packet", unit: "ns", better: Better::Lower, bound: rel(0.25) },
    EndToEnd {
        name: "rss_bytes_per_event",
        unit: "bytes",
        better: Better::Lower,
        bound: rel(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound { rel: 0.25, abs_floor: 0.25 },
    },
    EndToEnd { name: "run_s", unit: "s", better: Better::Lower, bound: rel(0.25) },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: rel(0.25) },
    EndToEnd { name: "peak_rss_bytes", unit: "bytes", better: Better::Lower, bound: rel(0.15) },
    // `durable` only.
    EndToEnd {
        name: "wal_bytes_per_packet",
        unit: "bytes",
        better: Better::Lower,
        bound: rel(0.01),
    },
    EndToEnd { name: "failed_share", unit: "share", better: Better::Lower, bound: rel(0.0) },
];

/// How many of [`END_TO_END`], from the front, `BENCHMARK.json` lists.
pub const CONTRACT_END_TO_END: usize = 4;

/// The workloads `BENCHMARK.json` lists for the pipeline's driver — two
/// pairs, each an optimisation's mechanism and its bypass: telescope
/// against flow layers, serial engine against sharded. The driver's time
/// limit buys either many workloads or runs long enough to hold still on
/// a shared host, and a gate that cannot hold still gates on noise; the
/// other four are measured by `all` and `check`.
pub const CONTRACT_WORKLOADS: [&str; 4] = ["darknet", "flows", "full-serial", "full-parallel"];

/// One row of the cost ledger: a span name and how to normalise it.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Span name; `<name>.busy_s` is the stage's total self time.
    pub name: &'static str,
    /// Suffix of the per-unit cost metric (`<name>.<per_unit>`), when
    /// the catalogue has one for this stage.
    pub per_unit: Option<&'static str>,
    /// Count metrics summed into the unit count.
    pub count: &'static [&'static str],
    /// False for a span that re-does work already inside another stage:
    /// reported, but not added to the ledger sum.
    pub in_sum: bool,
}

const fn stage(
    name: &'static str,
    per_unit: Option<&'static str>,
    count: &'static [&'static str],
) -> Stage {
    Stage { name, per_unit, count, in_sum: true }
}

/// The ledger's stages, in pipeline order.
pub const LEDGER: [Stage; 16] = [
    stage("simnet.mux", Some("ns_per_packet"), &["simnet.mux.packets_out"]),
    stage("simnet.faults", Some("ns_per_packet"), &["simnet.faults.packets_in"]),
    stage("simnet.ring", Some("ns_per_packet"), &["simnet.ring.packets"]),
    stage("wal.append", Some("ns_per_frame"), &["wal.append.frames"]),
    stage("wal.commit", None, &["wal.commit.commits"]),
    stage("wal.recover", Some("ns_per_frame"), &["wal.recover.frames"]),
    stage("telescope.observe", Some("ns_per_packet"), &["telescope.observe.packets_in"]),
    Stage {
        name: "telescope.events",
        per_unit: Some("ns_per_packet"),
        count: &["telescope.events.packets_in"],
        in_sum: false,
    },
    stage("flow.merit", Some("ns_per_packet"), &["flow.merit.packets_in"]),
    stage("flow.cu", Some("ns_per_packet"), &["flow.cu.packets_in"]),
    stage(
        "intel.greynoise",
        Some("ns_per_packet"),
        &["intel.greynoise.accepted", "intel.greynoise.ignored"],
    ),
    stage("telescope.flush", None, &["core.detector.ingest.events_in"]),
    stage("flow.finish", None, &["flow.merit.records_out", "flow.cu.records_out"]),
    stage("flow.v9", Some("ns_per_record"), &["flow.v9.records"]),
    stage("core.detector.ingest", Some("ns_per_event"), &["core.detector.ingest.events_in"]),
    stage("core.detector.finalize", None, &["core.detector.ingest.events_in"]),
];

/// One per-layer metric: name, unit, direction of improvement.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as Hi, Lower as Lo};

/// Every per-layer metric, as listed in `BENCHMARK.json`. A workload
/// that does not run a stage reports that stage's metrics as 0.
pub const PER_LAYER: [PerLayer; 74] = [
    ("simnet.mux.busy_s", "s", Lo),
    ("simnet.mux.ns_per_packet", "ns", Lo),
    ("simnet.mux.packets_out", "count", Hi),
    ("simnet.faults.busy_s", "s", Lo),
    ("simnet.faults.ns_per_packet", "ns", Lo),
    ("simnet.faults.packets_in", "count", Hi),
    ("simnet.faults.packets_out", "count", Hi),
    ("simnet.faults.discarded", "count", Lo),
    ("simnet.faults.duplicated", "count", Lo),
    ("simnet.ring.busy_s", "s", Lo),
    ("simnet.ring.ns_per_packet", "ns", Lo),
    ("simnet.ring.packets", "count", Hi),
    ("simnet.ring.hwm_slots", "count", Lo),
    ("telescope.observe.busy_s", "s", Lo),
    ("telescope.observe.ns_per_packet", "ns", Lo),
    ("telescope.observe.packets_in", "count", Hi),
    ("telescope.observe.captured", "count", Hi),
    ("telescope.observe.capture_share", "share", Hi),
    ("telescope.events.busy_s", "s", Lo),
    ("telescope.events.ns_per_packet", "ns", Lo),
    ("telescope.events.packets_in", "count", Hi),
    ("telescope.events.events_out", "count", Hi),
    ("telescope.events.quarantined", "count", Lo),
    ("telescope.flush.busy_s", "s", Lo),
    ("flow.merit.busy_s", "s", Lo),
    ("flow.merit.ns_per_packet", "ns", Lo),
    ("flow.merit.packets_in", "count", Hi),
    ("flow.merit.records_out", "count", Hi),
    ("flow.cu.busy_s", "s", Lo),
    ("flow.cu.ns_per_packet", "ns", Lo),
    ("flow.cu.packets_in", "count", Hi),
    ("flow.cu.records_out", "count", Hi),
    ("flow.finish.busy_s", "s", Lo),
    ("flow.v9.busy_s", "s", Lo),
    ("flow.v9.ns_per_record", "ns", Lo),
    ("flow.v9.records", "count", Hi),
    ("flow.v9.decode_failed", "count", Lo),
    ("intel.greynoise.busy_s", "s", Lo),
    ("intel.greynoise.ns_per_packet", "ns", Lo),
    ("intel.greynoise.accepted", "count", Hi),
    ("intel.greynoise.ignored", "count", Lo),
    ("core.detector.ingest.busy_s", "s", Lo),
    ("core.detector.ingest.ns_per_event", "ns", Lo),
    ("core.detector.ingest.events_in", "count", Hi),
    ("core.detector.finalize.busy_s", "s", Lo),
    ("core.detector.finalize.hitters_d1", "count", Hi),
    ("core.detector.finalize.hitters_d2", "count", Hi),
    ("core.detector.finalize.hitters_d3", "count", Hi),
    ("wal.append.busy_s", "s", Lo),
    ("wal.append.ns_per_frame", "ns", Lo),
    ("wal.append.frames", "count", Hi),
    ("wal.append.bytes", "bytes", Lo),
    ("wal.commit.busy_s", "s", Lo),
    ("wal.commit.commits", "count", Lo),
    ("wal.commit.us_p50", "us", Lo),
    ("wal.commit.us_p99", "us", Lo),
    ("wal.recover.busy_s", "s", Lo),
    ("wal.recover.ns_per_frame", "ns", Lo),
    ("wal.recover.frames", "count", Hi),
    ("wal.recover.torn_tail_s", "s", Lo),
    ("wal_bytes_per_packet", "bytes", Lo),
    ("mem.mux.peak_bytes", "bytes", Lo),
    ("mem.telescope.peak_bytes", "bytes", Lo),
    ("mem.flow.peak_bytes", "bytes", Lo),
    ("mem.wal.peak_bytes", "bytes", Lo),
    ("mem.merge.peak_bytes", "bytes", Lo),
    ("mem.detectors.peak_bytes", "bytes", Lo),
    ("mem.trace.peak_bytes", "bytes", Lo),
    ("mem.obs.peak_bytes", "bytes", Lo),
    ("pipeline.residual_s", "s", Lo),
    ("pipeline.residual_share", "share", Lo),
    ("pipeline.trace_overhead_ratio", "ratio", Lo),
    ("pipeline.ledger_sum_s", "s", Lo),
    ("obs.overhead_ratio", "ratio", Lo),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().take(CONTRACT_END_TO_END).map(|m| m.name));
        names.extend(crate::adapter::WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        for w in &crate::adapter::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for name in CONTRACT_WORKLOADS {
            assert!(crate::adapter::workload(name).is_some(), "{name}");
        }
    }

    #[test]
    fn every_ledger_metric_is_in_the_catalogue() {
        let has = |n: &str| PER_LAYER.iter().any(|m| m.0 == n);
        for s in LEDGER {
            assert!(has(&format!("{}.busy_s", s.name)), "{}", s.name);
            if let Some(per) = s.per_unit {
                assert!(has(&format!("{}.{per}", s.name)), "{}", s.name);
            }
            for c in s.count {
                assert!(has(c), "{c}");
            }
        }
    }

    #[test]
    fn benchmark_json_is_this_catalogue() {
        let json = include_str!("../../../BENCHMARK.json");
        assert_eq!(json.trim_end(), crate::report::benchmark_json().trim_end());
    }
}
