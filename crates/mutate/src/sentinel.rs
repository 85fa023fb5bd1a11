//! The sentinel set: curated mutants the suite **must** catch, backing
//! the CI `mutation` gate.
//!
//! A full sweep is too slow for every CI run (one CPU, minutes per
//! mutant), so the gate runs a hand-picked set of mutants at the
//! system's load-bearing decision points — WAL CRC/truncation handling,
//! the log-to-run match, where a journaled run stops, detector
//! thresholds, aggregator boundary comparisons — each
//! with an explicit, narrow kill command so the
//! whole set classifies in a bounded time budget. Every sentinel must
//! come back **caught**; anything else fails the gate.
//!
//! Sentinels are matched structurally, not by byte offset: a sentinel
//! names (file, operator, original token, a substring of the source
//! line) plus a `pick` index for same-line twins (e.g. the two `!=` in
//! the WAL CRC check), and resolution takes the `pick`-th matching
//! mutant in offset order. Surrounding edits therefore never silently
//! detach a sentinel — if the site changes shape, resolution errors
//! out and CI says so; a distinct-ids test keeps two sentinels from
//! collapsing onto one mutant.

use std::path::Path;

use crate::ops::Mutant;
use crate::plan::enumerate_workspace;

/// One curated must-catch mutant.
pub struct Sentinel {
    /// Short stable name, shown in the gate output.
    pub name: &'static str,
    /// Workspace-relative file the mutant lives in.
    pub file: &'static str,
    /// Operator id (see [`crate::ops::OPERATORS`]).
    pub op: &'static str,
    /// The original token at the site (disambiguates operators that
    /// hit several tokens on the matched line).
    pub original: &'static str,
    /// Substring of the (trimmed) source line that anchors the site.
    pub contains: &'static str,
    /// Which match to take when the line holds same-op twins
    /// (offset order; 0 unless stated).
    pub pick: usize,
    /// Explicit cargo steps that must fail — build first, then the
    /// narrowest test command known to exercise the site.
    pub kill: &'static [&'static [&'static str]],
    /// Why this mutant must never survive.
    pub why: &'static str,
}

const WAL_BUILD: &[&str] = &["build", "-q", "-p", "ah-wal"];
const WAL_TEST: &[&str] = &["test", "-q", "-p", "ah-wal"];
const CORE_BUILD: &[&str] = &["build", "-q", "-p", "ah-core"];
const CORE_TEST: &[&str] = &["test", "-q", "-p", "ah-core"];
const TELE_TEST: &[&str] = &["test", "-q", "-p", "ah-telescope"];
const NET_BUILD: &[&str] = &["build", "-q", "-p", "ah-net"];
const NET_TEST: &[&str] = &["test", "-q", "-p", "ah-net"];

/// The curated sentinel set. Ordered cheapest-kill first so a broken
/// tree fails the gate as early as possible.
pub const SENTINELS: &[Sentinel] = &[
    Sentinel {
        name: "wal-crc-flip",
        file: "crates/wal/src/frame.rs",
        op: "cmp-swap",
        original: "!=",
        contains: "crc.finish() != stored_crc",
        pick: 0,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "inverting the CRC check accepts every corrupt frame",
    },
    Sentinel {
        name: "wal-seq-flip",
        file: "crates/wal/src/frame.rs",
        op: "cmp-swap",
        original: "!=",
        contains: "crc.finish() != stored_crc",
        pick: 1,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "inverting the sequence check accepts replayed/reordered frames",
    },
    Sentinel {
        name: "wal-crc-or-seq",
        file: "crates/wal/src/frame.rs",
        op: "logic-swap",
        original: "||",
        contains: "crc.finish() != stored_crc",
        pick: 0,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "|| → && requires BOTH checks to fail before rejecting a frame",
    },
    Sentinel {
        name: "wal-empty-frame",
        file: "crates/wal/src/frame.rs",
        op: "cmp-swap",
        original: "==",
        contains: "len == 0",
        pick: 0,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "== → != flips the zero-length/oversize corruption guard",
    },
    Sentinel {
        name: "wal-torn-tail",
        file: "crates/wal/src/frame.rs",
        op: "cmp-swap",
        original: "<",
        contains: "buf.len() < total",
        pick: 0,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "< → <= misclassifies an exactly-complete frame as torn",
    },
    Sentinel {
        name: "wal-seal-last",
        file: "crates/wal/src/recover.rs",
        op: "cmp-swap",
        original: "!=",
        contains: "seal_at != out.next_seq",
        pick: 0,
        kill: &[WAL_BUILD, WAL_TEST],
        why: "a seal mid-log (or lost to truncation) must not count as sealed",
    },
    Sentinel {
        name: "det-d1-dispersion",
        file: "crates/core/src/detector.rs",
        op: "cmp-swap",
        original: ">=",
        contains: "t.dispersion_fraction",
        pick: 0,
        kill: &[CORE_BUILD, CORE_TEST],
        why: ">= → > drops sources exactly at the D1 dispersion threshold",
    },
    Sentinel {
        name: "det-d2-volume",
        file: "crates/core/src/detector.rs",
        op: "cmp-swap",
        original: ">",
        contains: "> d2_threshold",
        pick: 0,
        kill: &[CORE_BUILD, CORE_TEST],
        why: "the paper's D2 is strictly-above; > → >= admits the threshold itself",
    },
    Sentinel {
        name: "det-d3-ports",
        file: "crates/core/src/detector.rs",
        op: "cmp-swap",
        original: ">=",
        contains: ">= d3_threshold",
        pick: 0,
        kill: &[CORE_BUILD, CORE_TEST],
        why: "the paper's D3 is at-or-above; >= → > drops boundary scanners",
    },
    Sentinel {
        name: "det-source-run",
        file: "crates/core/src/detector.rs",
        op: "cmp-swap",
        original: "==",
        contains: "a.key.src == b.key.src",
        pick: 0,
        kill: &[CORE_BUILD, CORE_TEST],
        why: "== → != ends a source run at each of its events and runs sources together, \
              so D3's ports per day, the daily hitters and the per-day totals mix sources",
    },
    Sentinel {
        name: "ecdf-count-above",
        file: "crates/core/src/ecdf.rs",
        op: "arith-swap",
        original: "-",
        contains: "self.len() - self.at_most(x)",
        pick: 0,
        kill: &[CORE_BUILD, CORE_TEST],
        why: "count_above feeds the D2/D3 threshold derivation",
    },
    Sentinel {
        name: "time-since-saturates",
        file: "crates/net/src/time.rs",
        op: "sat-wrap",
        original: "saturating_sub",
        contains: "earlier.0",
        pick: 0,
        kill: &[NET_BUILD, NET_TEST, TELE_TEST],
        why: "Ts::since underpins every watermark/lag decision; wrapping turns \
              a slightly-early packet into a ~584-year gap",
    },
    Sentinel {
        name: "agg-event-split",
        file: "crates/telescope/src/event.rs",
        op: "cmp-swap",
        original: ">",
        contains: "> self.timeout",
        pick: 0,
        kill: &[&["build", "-q", "-p", "ah-telescope"], TELE_TEST],
        why: "a gap of exactly the quiet timeout must extend the event, not split it",
    },
    Sentinel {
        name: "agg-sweep-slack",
        file: "crates/telescope/src/event.rs",
        op: "arith-swap",
        original: "+",
        contains: "self.timeout.0 + self.reorder_window.0",
        pick: 0,
        kill: &[&["build", "-q", "-p", "ah-telescope"], TELE_TEST],
        why: "+ → - lets a sweep close an event a late packet could still join: \
              sweep timing then splits events, and a key's close order stops being \
              its start order",
    },
    Sentinel {
        name: "sampler-rollover",
        file: "crates/flow/src/sampler.rs",
        op: "cmp-swap",
        original: ">=",
        contains: "self.pos >= rate",
        pick: 0,
        kill: &[&["build", "-q", "-p", "ah-flow"], &["test", "-q", "-p", "ah-flow"]],
        why: ">= → > silently turns 1-in-N sampling into 1-in-(N+1)",
    },
    Sentinel {
        name: "prefix-map-boundary",
        file: "crates/net/src/prefix.rs",
        op: "cmp-swap",
        original: "<=",
        contains: "partition_point(|&s| s <= a)",
        pick: 0,
        kill: &[NET_BUILD, NET_TEST],
        why: "<= → < hands the first address of every range to the range before it, \
              so a route or an AS attribution moves at each prefix boundary",
    },
    Sentinel {
        name: "mux-window-end",
        file: "crates/simnet/src/mux.rs",
        op: "cmp-swap",
        original: ">=",
        contains: "if ts >= end",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "ah-simnet"],
            &["test", "-q", "-p", "ah-simnet", "--test", "mux_equivalence"],
        ],
        why: ">= → > puts an actor's packet on a window's end into that window while \
              a lower-index actor's packet at the same time waits for the next one, \
              so the tie comes out in the wrong order",
    },
    Sentinel {
        name: "wal-run-mismatch",
        file: "src/pipeline.rs",
        op: "cmp-swap",
        original: "!=",
        contains: "meta != want",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "aggressive-scanners"],
            &[
                "test",
                "-q",
                "--test",
                "determinism",
                "log_of_another_run_is_refused_before_a_packet_is_fed",
            ],
        ],
        why: "!= → == replays a log of another run and refuses the log of this one",
    },
    Sentinel {
        name: "engine-suspend-trim",
        file: "src/pipeline.rs",
        op: "arith-swap",
        original: "+",
        contains: "start..i + 1",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "aggressive-scanners"],
            &["test", "-q", "--test", "telemetry", "suspended_runs_publish_every_packet_they_fed"],
        ],
        why: "+ → - drops the packet a journaled run suspends on (and the one before it) \
              from the executed slice, though the log holds both",
    },
    Sentinel {
        name: "publish-delta",
        file: "src/pipeline.rs",
        op: "arith-swap",
        original: "-",
        contains: "count - std::mem::replace(sent, count)",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "aggressive-scanners"],
            &["test", "-q", "--test", "telemetry", "health_gauges_mirror_the_pipeline_ledger"],
        ],
        why: "- → + adds a unit's whole count again at every publish, so the live \
              ledger counters stop summing to the run's ledger",
    },
    Sentinel {
        name: "journey-fate-delta",
        file: "src/pipeline.rs",
        op: "arith-swap",
        original: "-",
        contains: "let n = now - was;",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "aggressive-scanners"],
            &["test", "-q", "--test", "trace", "fate_instants_are_the_injector_ledger"],
        ],
        why: "- → + emits a sampled packet's fate instants by the injector's whole \
              ledger so far, not by what its own offer added, so the instants stop \
              being the ledger",
    },
    Sentinel {
        name: "ring-occupancy-unit",
        file: "src/pipeline.rs",
        op: "arith-swap",
        original: "*",
        contains: "p.high_water_mark() * SHARD_BATCH",
        pick: 0,
        kill: &[
            &["build", "-q", "-p", "aggressive-scanners"],
            &[
                "test",
                "-q",
                "-p",
                "aggressive-scanners",
                "--lib",
                "pipeline::tests::ring_occupancy_is_counted_in_whole_items",
            ],
        ],
        why: "* → / publishes a shard's peak ring occupancy in items divided by the \
              item size, so the packets gauge reads 0 on every full ring",
    },
];

/// Resolve one sentinel against the enumerated mutants of its file.
/// Errors when the anchor matches nothing (site moved/renamed) or when
/// `pick` exceeds the matches (twin disappeared) — a sentinel that no
/// longer resolves must be re-curated, not skipped.
pub fn resolve(s: &Sentinel, mutants: &[Mutant]) -> Result<Mutant, String> {
    let hits: Vec<&Mutant> = mutants
        .iter()
        .filter(|m| {
            m.file == s.file
                && m.op == s.op
                && m.original == s.original
                && m.context.contains(s.contains)
        })
        .collect();
    match hits.get(s.pick) {
        Some(m) => Ok((*m).clone()),
        None => Err(format!(
            "sentinel {}: no {} mutant of `{}` matching `{}` (pick {}) in {} — \
             the site moved; re-curate the sentinel",
            s.name, s.op, s.original, s.contains, s.pick, s.file
        )),
    }
}

/// Resolve the whole set, failing on the first detached sentinel.
pub fn resolve_all(root: &Path) -> Result<Vec<(&'static Sentinel, Mutant)>, String> {
    let mutants = enumerate_workspace(root)?;
    SENTINELS.iter().map(|s| resolve(s, &mutants).map(|m| (s, m))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        // crates/mutate → workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    }

    #[test]
    fn every_sentinel_resolves_to_exactly_one_mutant() {
        let resolved = resolve_all(&repo_root()).unwrap();
        assert_eq!(resolved.len(), SENTINELS.len());
        // Distinct sites: no two sentinels may collapse onto one mutant.
        let mut ids: Vec<&str> = resolved.iter().map(|(_, m)| m.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SENTINELS.len(), "sentinels must hit distinct mutants");
    }

    #[test]
    fn sentinel_names_are_unique_and_kills_are_nonempty() {
        let mut names: Vec<&str> = SENTINELS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SENTINELS.len());
        for s in SENTINELS {
            assert!(!s.kill.is_empty(), "{} has no kill steps", s.name);
            assert!(s.kill.iter().all(|step| !step.is_empty()));
        }
    }
}
