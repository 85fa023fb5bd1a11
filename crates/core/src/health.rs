//! Graceful-degradation accounting for the measurement pipeline.
//!
//! Every stage that can lose, repair or quarantine input — telescope
//! capture, darknet event aggregation, the ISP flow caches, NetFlow v9
//! decode, GreyNoise ingest — reports a [`StageHealth`] record here
//! instead of discarding silently. The per-stage conservation identity
//!
//! ```text
//! received = accepted + quarantined + Σ discarded-by-category
//! ```
//!
//! is what lets an experiment assert that *nothing disappeared without a
//! ledger entry*, even under fault injection (`ah-simnet::faults`).
//! `repaired` counts inputs that were accepted after an in-place fix
//! (e.g. an event start moved earlier by a late packet) and is a subset
//! of `accepted`, not a separate fate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Input-fate counters for one pipeline stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageHealth {
    /// Stage name, e.g. `"telescope.capture"` or `"flow.merit"`.
    pub stage: String,
    /// Inputs offered to the stage.
    pub received: u64,
    /// Inputs the stage fully processed (including repaired ones).
    pub accepted: u64,
    /// Accepted inputs that needed an in-place repair first
    /// (subset of `accepted`).
    pub repaired: u64,
    /// Inputs set aside as unusable-but-counted (e.g. packets beyond the
    /// aggregator's reorder window).
    pub quarantined: u64,
    /// Inputs rejected, by category (e.g. `"not_dark"`, `"duplicate"`,
    /// `"template_evicted"`).
    pub discarded: BTreeMap<String, u64>,
}

impl StageHealth {
    /// An empty ledger for the named stage.
    pub fn new(stage: &str) -> StageHealth {
        StageHealth { stage: stage.to_string(), ..StageHealth::default() }
    }

    /// Add `n` to a discard category.
    pub fn discard(&mut self, category: &str, n: u64) {
        if n > 0 {
            *self.discarded.entry(category.to_string()).or_insert(0) += n;
        }
    }

    /// Sum over all discard categories.
    pub fn discarded_total(&self) -> u64 {
        self.discarded.values().sum()
    }

    /// The stage-level conservation identity.
    pub(crate) fn conserves(&self) -> bool {
        self.received == self.accepted + self.quarantined + self.discarded_total()
    }
}

/// Health records for every stage of one pipeline run, in pipeline order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Stage ledgers, in pipeline order.
    pub stages: Vec<StageHealth>,
}

impl PipelineHealth {
    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageHealth> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// True when every stage's ledger balances.
    pub fn conserves(&self) -> bool {
        self.stages.iter().all(StageHealth::conserves)
    }

    /// Names of stages whose ledger does NOT balance (for diagnostics).
    pub fn violations(&self) -> Vec<&str> {
        self.stages.iter().filter(|s| !s.conserves()).map(|s| s.stage.as_str()).collect()
    }

    /// Human-readable ledger, one stage per line plus discard breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>9} {:>11} {:>10}  ok",
            "stage", "received", "accepted", "repaired", "quarantined", "discarded"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>9} {:>11} {:>10}  {}",
                s.stage,
                s.received,
                s.accepted,
                s.repaired,
                s.quarantined,
                s.discarded_total(),
                if s.conserves() { "yes" } else { "NO" }
            );
            for (cat, n) in &s.discarded {
                let _ = writeln!(out, "{:<22}   - {cat}: {n}", "");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stage() -> StageHealth {
        let mut s = StageHealth::new("telescope.capture");
        s.received = 100;
        s.accepted = 80;
        s.repaired = 5;
        s.quarantined = 4;
        s.discard("not_dark", 10);
        s.discard("filtered_source", 6);
        s
    }

    #[test]
    fn conservation_holds_when_ledger_balances() {
        let s = sample_stage();
        assert_eq!(s.discarded_total(), 16);
        assert!(s.conserves());
    }

    #[test]
    fn conservation_fails_on_unaccounted_loss() {
        let mut s = sample_stage();
        s.accepted -= 1; // one input vanished without a ledger entry
        assert!(!s.conserves());
        let mut h = PipelineHealth::default();
        h.stages.push(sample_stage());
        h.stages.push(s);
        assert!(!h.conserves());
        assert_eq!(h.violations(), vec!["telescope.capture"]);
    }

    #[test]
    fn discard_categories_accumulate() {
        let mut s = StageHealth::new("flow.v9");
        s.discard("template_evicted", 2);
        s.discard("template_evicted", 3);
        s.discard("noop", 0);
        assert_eq!(s.discarded.get("template_evicted"), Some(&5));
        assert!(!s.discarded.contains_key("noop"));
    }

    #[test]
    fn pipeline_lookup_and_render() {
        let mut h = PipelineHealth::default();
        h.stages.push(sample_stage());
        let mut flows = StageHealth::new("flow.merit");
        flows.received = 10;
        flows.accepted = 9;
        flows.discard("duplicate", 1);
        h.stages.push(flows);
        assert!(h.conserves());
        assert!(h.violations().is_empty());
        assert_eq!(h.stage("flow.merit").map(|s| s.received), Some(10));
        assert!(h.stage("missing").is_none());
        let text = h.render();
        assert!(text.contains("telescope.capture"));
        assert!(text.contains("duplicate: 1"));
        assert!(text.contains("yes"));
    }
}
