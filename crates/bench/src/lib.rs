//! Shared helpers for the experiment runner.
//!
//! The heavy lifting lives in the workspace crates; this library only
//! provides the run cache the `experiment` binary uses so that multiple
//! tables regenerated in one invocation share simulation output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aggressive_scanners::pipeline::{self, RunOptions, RunOutput, TapRun, Telemetry};
use aggressive_scanners::simnet::scenario::{BenignLevel, ScenarioConfig, Year};
use ah_core::defs::Definition;

/// Span (in simulated days) of each dataset, scaled from the paper's
/// 365 / 288 / 8 / 3 / 30 by roughly 1:9 so a full `experiment all`
/// regenerates every artifact in minutes. Scale with `--days-scale`.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// Darknet-1 (2021) characterization span.
    pub darknet1_days: u64,
    /// Darknet-2 (2022) characterization span.
    pub darknet2_days: u64,
    /// Flow-measurement week (excluding the warm-up day).
    pub flow_days: u64,
    /// Tap runs: 1 detection day + 3 tap days.
    pub tap_days: u64,
    /// Honeypot-validation month.
    pub gn_days: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { darknet1_days: 40, darknet2_days: 32, flow_days: 8, tap_days: 4, gn_days: 21 }
    }
}

impl Spans {
    /// Scale all spans by `f` (minimum sensible floors applied).
    pub fn scaled(self, f: f64) -> Spans {
        let s = |d: u64, min: u64| ((d as f64 * f) as u64).max(min);
        Spans {
            darknet1_days: s(self.darknet1_days, 4),
            darknet2_days: s(self.darknet2_days, 4),
            flow_days: s(self.flow_days, 2),
            tap_days: s(self.tap_days, 2),
            gn_days: s(self.gn_days, 3),
        }
    }
}

/// Run a scenario on the requested engine: the serial reference for
/// `threads <= 1`, the sharded engine otherwise. Both produce bitwise
/// identical output (see `tests/determinism.rs`), so callers may treat
/// the choice as a pure performance knob. Telemetry is observation-only:
/// the output is bitwise identical to a telemetry-free run.
pub fn execute_with(
    cfg: ScenarioConfig,
    opts: RunOptions,
    threads: usize,
    tel: &mut Telemetry,
) -> RunOutput {
    if threads > 1 {
        pipeline::run_parallel_with_recorder(cfg, opts, threads, tel)
    } else {
        pipeline::run_with_recorder(cfg, opts, tel)
    }
}

/// Lazily-computed, shared simulation runs.
pub struct Runs {
    /// Spans used for every run.
    pub spans: Spans,
    /// Base RNG seed; each run derives its own by XOR.
    pub seed: u64,
    /// Worker shards for the parallel engine (`0`/`1` = serial).
    pub threads: usize,
    telemetry: Telemetry,
    darknet1: Option<RunOutput>,
    darknet2: Option<RunOutput>,
    flows: Option<RunOutput>,
    gn: Option<RunOutput>,
    taps: Option<TapRun>,
}

impl Runs {
    /// An empty cache; runs execute on first access.
    pub fn new(spans: Spans, seed: u64) -> Runs {
        Runs {
            spans,
            seed,
            threads: 0,
            telemetry: Telemetry::disabled(),
            darknet1: None,
            darknet2: None,
            flows: None,
            gn: None,
            taps: None,
        }
    }

    /// Route every subsequent run through `run_parallel` on `n` shards.
    pub fn with_threads(mut self, n: usize) -> Runs {
        self.threads = n;
        self
    }

    /// Replace the whole telemetry handle (recorder + snapshot exporter).
    /// Telemetry is observation-only: run outputs are unchanged.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Runs {
        self.telemetry = tel;
        self
    }

    /// The telemetry handle shared by every cached run (for end-of-batch
    /// snapshot or exporter-health inspection).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Darknet-1 (2021) characterization run.
    pub fn darknet1(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.darknet1.get_or_insert_with(|| {
            eprintln!("[run] darknet-1 ({} days)...", spans.darknet1_days);
            let cfg = ScenarioConfig::darknet(Year::Y2021, spans.darknet1_days, seed ^ 0x2021);
            execute_with(cfg, RunOptions::darknet_only(), threads, tel)
        })
    }

    /// Darknet-2 (2022) characterization run.
    pub fn darknet2(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.darknet2.get_or_insert_with(|| {
            eprintln!("[run] darknet-2 ({} days)...", spans.darknet2_days);
            let cfg = ScenarioConfig::darknet(Year::Y2022, spans.darknet2_days, seed ^ 0x2022);
            execute_with(cfg, RunOptions::darknet_only(), threads, tel)
        })
    }

    /// The flow-measurement week (Merit benign + 3 border routers).
    pub fn flows(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.flows.get_or_insert_with(|| {
            eprintln!("[run] flow week (1 warm-up + {} days, Merit benign)...", spans.flow_days);
            let cfg = ScenarioConfig::flows(spans.flow_days + 1, seed ^ 0xf10f);
            execute_with(cfg, RunOptions::with_flows(), threads, tel)
        })
    }

    /// The honeypot-validation month (telescope + GreyNoise).
    pub fn gn(&mut self) -> &RunOutput {
        let (spans, seed, threads) = (self.spans, self.seed, self.threads);
        let tel = &mut self.telemetry;
        self.gn.get_or_insert_with(|| {
            eprintln!("[run] greynoise month ({} days)...", spans.gn_days);
            let mut cfg = ScenarioConfig::darknet(Year::Y2022, spans.gn_days, seed ^ 0x60e5);
            cfg.label = "gn-month".into();
            cfg.benign = BenignLevel::Off;
            let opts = RunOptions { greynoise: true, ..RunOptions::darknet_only() };
            execute_with(cfg, opts, threads, tel)
        })
    }

    /// The 72-hour packet-tap experiment (two-phase).
    pub fn taps(&mut self) -> &TapRun {
        let (spans, seed) = (self.spans, self.seed);
        self.taps.get_or_insert_with(|| {
            eprintln!("[run] packet taps (1+{} days, Merit+CU benign)...", spans.tap_days - 1);
            pipeline::run_taps(
                ScenarioConfig::taps(spans.tap_days, seed ^ 0x7a9),
                1,
                Definition::AddressDispersion,
            )
        })
    }
}
