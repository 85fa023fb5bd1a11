//! The parent side of the benchmark: runs every operation in a fresh
//! child process, cross-checks what comes back, and collects samples.
//!
//! An *operation* is one child run — a reference run during set-up, a
//! timed repeat, the staged (traced) run or the accounted run. It fails
//! on a non-zero exit, an unreadable result, a broken conservation
//! ledger, or a cross-check: every timed repeat's fingerprint must equal
//! the reference run's (the same input through a *different* engine
//! entry point), and the staged run's detection report must equal the
//! engine's. No expected value is hard-coded, so any seed works.

use crate::adapter::{Engine, Size, Workload, REPORT_KEYS, WORKLOADS};
use crate::catalog::LEDGER;
use crate::probe::Probe;
use crate::stats::Summary;
use crate::wire::Fields;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Timed repeats per workload — the floor in every mode.
pub const MIN_REPEATS: usize = 5;
/// Set-ups per workload in `all` and `check`; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed `full-parallel` runs the traced `full-observed` run compares
/// itself with.
const BYPASS_RUNS: usize = 3;
/// Free space a durable operation wants before it starts writing.
const MIN_FREE_BYTES: u64 = 2 << 30;
/// |residual share| above which a ledger does not explain its run.
const UNRELIABLE_RESIDUAL: f64 = 0.25;

/// A directory under `<exe dir>/ah-perf-tmp`, unique to this process,
/// removed when dropped — on success, on an early error return, and on
/// unwinding from a panic alike.
///
/// It sits beside the executable (inside the build's target directory)
/// rather than under `$TMPDIR`: the pipeline's driver allows a benchmark
/// to write only inside its checkout.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create a fresh scratch directory beside `exe`.
    pub fn new(exe: &Path) -> Result<Scratch, String> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = exe.parent().unwrap_or(Path::new(".")).join("ah-perf-tmp");
        let dir = root.join(format!("{}-{stamp}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end samples by metric name, in catalogue order; a metric
    /// the workload does not have is absent.
    pub end_to_end: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer metrics of the traced and accounted runs, when made.
    pub per_layer: Option<Fields>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// `undersized-host`, `ledger-unreliable`.
    pub labels: Vec<&'static str>,
}

impl WorkloadResult {
    /// Summary of one end-to-end metric's samples.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        self.end_to_end.iter().find(|(n, _)| *n == metric).and_then(|(_, v)| Summary::of(v))
    }
}

/// One workload being measured: its scratch space, its reference run,
/// and the samples gathered so far.
pub struct Session<'a> {
    exe: &'a Path,
    w: &'static Workload,
    seed: u64,
    size: Size,
    scratch: Scratch,
    dirs: u32,
    log: Option<PathBuf>,
    reference: Option<Fields>,
    repeats: Vec<Fields>,
    /// Start and end of each set-up pass, on the probe's clock.
    setups: Vec<(f64, f64)>,
    per_layer: Option<Fields>,
    attempted: u64,
    failures: Vec<String>,
    labels: Vec<&'static str>,
}

impl<'a> Session<'a> {
    /// Start measuring `w` with the `ah-perf` executable at `exe`.
    pub fn new(exe: &'a Path, w: &'static Workload, seed: u64, size: Size) -> Result<Self, String> {
        let mut labels = Vec::new();
        if w.engine.threaded() && host_cpus() < crate::adapter::SHARDS {
            labels.push("undersized-host");
        }
        Ok(Session {
            exe,
            w,
            seed,
            size,
            scratch: Scratch::new(exe)?,
            dirs: 0,
            log: None,
            reference: None,
            repeats: Vec::new(),
            setups: Vec::new(),
            per_layer: None,
            attempted: 0,
            failures: Vec::new(),
            labels,
        })
    }

    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.dirs += 1;
        let dir = self.scratch.path().join(self.dirs.to_string());
        std::fs::create_dir(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// One operation: spawn `ah-perf <mode> <workload> …` with a fresh
    /// scratch directory, wait for it, read its fields back, and remove
    /// the directory. The child's life is noted on the probe's clock and
    /// the probe takes a reading right after it.
    fn spawn(&mut self, probe: &mut Probe, mode: &str, extra: &[&str]) -> Result<Fields, String> {
        let dir = self.fresh_dir()?;
        let mut cmd = Command::new(self.exe);
        cmd.args([mode, self.w.name, "--seed", &self.seed.to_string(), "--scratch"]).arg(&dir);
        if let Some(log) = &self.log {
            cmd.arg("--log").arg(log);
        }
        if self.size == Size::Smoke {
            cmd.arg("--smoke");
        }
        let from = probe.now();
        let out = cmd.args(extra).output();
        let to = probe.now();
        probe.sample();
        let _ = std::fs::remove_dir_all(dir);
        let out = out.map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr);
            return Err(format!("{mode} {extra:?} exited with {}: {}", out.status, err.trim()));
        }
        let mut f = Fields::parse(&String::from_utf8_lossy(&out.stdout));
        f.put("child.from_s", from);
        f.put("child.to_s", to);
        Ok(f)
    }

    /// One engine run in a child. A durable one is refused up front when
    /// the disk could fill mid-write.
    fn engine_run(
        &mut self,
        probe: &mut Probe,
        engine: Engine,
        extra: &[&str],
    ) -> Result<Fields, String> {
        if engine == Engine::Durable {
            let free = crate::sys::free_bytes(self.scratch.path())?;
            if free < MIN_FREE_BYTES {
                return Err(format!(
                    "{free} bytes free under {}, a durable run wants {MIN_FREE_BYTES}",
                    self.scratch.path().display()
                ));
            }
        }
        let mut args = vec!["--engine", engine.name()];
        args.extend_from_slice(extra);
        let f = self.spawn(probe, "child", &args)?;
        if f.u64("conserves")? != 1 {
            return Err(format!("{} run broke a conservation ledger", engine.name()));
        }
        Ok(f)
    }

    /// Count an operation, and keep its error as a failure.
    fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.failures.push(format!("{} {what}: {e}", self.w.name))).ok()
    }

    /// Set up `times` over: make the reference run (for `replay`, the
    /// durable run that writes the sealed log, each pass into a log
    /// directory of its own that replaces the previous one). Each pass is
    /// timed as one `setup_s` sample and is one operation; all passes
    /// must agree.
    pub fn setup(&mut self, probe: &mut Probe, times: usize) {
        let engine = self.w.reference_engine();
        for _ in 0..times {
            let from = probe.now();
            let old_log = match self.w.engine {
                Engine::Replay => {
                    self.fresh_dir().ok().and_then(|d| self.log.replace(d.join("wal")))
                }
                _ => None,
            };
            let r = self.engine_run(probe, engine, &[]).and_then(|f| {
                if let Some(first) = &self.reference {
                    same(first, &f, &["fingerprint"], "an earlier reference run")?;
                }
                Ok(f)
            });
            if let Some(dir) = old_log.as_deref().and_then(Path::parent) {
                let _ = std::fs::remove_dir_all(dir);
            }
            // Up to the end of the child; the probe reading after it is
            // the benchmark's own time, not set-up.
            let to = r.as_ref().map_or(0.0, |f| f.f64_or_zero("child.to_s"));
            if let Some(f) = self.op("set-up", r) {
                self.setups.push((from, to));
                self.reference = Some(f);
            }
        }
    }

    /// One timed repeat in a fresh child, checked against the reference
    /// run.
    pub fn repeat(&mut self, probe: &mut Probe) {
        let r = self.engine_run(probe, self.w.engine, &[]).and_then(|f| {
            let reference = self.reference.as_ref().ok_or("no reference run to check against")?;
            same(reference, &f, &["fingerprint"], "the reference run")?;
            Ok(f)
        });
        if let Some(f) = self.op("repeat", r) {
            self.repeats.push(f);
        }
    }

    /// One value per successful timed repeat.
    fn per_repeat(&self, g: impl Fn(&Fields) -> Result<f64, String>) -> Vec<f64> {
        self.repeats.iter().filter_map(|f| g(f).ok()).collect()
    }

    fn median_of(&self, key: &str) -> f64 {
        Summary::of(&self.per_repeat(|f| f.f64(key))).map_or(0.0, |s| s.median)
    }

    /// Log bytes on disk per packet frame journaled, per repeat.
    fn wal_bytes_per_packet(&self) -> Vec<f64> {
        self.per_repeat(|f| Ok(f.f64("wal_bytes")? / f.f64("delivered_packets")?))
    }

    /// The traced and accounted runs, after the timed repeats: the
    /// staged run (checked against the engine's report), one engine run
    /// under memory accounting, and the ledger arithmetic. Writes the
    /// Chrome trace to `trace_out` when given.
    pub fn trace(&mut self, probe: &mut Probe, trace_out: Option<&Path>) {
        let mut extra = Vec::new();
        let out_arg = trace_out.map(|p| p.display().to_string());
        if let Some(p) = &out_arg {
            extra.extend_from_slice(&["--trace-out", p]);
        }
        let r = self.spawn(probe, "staged", &extra).and_then(|f| {
            let engine = self.reference.as_ref().ok_or("no engine run to check against")?;
            same(engine, &f, &REPORT_KEYS, "the engine's report")?;
            Ok(f)
        });
        let Some(mut f) = self.op("staged run", r) else { return };

        let r = self.engine_run(probe, self.w.engine, &["--account"]);
        if let Some(acc) = self.op("accounted run", r) {
            for tag in ["mux", "telescope", "flow", "wal", "merge", "detectors", "trace", "obs"] {
                let key = format!("mem.{tag}.peak_bytes");
                f.put(&key, acc.f64_or_zero(&key));
            }
        }

        let run_s = self.median_of("run_s");
        let sum: f64 = LEDGER
            .iter()
            .filter(|s| s.in_sum)
            .map(|s| f.f64_or_zero(&format!("{}.busy_s", s.name)))
            .sum();
        // Stages of a threaded engine overlap, so its ledger is held
        // against CPU time; everywhere else against wall time.
        let basis = if self.w.engine.threaded() { self.median_of("cpu_s") } else { run_s };
        let residual = basis - sum;
        let share = if basis > 0.0 { residual / basis } else { 0.0 };
        f.put("pipeline.ledger_sum_s", sum);
        f.put("pipeline.residual_s", residual);
        f.put("pipeline.residual_share", share);
        f.put(
            "pipeline.trace_overhead_ratio",
            if run_s > 0.0 { f.f64_or_zero("traced_wall_s") / run_s } else { 0.0 },
        );
        if share.abs() > UNRELIABLE_RESIDUAL {
            self.labels.push("ledger-unreliable");
        }

        if self.w.engine == Engine::Observed {
            let mut bypass = Vec::new();
            for _ in 0..BYPASS_RUNS {
                let r = self.engine_run(probe, Engine::Parallel, &[]).and_then(|b| b.f64("run_s"));
                bypass.extend(self.op("bypass run", r));
            }
            if let Some(b) = Summary::of(&bypass).filter(|b| b.median > 0.0) {
                f.put("obs.overhead_ratio", run_s / b.median);
            }
        }
        if let Some(s) = Summary::of(&self.wal_bytes_per_packet()) {
            f.put("wal_bytes_per_packet", s.median);
        }
        self.per_layer = Some(f);
    }

    /// The fingerprint every run of this workload agreed on.
    pub fn fingerprint(&self) -> Option<u64> {
        self.reference.as_ref().and_then(|f| f.u64("fingerprint").ok())
    }

    /// Record a failed cross-workload check against this workload.
    pub fn fail(&mut self, why: String) {
        self.failures.push(format!("{} {why}", self.w.name));
    }

    /// Failed operations (a cross-workload failure is charged to an
    /// operation already counted, so never more than were attempted).
    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// Every end-to-end sample. The three gated times are in
    /// reference-host seconds (measured × the host speed `probe` read
    /// around the child that produced them); `run_s` and `cpu_s` are as
    /// measured, the unit the ledger sums to.
    fn samples(&self, probe: &Probe) -> Vec<(&'static str, Vec<f64>)> {
        let speed = |f: &Fields| Ok(probe.speed(f.f64("child.from_s")?, f.f64("child.to_s")?));
        let mut out = vec![
            (
                "packets_per_s",
                self.per_repeat(
                    |f| Ok(f.f64("generated_packets")? / (f.f64("run_s")? * speed(f)?)),
                ),
            ),
            (
                "cpu_ns_per_packet",
                self.per_repeat(|f| {
                    Ok(1e9 * f.f64("cpu_s")? * speed(f)? / f.f64("generated_packets")?)
                }),
            ),
            (
                "rss_bytes_per_event",
                self.per_repeat(|f| {
                    Ok(f.f64("peak_rss_bytes")? / f.f64("core.detector.ingest.events_in")?)
                }),
            ),
            (
                "setup_s",
                self.setups
                    .iter()
                    .map(|(from, to)| (to - from) * probe.speed(*from, *to))
                    .collect(),
            ),
            ("run_s", self.per_repeat(|f| f.f64("run_s"))),
            ("cpu_s", self.per_repeat(|f| f.f64("cpu_s"))),
            ("peak_rss_bytes", self.per_repeat(|f| f.f64("peak_rss_bytes"))),
            ("host_speed", self.per_repeat(speed)),
        ];
        if self.w.engine == Engine::Durable {
            out.push(("wal_bytes_per_packet", self.wal_bytes_per_packet()));
        }
        out.push(("failed_share", vec![self.failed() as f64 / self.attempted.max(1) as f64]));
        out
    }

    /// Close the session (removing its scratch space) and hand back what
    /// was measured, scaled by what `probe` read meanwhile.
    pub fn finish(self, probe: &Probe) -> WorkloadResult {
        WorkloadResult {
            workload: self.w.name,
            end_to_end: self.samples(probe),
            attempted: self.attempted.max(1),
            failed: self.failed(),
            per_layer: self.per_layer,
            failures: self.failures,
            labels: self.labels,
        }
    }
}

/// Fail unless `a` and `b` agree on every key in `keys`.
fn same(a: &Fields, b: &Fields, keys: &[&str], whose: &str) -> Result<(), String> {
    for k in keys {
        let (x, y) = (a.get(k), b.get(k));
        if x.is_none() || x != y {
            return Err(format!("{k} = {y:?} differs from {whose} ({x:?})"));
        }
    }
    Ok(())
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scenario seeds one driver-facing `--seed` expands to.
///
/// At sizes that fit the driver's time budget one scenario's packet mix
/// and event count swing by a quarter from seed to seed, which is the
/// input varying, not the program. Averaging over several scenarios per
/// measured run is what "measure more work in a run" means for this
/// system.
pub const SEEDS_PER_RUN: u64 = 6;

/// Timed repeats a measured run never exceeds, whatever its budget: a
/// workload whose children fail at once would otherwise fill the budget
/// with thousands of failed operations.
const MAX_REPEATS: usize = 1000;

impl WorkloadResult {
    /// Combine the sessions of one measured run, one per scenario, into
    /// one figure per metric: the mean over scenarios of each scenario's
    /// **median** repeat, so every scenario weighs alike however many
    /// repeats it got. `setup_s` has one sample per scenario and is their
    /// median. Operation counts add up.
    fn pool(parts: Vec<WorkloadResult>) -> Option<WorkloadResult> {
        let mut all = parts.first()?.clone();
        for (name, samples) in &mut all.end_to_end {
            let medians: Vec<f64> =
                parts.iter().filter_map(|p| p.summary(name)).map(|s| s.median).collect();
            let Some(across) = Summary::of(&medians) else { continue };
            let mean = medians.iter().sum::<f64>() / medians.len() as f64;
            *samples = vec![if *name == "setup_s" { across.median } else { mean }];
        }
        for p in parts.into_iter().skip(1) {
            all.per_layer = all.per_layer.or(p.per_layer);
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.failures.extend(p.failures);
            for label in p.labels {
                if !all.labels.contains(&label) {
                    all.labels.push(label);
                }
            }
        }
        let share = all.failed as f64 / all.attempted as f64;
        if let Some((_, v)) = all.end_to_end.iter_mut().find(|(n, _)| *n == "failed_share") {
            *v = vec![share];
        }
        Some(all)
    }
}

/// Measure one workload the way the pipeline's driver asks, in about
/// `seconds` of wall clock all told: [`SEEDS_PER_RUN`] scenario seeds
/// derived from `seed`, each with its own timed set-up and reference
/// run; then fresh-process repeats round-robin over the scenarios, so a
/// host slow spell lands on every scenario alike, for as long as another
/// repeat fits the budget (and at least [`MIN_REPEATS`]). A `traced` run
/// measures one scenario for half the budget and spends the rest on its
/// traced and accounted runs.
pub fn run_one(
    exe: &Path,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let (seeds, budget) = if traced { (1, seconds / 2.0) } else { (SEEDS_PER_RUN, seconds) };
    let mut probe = Probe::new();
    let mut sessions = Vec::new();
    for i in 0..seeds {
        let scenario_seed = seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(i);
        let mut s = Session::new(exe, w, scenario_seed, Size::Full)?;
        s.setup(&mut probe, 1);
        sessions.push(s);
    }
    let scenarios = sessions.len();
    let floor = MIN_REPEATS.max(scenarios);
    let (mut repeats, mut repeat_s) = (0, 0.0);
    while repeats < floor
        || (repeats < MAX_REPEATS && started.elapsed().as_secs_f64() + repeat_s <= budget)
    {
        let t0 = Instant::now();
        sessions[repeats % scenarios].repeat(&mut probe);
        repeat_s = t0.elapsed().as_secs_f64();
        repeats += 1;
    }
    if traced {
        for s in &mut sessions {
            s.trace(&mut probe, None);
        }
    }
    WorkloadResult::pool(sessions.into_iter().map(|s| s.finish(&probe)).collect())
        .ok_or_else(|| "no session ran".to_string())
}

/// Measure every workload: all set-ups first, then [`MIN_REPEATS`]
/// rounds of timed repeats interleaved round-robin across workloads so
/// host drift lands on all of them evenly, then (if `traced`) each
/// workload's traced runs — tracing is never on while anything is timed.
/// `trace_dir` receives one Chrome trace per workload.
pub fn run_all(
    exe: &Path,
    seed: u64,
    size: Size,
    traced: bool,
    trace_dir: Option<&Path>,
) -> Result<Vec<WorkloadResult>, String> {
    // The smoke size is never measured, so it is not repeated either.
    let (setups, rounds) = if size == Size::Smoke { (1, 1) } else { (SETUPS, MIN_REPEATS) };
    let mut probe = Probe::new();
    let mut sessions = Vec::new();
    for w in &WORKLOADS {
        let mut s = Session::new(exe, w, seed, size)?;
        eprintln!("[ah-perf] set-up {}", w.name);
        s.setup(&mut probe, setups);
        sessions.push(s);
    }
    for round in 1..=rounds {
        eprintln!("[ah-perf] timed round {round}/{rounds}");
        for s in &mut sessions {
            s.repeat(&mut probe);
        }
    }
    if traced {
        for s in &mut sessions {
            eprintln!("[ah-perf] traced + accounted runs {}", s.w.name);
            let out = trace_dir.map(|d| d.join(format!("{}.trace.json", s.w.name)));
            s.trace(&mut probe, out.as_deref());
        }
    }
    // Workloads that share an input must share an output, whatever
    // engine produced it.
    for group in
        [["full-serial", "full-parallel", "full-observed"], ["darknet", "durable", "replay"]]
    {
        let prints: Vec<Option<u64>> = group
            .iter()
            .map(|n| sessions.iter().find(|s| s.w.name == *n).and_then(Session::fingerprint))
            .collect();
        for (name, print) in group.iter().zip(&prints).skip(1) {
            if *print != prints[0] {
                if let Some(s) = sessions.iter_mut().find(|s| s.w.name == *name) {
                    s.fail(format!(
                        "fingerprint {print:?} differs from {}'s {:?}",
                        group[0], prints[0]
                    ));
                }
            }
        }
    }
    Ok(sessions.into_iter().map(|s| s.finish(&probe)).collect())
}
