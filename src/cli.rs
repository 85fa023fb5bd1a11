//! The command line both binaries share (`aggressive-scanners` and
//! `experiment`): the observability flags
//!
//! ```text
//! [--metrics PATH] [--metrics-interval N]
//! [--trace-out PATH] [--trace-sample N]
//! [--mem-report]
//! ```
//!
//! and `--threads N`, the executor ([`parse_threads`]).
//!
//! The observability flags take three steps: [`ObsFlags::accept`] while the binary walks its argument
//! list, [`ObsFlags::telemetry`] once the seed is known, and
//! [`ObsFlags::finish`] after the last run. Status lines go to stderr;
//! stdout stays the binary's own report. An output path that cannot be
//! written is a usage error (exit 2) in the second step, before any
//! packet is generated; output lost mid-run is an `Err` from the third.

use crate::pipeline::Telemetry;
use ah_obs::{Exporter, Recorder};
use std::io;
use std::path::{Path, PathBuf};

/// Usage line fragment for the flags parsed here.
pub const OBS_USAGE: &str =
    "[--metrics PATH] [--metrics-interval N] [--trace-out PATH] [--trace-sample N] [--mem-report]";

/// Print a usage error and exit 2.
pub fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value following a flag, parsed as `T`; `kind` names the expected
/// type in the diagnostic.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    flag: &str,
    kind: &str,
) -> Result<T, String> {
    let v = args.get(i).ok_or_else(|| format!("{flag} requires a value ({kind})"))?;
    v.parse().map_err(|_| format!("{flag}: {v:?} is not a valid {kind}"))
}

/// The value following one of a binary's own flags, parsed as `T`; a
/// missing or malformed value is a [`usage_error`].
pub fn parse_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str, kind: &str) -> T {
    flag_value(args, i, flag, kind).unwrap_or_else(|e| usage_error(e))
}

/// The most worker shards `--threads` may ask for.
const MAX_THREADS: usize = 256;

/// The executor `--threads` names, as the pipeline's doors take it:
/// 0 or 1 is the inline unit (`None`), 2 to [`MAX_THREADS`] that many
/// shards; a larger count, or a value that is not an integer, is an error.
fn threads(args: &[String], i: usize) -> Result<Option<usize>, String> {
    match flag_value(args, i, "--threads", "integer")? {
        0 | 1 => Ok(None),
        n if n <= MAX_THREADS => Ok(Some(n)),
        n => Err(format!("--threads {n} is more than the {MAX_THREADS} shards a run may use")),
    }
}

/// The value following `--threads`, parsed as an executor (see
/// `threads`); a bad value is a [`usage_error`].
pub fn parse_threads(args: &[String], i: usize) -> Option<usize> {
    threads(args, i).unwrap_or_else(|e| usage_error(e))
}

/// Step `*i` onto the flag's value and parse it as one of the two
/// pacing intervals, neither of which may be 0.
fn interval(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    *i += 1;
    match flag_value(args, *i, flag, "integer")? {
        0 => Err(format!("{flag} must be at least 1 (0 would disable the stream it paces)")),
        n => Ok(n),
    }
}

/// Step `*i` onto the flag's value and take it as a path; `what`
/// describes the path in the diagnostic.
fn path(args: &[String], i: &mut usize, flag: &str, what: &str) -> Result<PathBuf, String> {
    *i += 1;
    args.get(*i).map(PathBuf::from).ok_or_else(|| format!("{flag} requires {what}"))
}

/// Create `path`'s directory and open `path` for writing, leaving any
/// content in place, or exit with a [`usage_error`] naming `flag`.
fn require_writable(flag: &str, path: &Path) {
    let open = || {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::OpenOptions::new().create(true).append(true).open(path)
    };
    if let Err(e) = open() {
        usage_error(format!("{flag}: cannot write {}: {e}", path.display()));
    }
}

/// The parsed observability flags.
#[derive(Debug)]
pub struct ObsFlags {
    metrics: Option<PathBuf>,
    metrics_interval: u64,
    trace_out: Option<PathBuf>,
    trace_sample: u64,
    mem_report: bool,
}

impl ObsFlags {
    /// Everything off; `metrics_interval` is the binary's default export
    /// interval in packets, which also paces the `ah_mem_*` gauge refresh
    /// under `--mem-report` (the refresh exists to feed the exporter).
    pub fn new(metrics_interval: u64) -> ObsFlags {
        ObsFlags {
            metrics: None,
            metrics_interval,
            trace_out: None,
            trace_sample: 64,
            mem_report: false,
        }
    }

    /// If `args[*i]` is one of the five flags, record it — advancing `*i`
    /// onto its value, if it takes one — and return `true`; `false`
    /// leaves the argument to the caller.
    pub fn accept(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        match flag {
            "--metrics" => {
                self.metrics = Some(path(args, i, flag, "a file-base (e.g. out/metrics)")?);
            }
            "--trace-out" => {
                self.trace_out = Some(path(args, i, flag, "a file path (e.g. out/trace.json)")?);
            }
            "--mem-report" => self.mem_report = true,
            "--metrics-interval" => self.metrics_interval = interval(args, i, flag)?,
            "--trace-sample" => self.trace_sample = interval(args, i, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether `--mem-report` was given.
    pub fn mem_report(&self) -> bool {
        self.mem_report
    }

    /// Build the run's [`Telemetry`] — disabled unless a flag turned a
    /// part on — and announce each live part. `seed` seeds the journey
    /// sampler. Every file the flags name is opened here; one that
    /// cannot be is a [`usage_error`].
    pub fn telemetry(&self, seed: u64) -> Telemetry {
        let mut tel = match &self.metrics {
            Some(base) => {
                let rec = Recorder::new();
                let exporter = Exporter::new(rec.clone(), base, self.metrics_interval);
                require_writable("--metrics", &exporter.jsonl_path());
                require_writable("--metrics", &exporter.prom_path());
                eprintln!(
                    "[metrics] {} + {} every {} packets",
                    exporter.jsonl_path().display(),
                    exporter.prom_path().display(),
                    self.metrics_interval
                );
                Telemetry::with_exporter(rec, exporter)
            }
            None => Telemetry::disabled(),
        };
        if let Some(path) = &self.trace_out {
            require_writable("--trace-out", path);
            tel.tracer = ah_trace::Tracer::new(ah_trace::TraceConfig {
                seed,
                sample_one_in: self.trace_sample,
                ..ah_trace::TraceConfig::default()
            });
            eprintln!("[trace] spans on, following ~1-in-{} source journeys", self.trace_sample);
        }
        if self.mem_report {
            ah_mem::set_accounting(true);
            tel = tel.with_mem(self.metrics_interval);
            eprintln!(
                "[mem] per-subsystem accounting on, refresh every {} packets",
                self.metrics_interval
            );
        }
        tel
    }

    /// Exit-time step: report the exporter's totals and write the trace
    /// artifacts (Chrome trace at `--trace-out`, folded stacks next to
    /// it). `Err` is a failed trace write, or metric snapshots the
    /// exporter counted as lost to I/O errors during the run.
    pub fn finish(&self, tel: &Telemetry) -> io::Result<()> {
        let mut lost = 0;
        if let Some(ex) = tel.exporter.as_ref() {
            lost = ex.io_errors();
            eprintln!(
                "[metrics] {} snapshots -> {} ({lost} io errors)",
                ex.snapshots_written(),
                ex.jsonl_path().display(),
            );
        }
        if let Some(path) = self.trace_out.as_ref() {
            let snap = tel.tracer.snapshot();
            let folded = ah_trace::export::write_artifacts(&snap, path)?;
            eprintln!("[trace] chrome trace -> {}", path.display());
            eprintln!("[trace] folded stacks -> {}", folded.display());
            if snap.dropped > 0 {
                eprintln!("[trace] {} events dropped (buffers full)", snap.dropped);
            }
        }
        if lost > 0 {
            return Err(io::Error::other(format!("{lost} metric snapshot writes failed")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<ObsFlags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut flags = ObsFlags::new(10_000);
        let mut i = 0;
        while i < args.len() {
            assert!(flags.accept(&args, &mut i)?, "{:?} not recognised", args[i]);
            i += 1;
        }
        Ok(flags)
    }

    #[test]
    fn defaults_leave_telemetry_disabled() {
        let flags = parse("").unwrap();
        assert_eq!((flags.metrics_interval, flags.trace_sample), (10_000, 64));
        assert!(!flags.mem_report());
        let tel = flags.telemetry(1);
        assert!(tel.exporter.is_none() && !tel.tracer.is_enabled() && tel.mem.is_none());
        assert!(!tel.recorder.is_enabled());
    }

    #[test]
    fn flags_and_values_are_consumed() {
        let flags = parse("--metrics m/base --metrics-interval 5 --trace-out t.json --trace-sample 7 --mem-report").unwrap();
        assert_eq!(flags.metrics.as_deref(), Some(std::path::Path::new("m/base")));
        assert_eq!(flags.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!((flags.metrics_interval, flags.trace_sample), (5, 7));
        assert!(flags.mem_report());
    }

    #[test]
    fn foreign_arguments_are_left_to_the_caller() {
        let args = vec!["--threads".to_string(), "4".to_string()];
        let mut i = 0;
        assert_eq!(ObsFlags::new(1).accept(&args, &mut i), Ok(false));
        assert_eq!(i, 0, "a declined argument must not be consumed");
    }

    #[test]
    fn missing_and_malformed_values_are_errors() {
        for line in ["--metrics", "--trace-out", "--metrics-interval", "--trace-sample"] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with(line) && err.contains("requires"), "{line}: {err}");
        }
        let err = parse("--trace-sample many").unwrap_err();
        assert_eq!(err, "--trace-sample: \"many\" is not a valid integer");
    }

    #[test]
    fn thread_counts_name_an_executor() {
        let at = |v: &str| threads(&["--threads".to_string(), v.to_string()], 1);
        assert_eq!(at("0"), Ok(None));
        assert_eq!(at("1"), Ok(None));
        assert_eq!(at("2"), Ok(Some(2)));
        assert_eq!(at("256"), Ok(Some(MAX_THREADS)));
        let err = at("257").unwrap_err();
        assert_eq!(err, "--threads 257 is more than the 256 shards a run may use");
        assert!(at("100000").is_err());
        assert_eq!(at("-1").unwrap_err(), "--threads: \"-1\" is not a valid integer");
        let missing = threads(&["--threads".to_string()], 1).unwrap_err();
        assert_eq!(missing, "--threads requires a value (integer)");
    }

    #[test]
    fn zero_intervals_are_rejected() {
        for flag in ["--metrics-interval", "--trace-sample"] {
            let err = parse(&format!("{flag} 0")).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} must be at least 1 (0 would disable the stream it paces)")
            );
        }
    }
}
