//! Everything the benchmark prints: the per-workload tables of `all`,
//! the A/A verdict table of `check`, the one-line JSON result the
//! pipeline's driver reads, the results file, and `BENCHMARK.json`.

use crate::adapter::WORKLOADS;
use crate::catalog::{
    EndToEnd, CONTRACT_END_TO_END, CONTRACT_WORKLOADS, END_TO_END, LEDGER, PER_LAYER,
};
use crate::driver::WorkloadResult;
use crate::stats::{verdict, Summary, Verdict};
use crate::wire::Fields;

/// Wall-clock seconds one measured run lasts, set-ups included
/// (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// Where and when a set of results was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to the process.
    pub cpus: usize,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// The seed every generated input came from.
    pub seed: u64,
}

impl Host {
    /// Sample the host now.
    pub fn sample(seed: u64) -> Host {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Host { cpus: crate::driver::host_cpus(), loadavg_1m, git_commit, seed }
    }
}

/// A number with enough digits to compare and few enough to read.
fn num(v: f64) -> String {
    let a = v.abs();
    if v == v.trunc() && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

fn summary_row(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "  {name:<34} {unit:<6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}\n",
        num(s.median),
        num(s.q1),
        num(s.q3),
        num(s.min),
        num(s.max),
        s.n
    )
}

/// Name and unit of every row `all` reports per workload: the
/// end-to-end metrics, then what the scaled ones were scaled by.
fn reported() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).chain([("host_speed", "ratio")])
}

const HEADER: &str =
    "                                            median             q1             q3            min            max   n\n";

/// The cost ledger of one traced run as a table: stage, busy seconds,
/// share of the ledger's basis, cost per unit, unit count.
fn ledger_table(f: &Fields) -> String {
    let sum = f.f64_or_zero("pipeline.ledger_sum_s");
    let basis = sum + f.f64_or_zero("pipeline.residual_s");
    let share = |busy: f64| if basis > 0.0 { 100.0 * busy / basis } else { 0.0 };
    let mut out = format!(
        "  {:<26} {:>10} {:>7} {:>11} {:>12}\n",
        "stage", "busy_s", "share", "ns/unit", "count"
    );
    for s in LEDGER {
        let busy = f.f64_or_zero(&format!("{}.busy_s", s.name));
        let count: f64 = s.count.iter().map(|k| f.f64_or_zero(k)).sum();
        if busy == 0.0 && count == 0.0 {
            continue;
        }
        let per = if count > 0.0 { busy * 1e9 / count } else { 0.0 };
        let name = if s.in_sum { s.name.to_string() } else { format!("({})", s.name) };
        out.push_str(&format!(
            "  {name:<26} {busy:>10.4} {:>6.1}% {per:>11.1} {count:>12.0}\n",
            share(busy)
        ));
    }
    out.push_str(&format!("  {:<26} {sum:>10.4} {:>6.1}%\n", "ledger sum", share(sum)));
    let residual = f.f64_or_zero("pipeline.residual_s");
    out.push_str(&format!(
        "  {:<26} {residual:>10.4} {:>6.1}%\n",
        "pipeline.residual",
        share(residual)
    ));
    out.push_str(
        "  (a stage in brackets re-runs work inside another stage and is not in the sum)\n",
    );
    out
}

/// The full report of `all`.
pub fn render_all(host: &Host, results: &[WorkloadResult]) -> String {
    let mut out = format!(
        "ah-perf: seed {}, commit {}, host_cpus {}, loadavg_1m {:.2}\n\
         closed loop, one job at a time; every timed repeat is a fresh child process.\n\
         packets_per_s, cpu_ns_per_packet and setup_s are in reference-host seconds (measured x host_speed); run_s and cpu_s are as measured.\n\
         `replay` reads its log from page cache; fsync latency (durable, wal.commit.*) is this host's disk, not a portable number.\n",
        host.seed, host.git_commit, host.cpus, host.loadavg_1m
    );
    for r in results {
        let why = WORKLOADS.iter().find(|w| w.name == r.workload).map_or("", |w| w.why);
        let labels =
            if r.labels.is_empty() { String::new() } else { format!(" [{}]", r.labels.join(", ")) };
        out.push_str(&format!("\n== {}{labels} ==\n   {why}\n", r.workload));
        out.push_str(HEADER);
        for (name, unit) in reported() {
            if let Some(s) = r.summary(name) {
                out.push_str(&summary_row(name, unit, &s));
            }
        }
        for line in &r.failures {
            out.push_str(&format!("  FAILED: {line}\n"));
        }
        if let Some(f) = &r.per_layer {
            out.push('\n');
            out.push_str(&ledger_table(f));
            out.push('\n');
            out.push_str(HEADER);
            for (name, unit, _) in &PER_LAYER {
                // One traced run per workload: n = 1, its own quartiles.
                if let Some(s) =
                    f.f64(name).ok().filter(|v| *v != 0.0).and_then(|v| Summary::of(&[v]))
                {
                    out.push_str(&summary_row(name, unit, &s));
                }
            }
        }
    }
    let (attempted, failed) =
        results.iter().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    out.push_str(&format!(
        "\n{attempted} operations, {failed} failed; fingerprint cross-checks and staged-vs-engine report checks {}\n",
        if failed == 0 { "all passed" } else { "FAILED" }
    ));
    out
}

/// One `check` row: the metric on the workload in both sets.
fn check_row(workload: &str, m: &EndToEnd, a: &Summary, b: &Summary, v: Verdict) -> String {
    let change = if a.median != 0.0 { 100.0 * (b.median - a.median) / a.median } else { 0.0 };
    format!(
        "  {workload:<14} {:<22} {:>14} {:>14} {change:>+8.2}% {:>6.1}% {:>6.1}% {:>5.0}%  {}\n",
        m.name,
        num(a.median),
        num(b.median),
        100.0 * a.spread(),
        100.0 * b.spread(),
        100.0 * m.bound.rel,
        v.word()
    )
}

/// Compare two sets of results metric by metric; returns the table and
/// the number of `regressed` rows.
pub fn render_check(a: &[WorkloadResult], b: &[WorkloadResult]) -> (String, usize) {
    let mut out = format!(
        "  {:<14} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound"
    );
    let mut regressed = 0;
    for (ra, rb) in a.iter().zip(b) {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.summary(m.name), rb.summary(m.name)) else { continue };
            let v = verdict(&sa, &sb, m.better, m.bound);
            regressed += usize::from(v == Verdict::Regressed);
            out.push_str(&check_row(ra.workload, m, &sa, &sb, v));
        }
    }
    (out, regressed)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The line the pipeline's driver reads: end-to-end medians untraced,
/// every per-layer metric traced.
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        let none = Fields::default();
        let f = r.per_layer.as_ref().unwrap_or(&none);
        PER_LAYER
            .iter()
            .map(|(n, unit, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    f.f64_or_zero(n),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .take(CONTRACT_END_TO_END)
            .map(|m| {
                let v = r.summary(m.name).map_or(0.0, |s| s.median);
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(m.name), json_str(m.unit))
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The results of `all` as JSON: host, seed, and per workload every
/// end-to-end summary and per-layer value.
pub fn results_json(host: &Host, results: &[WorkloadResult]) -> String {
    let mut out = format!(
        "{{\n  \"git_commit\": {},\n  \"seed\": {},\n  \"host_cpus\": {},\n  \"loadavg_1m\": {},\n  \"workloads\": [\n",
        json_str(&host.git_commit),
        host.seed,
        host.cpus,
        host.loadavg_1m
    );
    for (i, r) in results.iter().enumerate() {
        let labels: Vec<String> = r.labels.iter().map(|l| json_str(l)).collect();
        out.push_str(&format!(
            "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"labels\": [{}],\n     \"end_to_end\": {{",
            json_str(r.workload),
            r.attempted,
            r.failed,
            labels.join(", ")
        ));
        let rows: Vec<String> = reported()
            .filter_map(|(name, unit)| {
                let s = r.summary(name)?;
                Some(format!(
                    "\n       {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                    json_str(name),
                    json_str(unit),
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.n
                ))
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("},\n     \"per_layer\": {");
        if let Some(f) = &r.per_layer {
            let rows: Vec<String> = PER_LAYER
                .iter()
                .map(|(n, unit, _)| {
                    format!(
                        "\n       {}: {{\"unit\": {}, \"value\": {}, \"n\": 1}}",
                        json_str(n),
                        json_str(unit),
                        f.f64_or_zero(n)
                    )
                })
                .collect();
            out.push_str(&rows.join(","));
        }
        out.push_str(if i + 1 < results.len() { "}},\n" } else { "}}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| CONTRACT_WORKLOADS.contains(&w.name))
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .take(CONTRACT_END_TO_END)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.word()),
                m.bound.rel
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(n),
                json_str(unit),
                json_str(better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"crates/perf/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"crates/perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkloadResult {
        let mut f = Fields::default();
        f.put("simnet.mux.busy_s", 0.25);
        f.put("simnet.mux.packets_out", 1000);
        f.put("telescope.events.busy_s", 0.125);
        f.put("telescope.events.packets_in", 10);
        f.put("pipeline.ledger_sum_s", 0.25);
        f.put("pipeline.residual_s", 0.25);
        WorkloadResult {
            workload: "darknet",
            end_to_end: vec![
                ("packets_per_s", vec![2e6, 2.5e6, 3e6]),
                ("cpu_ns_per_packet", vec![400.0, 500.0, 500.0]),
                ("rss_bytes_per_event", vec![180.5]),
                ("setup_s", vec![0.5]),
                ("run_s", vec![1.25, 1.26, 1.24]),
                ("failed_share", vec![0.0]),
            ],
            per_layer: Some(f),
            attempted: 7,
            failed: 0,
            failures: vec![],
            labels: vec![],
        }
    }

    #[test]
    fn contract_line_carries_exactly_the_contract_metrics() {
        let r = result();
        let line = contract_line(&r, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"rss_bytes_per_event\": {\"value\": 180.5, \"unit\": \"bytes\"}"));
        assert_eq!(line.matches("\"value\"").count(), CONTRACT_END_TO_END);
        assert!(!line.contains("failed_share") && !line.contains("run_s") && !line.contains('\n'));
        let traced = contract_line(&r, true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"simnet.mux.busy_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(traced.contains("\"flow.cu.busy_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn ledger_table_shares_are_of_sum_plus_residual() {
        let table = ledger_table(result().per_layer.as_ref().unwrap());
        assert!(table.contains("simnet.mux"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
        assert!(table.contains("(telescope.events)"), "{table}");
        assert!(!table.contains("flow.cu"), "{table}");
    }

    #[test]
    fn check_counts_regressions_per_row() {
        let a = result();
        let mut b = result();
        b.end_to_end[4].1 = vec![2.0, 2.01, 2.02];
        let (table, regressed) = render_check(std::slice::from_ref(&a), &[b]);
        assert_eq!(regressed, 1, "{table}");
        assert!(table.contains("regressed"));
        let (_, none) = render_check(std::slice::from_ref(&a), std::slice::from_ref(&a));
        assert_eq!(none, 0);
    }
}
