//! Snapshot types and serializers (JSONL + Prometheus text exposition),
//! plus the periodic file [`Exporter`].
//!
//! Serialization is hand-rolled: the snapshot schema is tiny, names are
//! constrained by [`crate::valid_metric_name`], and keeping `ah-obs`
//! dependency-free means the hot pipeline never pays for a serde tree it
//! does not need.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;
use crate::recorder::Recorder;

/// One instrument's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram state: bucket bounds, per-bucket counts (one more
/// than `bounds` — the final entry is the implicit `+Inf` bucket),
/// total count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// One named instrument in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`ah_<crate>_<subsystem>_<name>`).
    pub name: String,
    /// Sorted label pairs (may be empty).
    pub labels: Vec<(String, String)>,
    /// The instrument's value.
    pub value: Value,
}

/// A point-in-time view of a recorder's full registry, sorted by
/// (name, labels).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All registered instruments.
    pub samples: Vec<Sample>,
}

fn json_labels(labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Serialize a snapshot as one JSON object on a single line (JSONL).
///
/// Schema:
/// `{"seq":N,"pos":N,"ts_ms":N,"samples":[{"name":S,"labels":{..},"type":"counter"|"gauge"|"histogram",...}]}`
/// — counters carry `"value"`, gauges `"value"`, histograms `"bounds"`,
/// `"buckets"`, `"count"` and `"sum"`. `pos` is the deterministic
/// pipeline position (packets dispatched) at which the snapshot was
/// taken; `ts_ms` is wall-clock and informational only.
pub fn to_jsonl_line(snap: &Snapshot, seq: u64, pos: u64, ts_ms: u64) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(snap.samples.len());
    for s in &snap.samples {
        let head =
            format!("\"name\":\"{}\",\"labels\":{}", json::escape(&s.name), json_labels(&s.labels));
        let body = match &s.value {
            Value::Counter(v) => format!("{head},\"type\":\"counter\",\"value\":{v}"),
            Value::Gauge(v) => format!("{head},\"type\":\"gauge\",\"value\":{v}"),
            Value::Histogram(h) => format!(
                "{head},\"type\":\"histogram\",\"bounds\":{:?},\"buckets\":{:?},\"count\":{},\"sum\":{}",
                h.bounds, h.buckets, h.count, h.sum
            ),
        };
        parts.push(format!("{{{body}}}"));
    }
    format!("{{\"seq\":{seq},\"pos\":{pos},\"ts_ms\":{ts_ms},\"samples\":[{}]}}", parts.join(","))
}

fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", json::escape(v))).collect();
    format!("{{{}}}", body.join(","))
}

fn prom_labels_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", json::escape(v))).collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

/// Serialize a snapshot in Prometheus text exposition format v0.0.4.
///
/// Counters get a `_total`-style single line, gauges likewise, and
/// histograms expand to cumulative `_bucket{le=...}` series plus `_sum`
/// and `_count`, matching what a Prometheus scraper expects.
pub(crate) fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for s in &snap.samples {
        let kind = match &s.value {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        };
        if s.name != last_name {
            out.push_str(&format!("# TYPE {} {}\n", s.name, kind));
            last_name = &s.name;
        }
        match &s.value {
            Value::Counter(v) => {
                out.push_str(&format!("{}{} {}\n", s.name, prom_labels(&s.labels), v));
            }
            Value::Gauge(v) => {
                out.push_str(&format!("{}{} {}\n", s.name, prom_labels(&s.labels), v));
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (i, b) in h.buckets.iter().enumerate() {
                    cum += b;
                    let le = match h.bounds.get(i) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        prom_labels_with_le(&s.labels, &le),
                        cum
                    ));
                }
                out.push_str(&format!("{}_sum{} {}\n", s.name, prom_labels(&s.labels), h.sum));
                out.push_str(&format!("{}_count{} {}\n", s.name, prom_labels(&s.labels), h.count));
            }
        }
    }
    out
}

/// Periodic snapshot-to-file exporter.
///
/// Ticks are driven by a deterministic *pipeline position* (packets
/// dispatched), not by wall-clock, so the set of export points is
/// identical across runs of the same scenario; only the sampled values
/// of wall-clock histograms differ. Each tick appends one line to
/// `<base>.jsonl` and rewrites `<base>.prom` with the latest state.
///
/// I/O failures are counted (see [`Exporter::io_errors`]) and otherwise
/// swallowed: telemetry must never abort a measurement run.
#[derive(Debug)]
pub struct Exporter {
    recorder: Recorder,
    base: PathBuf,
    interval: u64,
    next: u64,
    seq: u64,
    io_errors: u64,
    truncated: bool,
}

impl Exporter {
    /// Create an exporter writing `<base>.jsonl` and `<base>.prom`,
    /// snapshotting every `interval` position units (0 disables
    /// periodic ticks; [`Exporter::export_now`] still works).
    pub fn new(recorder: Recorder, base: impl Into<PathBuf>, interval: u64) -> Self {
        Exporter {
            recorder,
            base: base.into(),
            interval,
            next: interval,
            seq: 0,
            io_errors: 0,
            truncated: false,
        }
    }

    /// Path of the JSONL stream this exporter appends to.
    pub fn jsonl_path(&self) -> PathBuf {
        self.base.with_extension("jsonl")
    }

    /// Path of the Prometheus text file this exporter rewrites.
    pub fn prom_path(&self) -> PathBuf {
        self.base.with_extension("prom")
    }

    /// Number of snapshots written so far.
    pub fn snapshots_written(&self) -> u64 {
        self.seq
    }

    /// Number of I/O errors swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Export if `pos` has reached the next periodic tick.
    pub fn maybe_export(&mut self, pos: u64) {
        if self.interval == 0 || pos < self.next {
            return;
        }
        while self.next <= pos {
            self.next += self.interval;
        }
        self.export_now(pos);
    }

    /// Unconditionally snapshot and write both output files.
    pub fn export_now(&mut self, pos: u64) {
        let snap = self.recorder.snapshot();
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let line = to_jsonl_line(&snap, self.seq, pos, ts_ms);
        let prom = to_prometheus(&snap);
        self.seq += 1;

        if let Some(dir) = self.base.parent() {
            if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
                self.io_errors += 1;
            }
        }
        let jsonl = OpenOptions::new()
            .create(true)
            .truncate(!self.truncated)
            .append(self.truncated)
            .write(true)
            .open(self.jsonl_path())
            .and_then(|mut f| writeln!(f, "{line}"));
        if jsonl.is_err() {
            self.io_errors += 1;
        }
        self.truncated = true;
        if std::fs::write(self.prom_path(), prom).is_err() {
            self.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_snapshot() -> Snapshot {
        Snapshot {
            samples: vec![
                Sample {
                    name: "ah_test_stage_packets_total".into(),
                    labels: vec![],
                    value: Value::Counter(42),
                },
                Sample {
                    name: "ah_test_stage_depth_current".into(),
                    labels: vec![("shard".into(), "3".into())],
                    value: Value::Gauge(-7),
                },
                Sample {
                    name: "ah_test_stage_lag_us".into(),
                    labels: vec![],
                    value: Value::Histogram(HistogramSnapshot {
                        bounds: vec![10, 100],
                        buckets: vec![1, 2, 3],
                        count: 6,
                        sum: 777,
                    }),
                },
            ],
        }
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        // A recorder with nothing registered still produces valid output
        // on both serializers: a JSONL object with an empty samples array
        // and an empty (but not malformed) Prometheus page.
        let snap = Snapshot::default();
        assert_eq!(
            to_jsonl_line(&snap, 0, 0, 0),
            "{\"seq\":0,\"pos\":0,\"ts_ms\":0,\"samples\":[]}"
        );
        assert_eq!(to_prometheus(&snap), "");
        assert_eq!(Recorder::new().snapshot(), snap);
    }

    #[test]
    fn prometheus_label_ordering_is_stable() {
        // Registration order of label pairs must not leak into the
        // exposition text: the registry keys on sorted label sets, so two
        // recorders built with permuted label slices serialize
        // byte-identically — a scraper sees one stable series, not two.
        let build = |labels: &[(&str, &str)]| {
            let rec = Recorder::new();
            rec.counter_with("ah_test_stage_packets_total", labels).add(9);
            rec.gauge_with("ah_test_stage_depth_current", labels).set(4);
            rec.snapshot()
        };
        let forward = build(&[("router", "r1"), ("shard", "3")]);
        let reversed = build(&[("shard", "3"), ("router", "r1")]);
        assert_eq!(forward, reversed, "label registration order changed the snapshot");
        assert_eq!(to_prometheus(&forward), to_prometheus(&reversed));
        assert_eq!(to_jsonl_line(&forward, 1, 2, 3), to_jsonl_line(&reversed, 1, 2, 3));
        // Labels render sorted by key, and re-serializing the same
        // snapshot is byte-stable.
        let text = to_prometheus(&forward);
        assert!(text.contains("ah_test_stage_packets_total{router=\"r1\",shard=\"3\"} 9\n"));
        assert_eq!(text, to_prometheus(&forward));
    }

    #[test]
    fn jsonl_schema() {
        let line = to_jsonl_line(&demo_snapshot(), 5, 10_000, 123);
        assert!(line.starts_with("{\"seq\":5,\"pos\":10000,\"ts_ms\":123,\"samples\":["));
        assert!(line.contains(
            "{\"name\":\"ah_test_stage_packets_total\",\"labels\":{},\"type\":\"counter\",\"value\":42}"
        ));
        assert!(line.contains("\"labels\":{\"shard\":\"3\"},\"type\":\"gauge\",\"value\":-7"));
        assert!(line.contains(
            "\"type\":\"histogram\",\"bounds\":[10, 100],\"buckets\":[1, 2, 3],\"count\":6,\"sum\":777"
        ));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn prometheus_schema() {
        let text = to_prometheus(&demo_snapshot());
        assert!(text.contains("# TYPE ah_test_stage_packets_total counter\n"));
        assert!(text.contains("ah_test_stage_packets_total 42\n"));
        assert!(text.contains("ah_test_stage_depth_current{shard=\"3\"} -7\n"));
        // cumulative buckets: 1, 3, 6
        assert!(text.contains("ah_test_stage_lag_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("ah_test_stage_lag_us_bucket{le=\"100\"} 3\n"));
        assert!(text.contains("ah_test_stage_lag_us_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("ah_test_stage_lag_us_sum 777\n"));
        assert!(text.contains("ah_test_stage_lag_us_count 6\n"));
    }

    #[test]
    fn json_escaping() {
        let snap = Snapshot {
            samples: vec![Sample {
                name: "ah_test_stage_odd_total".into(),
                labels: vec![("k".into(), "a\"b\\c\nd".into())],
                value: Value::Counter(1),
            }],
        };
        let line = to_jsonl_line(&snap, 0, 0, 0);
        assert!(line.contains("\"k\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn exporter_ticks_at_positions() {
        let dir = std::env::temp_dir().join("ah-obs-exporter-test");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Recorder::new();
        let c = rec.counter("ah_test_stage_packets_total");
        let mut ex = Exporter::new(rec.clone(), dir.join("metrics"), 100);
        ex.maybe_export(50); // below first tick
        assert_eq!(ex.snapshots_written(), 0);
        c.add(10);
        ex.maybe_export(100); // tick 1
        c.add(5);
        ex.maybe_export(150); // no tick (next is 200)
        ex.maybe_export(450); // tick 2; next advances past 450
        ex.export_now(460); // final flush
        assert_eq!(ex.snapshots_written(), 3);
        assert_eq!(ex.io_errors(), 0);

        let jsonl = std::fs::read_to_string(ex.jsonl_path()).expect("jsonl written");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"pos\":100"));
        assert!(lines[1].contains("\"pos\":450"));
        assert!(lines[2].contains("\"pos\":460"));

        let prom = std::fs::read_to_string(ex.prom_path()).expect("prom written");
        assert!(prom.contains("ah_test_stage_packets_total 15\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
