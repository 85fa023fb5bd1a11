//! Telemetry determinism, snapshot-file schema, and ledger cross-checks.
//!
//! The contract under test (`ARCHITECTURE.md` §Observability): telemetry
//! is observation-only. Attaching a live recorder — and even writing
//! periodic snapshot files — must leave [`RunOutput::fingerprint`]
//! bitwise identical on every cell of the shared matrix (`tests/common`):
//! 1 and 8 threads, clean or faulted, in memory, journaled or replayed.
//! On top of that, the exported files must follow their documented
//! schemas, every metric name must follow the
//! `ah_<crate>_<subsystem>_<name>` scheme, and the `ah_core_health_*`
//! counters the execution units publish live must add up to the run's
//! `PipelineHealth` ledger cell by cell — suspended runs included — and
//! the units' lag and sweep histograms must count exactly the packets
//! and sweeps the stages count.

mod common;

use aggressive_scanners::pipeline::{self, RunOutput, Telemetry, WalOutcome, WalRun};
use ah_obs::json::{self, Json};
use ah_obs::{
    to_jsonl_line, valid_metric_name, Exporter, HistogramSnapshot, Recorder, Sample, Snapshot,
    Value,
};

/// Parse one line of the exporter's JSONL output through the
/// workspace's JSON reader.
fn parse_json(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("invalid JSON ({e}): {line}"))
}

// --- Shared run helpers -------------------------------------------------

use common::{opts, run_with, scenario};

/// An 8-shard faulted run recording to `rec`, exporting to `base`.
fn instrumented_run(base: &std::path::Path, interval: u64) -> (RunOutput, Recorder, Exporter) {
    let rec = Recorder::new();
    let exporter = Exporter::new(rec.clone(), base, interval);
    let mut tel = Telemetry::with_exporter(rec.clone(), exporter);
    let out = run_with(&mut tel, 8, true);
    let ex = tel.exporter.take().expect("exporter still attached");
    assert_eq!(ex.io_errors(), 0, "exporter hit IO errors");
    (out, rec, ex)
}

fn temp_base(tag: &str) -> std::path::PathBuf {
    common::temp_dir(&format!("telemetry-{tag}")).join("metrics")
}

/// Each `ah_core_health_<fate>_total` series of `stage`: its `category`
/// label (empty when it has none) and its value.
fn ledger_series<'a>(snap: &'a Snapshot, fate: &str, stage: &str) -> Vec<(&'a str, u64)> {
    let name = format!("ah_core_health_{fate}_total");
    let label = |s: &'a Sample, key: &str| {
        s.labels.iter().find(|(k, _)| k == key).map_or("", |(_, v)| v.as_str())
    };
    let series = snap.samples.iter().filter(|s| s.name == name && label(s, "stage") == stage);
    series
        .map(|s| match s.value {
            Value::Counter(v) => (label(s, "category"), v),
            _ => panic!("{name} is not a counter"),
        })
        .collect()
}

/// The one `ah_core_health_<fate>_total` counter of `stage`, if the
/// units publish it.
fn ledger_count(snap: &Snapshot, fate: &str, stage: &str) -> Option<u64> {
    match ledger_series(snap, fate, stage)[..] {
        [] => None,
        [("", n)] => Some(n),
        ref other => panic!("{fate} of {stage}: {other:?}, not one unlabelled counter"),
    }
}

/// The summed value of every series of the counter `name`.
fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    let series = snap.samples.iter().filter(|s| s.name == name);
    series
        .map(|s| match s.value {
            Value::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .sum()
}

/// The observation count of the one histogram `name`.
fn histogram_count(snap: &Snapshot, name: &str) -> u64 {
    match snap.samples.iter().find(|s| s.name == name).map(|s| &s.value) {
        Some(Value::Histogram(h)) => h.count,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

/// The `pos` of every JSONL snapshot line in `text`, in file order.
fn snapshot_positions(text: &str) -> Vec<u64> {
    text.lines()
        .map(|l| parse_json(l).get("pos").and_then(Json::as_num).expect("pos") as u64)
        .collect()
}

// --- Determinism --------------------------------------------------------

#[test]
fn metrics_do_not_perturb_output() {
    let base = temp_base("det");
    common::assert_observation_only(
        "telemetry-det",
        || {
            let rec = Recorder::new();
            // Tight interval so the exporter runs often mid-stream.
            let exporter = Exporter::new(rec.clone(), &base, 2_000);
            Telemetry::with_exporter(rec, exporter)
        },
        |cell, tel, _out| {
            let ex = tel.exporter.as_ref().expect("exporter still attached");
            assert_eq!(ex.io_errors(), 0, "exporter hit IO errors");
            // Every path ticks the periodic exporter mid-stream — replay
            // included — at positions that never run backwards.
            assert!(ex.snapshots_written() > 1, "only the closing snapshot at {:?}", cell.path);
            let text = std::fs::read_to_string(ex.jsonl_path()).expect("read jsonl");
            let pos = snapshot_positions(&text);
            assert!(pos.windows(2).all(|w| w[0] <= w[1]), "pos ran backwards at {:?}", cell.path);
        },
    );
}

/// A journaled sharded run — what the shipped binary executes under
/// `--wal-dir --threads N --metrics` — publishes the same dispatcher
/// instruments as an unjournaled one.
#[test]
fn journaled_sharded_run_publishes_dispatcher_instruments() {
    let dir = common::temp_dir("telemetry-pwal");
    let rec = Recorder::new();
    let mut tel = Telemetry::new(rec.clone());
    pipeline::run_parallel_wal(scenario(), opts(true), 4, &WalRun::new(&dir), &mut tel)
        .expect("parallel durable run")
        .completed()
        .expect("run completed");
    let snap = rec.snapshot();
    let shards_of = |name: &str| {
        let mut shards: Vec<&str> = snap
            .samples
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.labels.iter().filter(|(k, _)| k == "shard").map(|(_, v)| v.as_str()))
            .collect();
        shards.sort_unstable();
        shards
    };
    let shards = shards_of("ah_pipeline_ring_occupancy_hwm");
    assert_eq!(shards, ["0", "1", "2", "3"], "one ring-occupancy gauge per shard label");
    let naps = shards_of("ah_pipeline_shard_naps_total");
    assert_eq!(naps, ["0", "1", "2", "3"], "one naps counter per shard label");
    for name in ["ah_pipeline_dispatch_stalls_total", "ah_pipeline_dispatch_stall_us"] {
        assert!(snap.samples.iter().any(|s| s.name == name), "{name} not published");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --- Snapshot-file schema ------------------------------------------------

#[test]
fn jsonl_snapshots_follow_schema() {
    let base = temp_base("jsonl");
    let (_out, _rec, ex) = instrumented_run(&base, 5_000);
    let text = std::fs::read_to_string(ex.jsonl_path()).expect("read jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "expected multiple snapshots, got {}", lines.len());
    assert_eq!(lines.len() as u64, ex.snapshots_written());
    let mut prev_seq = None;
    let mut prev_pos = 0u64;
    let last = lines.len() - 1;
    for (idx, line) in lines.into_iter().enumerate() {
        let snap = parse_json(line);
        let seq = snap.get("seq").and_then(Json::as_num).expect("seq") as u64;
        let pos = snap.get("pos").and_then(Json::as_num).expect("pos") as u64;
        snap.get("ts_ms").and_then(Json::as_num).expect("ts_ms");
        if let Some(p) = prev_seq {
            assert_eq!(seq, p + 1, "snapshot seq must increase by one");
        }
        assert!(pos >= prev_pos, "snapshot pos must be monotone");
        (prev_seq, prev_pos) = (Some(seq), pos);
        let samples = snap.get("samples").and_then(Json::as_arr).expect("samples array");
        assert!(!samples.is_empty());
        for s in samples {
            let name = s.get("name").and_then(Json::as_str).expect("sample name");
            assert!(valid_metric_name(name), "bad metric name in JSONL: {name}");
            assert!(matches!(s.get("labels"), Some(Json::Obj(_))), "labels must be an object");
            match s.get("type").and_then(Json::as_str).expect("sample type") {
                "counter" | "gauge" => {
                    s.get("value").and_then(Json::as_num).expect("numeric value");
                }
                "histogram" => {
                    let bounds = s.get("bounds").and_then(Json::as_arr).expect("bounds");
                    let buckets = s.get("buckets").and_then(Json::as_arr).expect("buckets");
                    assert_eq!(buckets.len(), bounds.len() + 1, "+Inf bucket missing: {name}");
                    let count = s.get("count").and_then(Json::as_num).expect("count") as u64;
                    s.get("sum").and_then(Json::as_num).expect("sum");
                    // Buckets and count are separate atomics, so a
                    // mid-run snapshot taken while shard threads are
                    // observing need not be internally consistent; the
                    // identity must hold exactly on the final snapshot,
                    // written after every shard has joined.
                    if idx == last {
                        let total: f64 =
                            buckets.iter().map(|b| b.as_num().expect("bucket count")).sum();
                        assert_eq!(
                            total as u64, count,
                            "bucket counts disagree with count: {name}"
                        );
                    }
                }
                other => panic!("unknown sample type {other:?}"),
            }
        }
    }
}

// --- JSONL round-trip ----------------------------------------------------

/// Rebuild a [`Snapshot`] from one parsed JSONL line — the inverse of
/// [`to_jsonl_line`] over the exporter's own output.
fn snapshot_from_json(line: &Json) -> Snapshot {
    let samples = line
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array")
        .iter()
        .map(|s| {
            let name = s.get("name").and_then(Json::as_str).expect("name").to_string();
            let labels = match s.get("labels") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().expect("label value").to_string()))
                    .collect(),
                _ => panic!("labels must be an object"),
            };
            let num = |key: &str| {
                s.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("missing {key}")) as u64
            };
            let nums = |key: &str| -> Vec<u64> {
                s.get(key)
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("missing {key}"))
                    .iter()
                    .map(|n| n.as_num().expect("numeric element") as u64)
                    .collect()
            };
            let value = match s.get("type").and_then(Json::as_str).expect("type") {
                "counter" => Value::Counter(num("value")),
                "gauge" => {
                    Value::Gauge(s.get("value").and_then(Json::as_num).expect("value") as i64)
                }
                "histogram" => Value::Histogram(HistogramSnapshot {
                    bounds: nums("bounds"),
                    buckets: nums("buckets"),
                    count: num("count"),
                    sum: num("sum"),
                }),
                other => panic!("unknown sample type {other:?}"),
            };
            Sample { name, labels, value }
        })
        .collect();
    Snapshot { samples }
}

#[test]
fn jsonl_line_round_trips_through_the_reader() {
    // Serialize -> parse -> rebuild must be lossless for every
    // instrument kind, including label values that need JSON escapes.
    // (The reader stores numbers as f64, which holds every value here
    // exactly; pipeline counters stay far below 2^53.)
    let rec = Recorder::new();
    rec.counter("ah_test_stage_packets_total").add(12_345);
    rec.gauge_with("ah_test_stage_depth_current", &[("shard", "3"), ("router", "r\"1\"\n")])
        .set(-42);
    let h = rec.histogram("ah_test_stage_lag_us", &[10, 100, 1_000]);
    for v in [1, 11, 99, 5_000] {
        h.observe(v);
    }
    let snap = rec.snapshot();
    let line = to_jsonl_line(&snap, 7, 9_001, 1_234_567);

    let parsed = parse_json(&line);
    assert_eq!(parsed.get("seq").and_then(Json::as_num), Some(7.0));
    assert_eq!(parsed.get("pos").and_then(Json::as_num), Some(9_001.0));
    assert_eq!(parsed.get("ts_ms").and_then(Json::as_num), Some(1_234_567.0));
    let rebuilt = snapshot_from_json(&parsed);
    assert_eq!(rebuilt, snap, "JSONL round-trip lost or mangled a sample");
    // And the rebuilt snapshot re-serializes byte-identically.
    assert_eq!(to_jsonl_line(&rebuilt, 7, 9_001, 1_234_567), line);
}

#[test]
fn prometheus_file_follows_text_exposition_format() {
    let base = temp_base("prom");
    let (_out, _rec, ex) = instrumented_run(&base, 50_000);
    let text = std::fs::read_to_string(ex.prom_path()).expect("read prom");
    let mut typed: Vec<String> = Vec::new();
    let mut series = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let kind = it.next().expect("TYPE kind");
            assert!(valid_metric_name(name), "bad metric name in TYPE line: {name}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind {kind:?}"
            );
            typed.push(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments expected: {line}");
        // `name{labels} value` or `name value`.
        let name_end = line.find(['{', ' ']).unwrap_or_else(|| panic!("malformed line: {line}"));
        let name = &line[..name_end];
        // Histogram series append _bucket/_sum/_count to the base name.
        let bare = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(&b.to_string()))
            .unwrap_or(name);
        assert!(typed.contains(&bare.to_string()), "sample line for undeclared metric: {line}");
        let value = line.rsplit(' ').next().expect("value field");
        assert!(value.parse::<f64>().is_ok(), "sample value must be numeric: {line}");
        series += 1;
    }
    assert!(series >= typed.len(), "every declared metric should have samples");
}

// --- Ledger cross-check and layer coverage -------------------------------

/// The units publish their ledgers live, and the counters are the ledger:
/// on a faulted run, every stage's received, accepted, repaired and
/// quarantined counts and every discard category, summed over the units,
/// equal `RunOutput::health` (a zero category the ledger leaves out reads
/// 0), and the exported identity balances.
#[test]
fn health_gauges_mirror_the_pipeline_ledger() {
    for threads in [1, 8] {
        let rec = Recorder::new();
        let mut tel = Telemetry::new(rec.clone());
        let out = run_with(&mut tel, threads, true);
        assert!(out.health.conserves());
        assert!(out.health.stage("faults.injector").is_some(), "the run injected no faults");
        let snap = rec.snapshot();
        for st in &out.health.stages {
            let at = format!("{} at {threads} threads", st.stage);
            // Every stage counts what it received and accepted; a cell a
            // stage never counts is not published and reads 0.
            let count = |fate| ledger_count(&snap, fate, &st.stage);
            assert_eq!(count("received"), Some(st.received), "{at}");
            assert_eq!(count("accepted"), Some(st.accepted), "{at}");
            let count = |fate| count(fate).unwrap_or(0);
            assert_eq!(count("repaired"), st.repaired, "{at}");
            assert_eq!(count("quarantined"), st.quarantined, "{at}");
            let discarded = ledger_series(&snap, "discarded", &st.stage);
            for (category, n) in &st.discarded {
                assert!(discarded.contains(&(category.as_str(), *n)), "{at}: {category} {n}");
            }
            for &(category, n) in &discarded {
                assert_eq!(st.discarded.get(category).copied().unwrap_or(0), n, "{at}: {category}");
            }
            let discarded: u64 = discarded.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                count("received"),
                count("accepted") + count("quarantined") + discarded,
                "exported ledger does not balance for {at}"
            );
        }
        // The per-router sampler counts are not ledger rows, but what the
        // samplers selected is what the flow caches received.
        let selected = counter_sum(&snap, "ah_flow_sampler_packets_selected_total");
        let flows =
            ["flow.merit", "flow.cu"].map(|f| out.health.stage(f).expect("flow stage").received);
        assert_eq!(selected, flows.iter().sum::<u64>(), "sampled packets at {threads} threads");
        // The units' own instruments: one lag observation per packet the
        // aggregator received, one duration per sweep it counts.
        let events = out.health.stage("telescope.events").expect("events stage").received;
        let lag = histogram_count(&snap, "ah_telescope_agg_watermark_lag_us");
        assert_eq!(lag, events, "lag observations at {threads} threads");
        for (histogram, sweeps) in [
            ("ah_telescope_agg_sweep_duration_us", "ah_telescope_agg_sweeps_total"),
            ("ah_flow_cache_sweep_duration_us", "ah_flow_cache_sweeps_total"),
        ] {
            let timed = histogram_count(&snap, histogram);
            assert_eq!(timed, counter_sum(&snap, sweeps), "{histogram} at {threads} threads");
        }
        // And nothing is published for a stage the ledger does not list.
        let published = snap.samples.iter().filter(|s| s.name.starts_with("ah_core_health_"));
        for s in published {
            let stage = s.labels.iter().find(|(k, _)| k == "stage").map(|(_, v)| v.as_str());
            assert!(stage.and_then(|st| out.health.stage(st)).is_some(), "{s:?}");
        }
    }
}

/// A suspended run has published every packet it fed, on both executors:
/// the inline unit on its exit, each shard after draining the tail the
/// dispatcher had staged for it. The suspension points sit at the first
/// packet, on both sides of the first 256-packet feeder slice's edge, and
/// deep inside the stream: the packet a run suspends on is executed, and
/// nothing after it.
#[test]
fn suspended_runs_publish_every_packet_they_fed() {
    for at in [1, 255, 256, 257, 5_000] {
        for threads in [None, Some(1), Some(4)] {
            let dir = common::temp_dir(&format!("telemetry-suspend-{at}-{}", threads.unwrap_or(0)));
            let rec = Recorder::new();
            let mut tel = Telemetry::new(rec.clone());
            let wal = WalRun::new(&dir).suspend_after(at);
            let outcome = match threads {
                None => pipeline::run_wal(scenario(), opts(false), &wal, &mut tel),
                Some(n) => pipeline::run_parallel_wal(scenario(), opts(false), n, &wal, &mut tel),
            };
            assert!(
                matches!(outcome, Ok(WalOutcome::Suspended { delivered, .. }) if delivered == at),
                "{threads:?}: the run did not suspend at {at}"
            );
            let delivered = ledger_count(&rec.snapshot(), "received", "telescope.capture");
            assert_eq!(delivered, Some(at), "{threads:?} threads, suspended at {at}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn exported_metrics_cover_every_layer() {
    let rec = Recorder::new();
    let mut tel = Telemetry::new(rec.clone());
    let out = run_with(&mut tel, 8, false);
    let snap = rec.snapshot();
    let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
    for prefix in ["ah_telescope_", "ah_flow_", "ah_intel_", "ah_core_health_", "ah_pipeline_"] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no metrics exported for layer {prefix}"
        );
    }
    for name in &names {
        assert!(valid_metric_name(name), "bad metric name registered: {name}");
    }
    // Ring occupancy: one gauge per shard on the 8-thread run.
    let rings = snap.samples.iter().filter(|s| s.name == "ah_pipeline_ring_occupancy_hwm").count();
    assert_eq!(rings, 8, "expected one ring-occupancy gauge per shard");
    // Cross-check the capture's input counter against the run itself: a
    // clean run delivers every generated packet.
    let delivered = ledger_count(&snap, "received", "telescope.capture");
    assert_eq!(delivered, Some(out.generated_packets));
    // The telescope's watermark-lag histogram observes exactly the
    // packets the aggregator accepted or quarantined past the filter.
    let lag = snap
        .samples
        .iter()
        .find(|s| s.name == "ah_telescope_agg_watermark_lag_us")
        .expect("watermark lag histogram");
    match &lag.value {
        Value::Histogram(h) => assert!(h.count > 0, "lag histogram never observed"),
        _ => panic!("watermark lag metric is not a histogram"),
    }
}
