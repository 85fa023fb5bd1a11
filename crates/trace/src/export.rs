//! Trace exporters: Chrome trace-event JSON and folded-stack
//! flamegraph text.
//!
//! Serialization is hand-rolled, exactly like ah-obs: the schema is
//! small, names are constrained by [`ah_obs::valid_metric_name`], and
//! the pipeline never links a serde tree for its telemetry; string
//! payloads go through [`ah_obs::json::escape`].
//!
//! The Chrome export targets the trace-event format's JSON Object
//! Format (`{"traceEvents":[...]}`), loadable in Perfetto and
//! `chrome://tracing`: `B`/`E` duration events per track (one track per
//! registered thread), `i` instants, and `s`/`t`/`f` flow events
//! linking every sampled packet journey across tracks. The folded
//! export emits `track;outer;inner <self-time-µs>` lines, the input
//! format of Brendan Gregg's `flamegraph.pl` — the no-`perf` fallback
//! `scripts/flamegraph.sh` uses.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use ah_obs::json;

/// What an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Span begin (matched by a later [`EventKind::End`] on the same
    /// track).
    Begin,
    /// Span end.
    End,
    /// Instantaneous point event.
    Instant,
    /// Instant on the journey of the sampled source it holds (journey id
    /// `src + 1`).
    Journey(u32),
}

/// One event of a track, named by the `&'static str` it was emitted
/// with. Its logical sequence number is its index in the track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin/end/instant/journey instant.
    pub(crate) kind: EventKind,
    /// Span name (`ah_<crate>_<subsystem>_<name>`).
    pub(crate) name: &'static str,
    /// Wall-clock nanoseconds since the tracer epoch.
    pub(crate) ts_ns: u64,
}

/// One thread's track: label plus its events in emission order.
#[derive(Clone, Debug, Default)]
pub struct TrackSnapshot {
    /// Display label (`<scheme-name>/<index>`).
    pub(crate) label: String,
    /// Track id (registration order; the Chrome `tid`).
    pub(crate) tid: u32,
    /// Events in emission order (timestamps non-decreasing).
    pub events: Vec<TraceEvent>,
}

/// A full trace snapshot across all tracks.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// All registered tracks in `tid` order.
    pub tracks: Vec<TrackSnapshot>,
    /// Events dropped on track overflow (trace is incomplete if > 0).
    pub dropped: u64,
}

/// Nanoseconds → the trace-event `ts` field (microseconds, fractional
/// part kept so distinct events never collapse to one timestamp).
fn ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

fn dotted(src: u32) -> String {
    format!("{}.{}.{}.{}", src >> 24, (src >> 16) & 0xff, (src >> 8) & 0xff, src & 0xff)
}

/// Serialize a snapshot as Chrome trace-event JSON (see module docs).
///
/// Unbalanced spans (a begin whose guard never dropped before the
/// snapshot) are closed synthetically at the track's last timestamp so
/// the output always validates; the count of synthesized ends is
/// recorded in the `ah_trace_export_meta` instant's args.
pub fn to_chrome_trace(snap: &TraceSnapshot) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"aggressive-scanners\"}}"
            .to_string(),
    );
    let mut synthesized = 0u64;
    // (ts_ns, tid, seq) for every journey instant, to be linked with
    // flow events afterwards.
    let mut journey_points: BTreeMap<u64, Vec<(u64, u32, usize)>> = BTreeMap::new();
    for track in &snap.tracks {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            track.tid,
            json::escape(&track.label)
        ));
        events.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            track.tid, track.tid
        ));
        let mut stack: Vec<&str> = Vec::new();
        let mut last_ts = 0u64;
        for (seq, ev) in track.events.iter().enumerate() {
            last_ts = last_ts.max(ev.ts_ns);
            let mut args = format!("\"seq\":{seq}");
            let ph = match ev.kind {
                EventKind::Begin => {
                    stack.push(ev.name);
                    "\"B\""
                }
                EventKind::End => {
                    stack.pop();
                    "\"E\""
                }
                EventKind::Instant => "\"i\",\"s\":\"t\"",
                EventKind::Journey(src) => {
                    let journey = u64::from(src) + 1;
                    journey_points.entry(journey).or_default().push((ev.ts_ns, track.tid, seq));
                    args += &format!(",\"journey\":{journey},\"src\":\"{}\"", dotted(src));
                    "\"i\",\"s\":\"t\""
                }
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":{ph},\"ts\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{{args}}}}}",
                json::escape(ev.name),
                ts_us(ev.ts_ns),
                track.tid,
            ));
        }
        // Close any still-open spans so B/E balance per track.
        while let Some(name) = stack.pop() {
            synthesized += 1;
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{},\
                 \"pid\":1,\"tid\":{}}}",
                json::escape(name),
                ts_us(last_ts),
                track.tid
            ));
        }
    }
    // Flow arrows: one s → t… → f chain per journey with ≥ 2 points.
    for (journey, mut points) in journey_points {
        if points.len() < 2 {
            continue;
        }
        points.sort();
        let last = points.len() - 1;
        for (i, (ts_ns, tid, _)) in points.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            let bp = if ph == "s" { "" } else { ",\"bp\":\"e\"" };
            events.push(format!(
                "{{\"name\":\"ah_trace_journey_flow\",\"cat\":\"journey\",\"ph\":\"{}\",\
                 \"id\":{},\"ts\":{},\"pid\":1,\"tid\":{}{}}}",
                ph,
                journey,
                ts_us(*ts_ns),
                tid,
                bp
            ));
        }
    }
    events.push(format!(
        "{{\"name\":\"ah_trace_export_meta\",\"cat\":\"meta\",\"ph\":\"i\",\"s\":\"g\",\
         \"ts\":0.000,\"pid\":1,\"tid\":0,\
         \"args\":{{\"dropped\":{},\"synthesized_ends\":{}}}}}",
        snap.dropped, synthesized
    ));
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Serialize a snapshot as folded stacks (`flamegraph.pl` input):
/// one `track;outer;…;leaf <self-time-µs>` line per unique stack,
/// sorted, self time attributed exclusively (child time subtracted).
pub fn to_folded_stacks(snap: &TraceSnapshot) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for track in &snap.tracks {
        let label = track.label.replace(';', "_");
        // (name, begin_ts, child_ns)
        let mut stack: Vec<(&str, u64, u64)> = Vec::new();
        let mut last_ts = 0u64;
        let mut close = |stack: &mut Vec<(&str, u64, u64)>, end_ts: u64| {
            let Some((name, begin, child_ns)) = stack.pop() else { return };
            let dur = end_ts.saturating_sub(begin);
            let self_ns = dur.saturating_sub(child_ns);
            if let Some((_, _, parent_child)) = stack.last_mut() {
                *parent_child += dur;
            }
            let mut key = label.clone();
            for (frame, _, _) in stack.iter() {
                key.push(';');
                key.push_str(frame);
            }
            key.push(';');
            key.push_str(name);
            // Self time in µs, floored at 1 so fast spans still render.
            *folded.entry(key).or_insert(0) += (self_ns / 1000).max(1);
        };
        for ev in &track.events {
            last_ts = last_ts.max(ev.ts_ns);
            match ev.kind {
                EventKind::Begin => stack.push((ev.name, ev.ts_ns, 0)),
                EventKind::End => close(&mut stack, ev.ts_ns),
                EventKind::Instant | EventKind::Journey(_) => {}
            }
        }
        while !stack.is_empty() {
            close(&mut stack, last_ts);
        }
    }
    let mut out = String::new();
    for (key, us) in folded {
        out.push_str(&format!("{key} {us}\n"));
    }
    out
}

/// Write both export formats: Chrome JSON at `json_path` and folded
/// stacks alongside it with the extension replaced by `.folded`.
/// Returns the folded path.
pub fn write_artifacts(snap: &TraceSnapshot, json_path: &Path) -> io::Result<PathBuf> {
    std::fs::write(json_path, to_chrome_trace(snap))?;
    let folded_path = json_path.with_extension("folded");
    std::fs::write(&folded_path, to_folded_stacks(snap))?;
    Ok(folded_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, Tracer};

    fn sample_snapshot() -> TraceSnapshot {
        let tr = Tracer::new(TraceConfig { seed: 3, sample_one_in: 1, buf_capacity: 128 });
        tr.set_track("ah_test_track_main", 0);
        let j = tr.journey_id(10);
        {
            let _route = tr.span("ah_test_stage_route");
            tr.journey_instant("ah_test_stage_route", j);
            let _consume = tr.span("ah_test_stage_consume");
            tr.instant("ah_test_mark_done");
        }
        tr.journey_instant("ah_test_stage_detect", j);
        tr.snapshot()
    }

    #[test]
    fn chrome_trace_validates_and_links_journeys() {
        let json = to_chrome_trace(&sample_snapshot());
        let stats = crate::check::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.tracks, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.flow_ids.len(), 1);
        assert!(stats.flow_ids.contains(&11)); // src 10 → journey 11
        assert!(stats.names.contains("ah_test_stage_route"));
        assert!(stats.names.contains("ah_test_stage_detect"));
        // Every event's logical sequence is its index in the track.
        let root = json::parse(&json).expect("json");
        let Some(json::Json::Arr(events)) = root.get("traceEvents") else { panic!("no events") };
        let seq = |e: &json::Json| e.get("args")?.get("seq")?.as_num();
        let seqs: Vec<f64> = events.iter().filter_map(seq).collect();
        assert_eq!(seqs, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn unbalanced_span_gets_synthesized_end() {
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: 16 });
        let guard = tr.span("ah_test_span_open");
        let json = to_chrome_trace(&tr.snapshot());
        drop(guard);
        let stats = crate::check::validate_chrome_trace(&json).expect("synthesized end balances");
        assert_eq!(stats.spans, 1);
    }

    #[test]
    fn folded_stacks_attribute_self_time_exclusively() {
        let snap = TraceSnapshot {
            tracks: vec![TrackSnapshot {
                label: "ah_test_track_main/0".to_string(),
                tid: 0,
                events: vec![
                    TraceEvent { kind: EventKind::Begin, name: "ah_test_span_outer", ts_ns: 0 },
                    TraceEvent {
                        kind: EventKind::Begin,
                        name: "ah_test_span_inner",
                        ts_ns: 10_000,
                    },
                    TraceEvent { kind: EventKind::End, name: "ah_test_span_inner", ts_ns: 40_000 },
                    TraceEvent { kind: EventKind::End, name: "ah_test_span_outer", ts_ns: 50_000 },
                ],
            }],
            dropped: 0,
        };
        let folded = to_folded_stacks(&snap);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "ah_test_track_main/0;ah_test_span_outer 20",
                "ah_test_track_main/0;ah_test_span_outer;ah_test_span_inner 30",
            ]
        );
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = TraceSnapshot::default();
        let json = to_chrome_trace(&snap);
        let stats = crate::check::validate_chrome_trace(&json).expect("empty trace is valid");
        assert_eq!(stats.tracks, 0);
        assert_eq!(stats.spans, 0);
        assert_eq!(to_folded_stacks(&snap), "");
    }
}
