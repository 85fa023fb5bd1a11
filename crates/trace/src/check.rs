//! First-party Chrome trace-event schema validator.
//!
//! CI must be able to assert that an emitted trace is loadable without
//! reaching for external tooling, so this module reads the file back
//! through the workspace's JSON reader ([`ah_obs::json`]) and enforces
//! the subset of the trace-event format our exporter produces:
//!
//! * the root is an object with a `traceEvents` array;
//! * every event has a `ph` phase string, and `B`/`E`/`i` events carry
//!   `name`/`pid`/`tid`/`ts`;
//! * per track (`pid`,`tid`), timestamps of `cat:"span"` events are
//!   non-decreasing in array order and `B`/`E` events balance with
//!   stack discipline (each `E` names the innermost open span);
//! * span names satisfy [`ah_obs::valid_metric_name`];
//! * flow events (`s`/`t`/`f`) carry an `id`, and every flow chain has
//!   a start and ≥ 2 points.
//!
//! `tests/cli.rs` and `tests/trace.rs` of the root package run it over
//! the traces the binaries and the engine write.

use std::collections::{BTreeMap, BTreeSet};

use ah_obs::json::{self, Json};

/// Summary statistics of a validated trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Distinct (pid, tid) tracks that carried span events.
    pub tracks: usize,
    /// Span count (`B` events).
    pub(crate) spans: usize,
    /// Distinct flow (journey) ids.
    pub flow_ids: BTreeSet<u64>,
    /// Distinct span/instant names seen.
    pub names: BTreeSet<String>,
}

fn event_context(idx: usize, ev: &Json) -> String {
    let name = ev.get("name").and_then(Json::as_str).unwrap_or("?");
    format!("event #{idx} ({name})")
}

/// Validate Chrome trace-event JSON produced by [`crate::export`] (see
/// module docs for the exact contract). Returns summary stats on
/// success and a human-readable reason on the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = json::parse(text)?;
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        return Err("root object lacks a traceEvents array".to_string());
    };
    let mut stats = TraceStats::default();
    // Per (pid, tid): open-span name stack + last span-event timestamp.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    // Flow id → (starts, total points).
    let mut flows: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for (idx, ev) in events.iter().enumerate() {
        let ctx = event_context(idx, ev);
        let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
            return Err(format!("{ctx}: missing ph"));
        };
        match ph {
            "B" | "E" | "i" => {
                let Some(name) = ev.get("name").and_then(Json::as_str) else {
                    return Err(format!("{ctx}: missing name"));
                };
                let (Some(pid), Some(tid), Some(ts)) = (
                    ev.get("pid").and_then(Json::as_num),
                    ev.get("tid").and_then(Json::as_num),
                    ev.get("ts").and_then(Json::as_num),
                ) else {
                    return Err(format!("{ctx}: missing pid/tid/ts"));
                };
                let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("span");
                if cat != "span" {
                    continue;
                }
                let track = (pid as u64, tid as u64);
                if let Some(&prev) = last_ts.get(&track) {
                    if ts < prev {
                        return Err(format!(
                            "{ctx}: ts {ts} < {prev} — non-monotonic on track {track:?}"
                        ));
                    }
                }
                last_ts.insert(track, ts);
                let base = name.split('/').next().unwrap_or(name);
                if !ah_obs::valid_metric_name(base) {
                    return Err(format!("{ctx}: span name violates the naming scheme"));
                }
                stats.names.insert(name.to_string());
                let stack = stacks.entry(track).or_default();
                match ph {
                    "B" => {
                        stats.spans += 1;
                        stack.push(name.to_string());
                    }
                    "E" => match stack.pop() {
                        Some(top) if top == name => {}
                        Some(top) => {
                            return Err(format!(
                                "{ctx}: E does not match innermost open span ({top})"
                            ));
                        }
                        None => return Err(format!("{ctx}: E with no open span")),
                    },
                    _ => {}
                }
            }
            "s" | "t" | "f" => {
                let Some(id) = ev.get("id").and_then(Json::as_num) else {
                    return Err(format!("{ctx}: flow event missing id"));
                };
                let entry = flows.entry(id as u64).or_insert((0, 0));
                if ph == "s" {
                    entry.0 += 1;
                }
                entry.1 += 1;
            }
            "M" => {}
            other => return Err(format!("{ctx}: unsupported phase {other:?}")),
        }
    }
    for (track, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {track:?}: span {open:?} never ends (unbalanced B/E)"));
        }
    }
    for (id, (starts, points)) in &flows {
        if *starts != 1 {
            return Err(format!("flow {id}: {starts} start events (want exactly 1)"));
        }
        if *points < 2 {
            return Err(format!("flow {id}: only {points} point(s) (want ≥ 2)"));
        }
    }
    stats.tracks = stacks.len();
    stats.flow_ids = flows.keys().copied().collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(events: &str) -> String {
        format!("{{\"traceEvents\":[{events}]}}")
    }

    #[test]
    fn accepts_balanced_trace() {
        let json = wrap(
            r#"{"name":"ah_t_a_b","ph":"B","ts":1,"pid":1,"tid":0},
               {"name":"ah_t_a_b","ph":"E","ts":2,"pid":1,"tid":0}"#,
        );
        let stats = validate_chrome_trace(&json).expect("valid");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.tracks, 1);
    }

    #[test]
    fn rejects_unbalanced_and_non_monotonic() {
        let open = wrap(r#"{"name":"ah_t_a_b","ph":"B","ts":1,"pid":1,"tid":0}"#);
        assert!(validate_chrome_trace(&open).unwrap_err().contains("never ends"));
        let nonmono = wrap(
            r#"{"name":"ah_t_a_b","ph":"B","ts":5,"pid":1,"tid":0},
               {"name":"ah_t_a_b","ph":"E","ts":4,"pid":1,"tid":0}"#,
        );
        assert!(validate_chrome_trace(&nonmono).unwrap_err().contains("non-monotonic"));
        let crossed = wrap(
            r#"{"name":"ah_t_a_b","ph":"B","ts":1,"pid":1,"tid":0},
               {"name":"ah_t_a_c","ph":"B","ts":2,"pid":1,"tid":0},
               {"name":"ah_t_a_b","ph":"E","ts":3,"pid":1,"tid":0}"#,
        );
        assert!(validate_chrome_trace(&crossed).unwrap_err().contains("innermost"));
    }

    #[test]
    fn rejects_bad_span_names_and_flows() {
        let bad_name = wrap(r#"{"name":"route","ph":"i","ts":1,"pid":1,"tid":0}"#);
        assert!(validate_chrome_trace(&bad_name).unwrap_err().contains("naming scheme"));
        let lone_flow = wrap(r#"{"name":"j","ph":"s","id":9,"ts":1,"pid":1,"tid":0}"#);
        assert!(validate_chrome_trace(&lone_flow).unwrap_err().contains("point"));
    }
}
