//! # ah-trace — first-party structured span tracing
//!
//! ah-obs answers *"how much / how fast"*; this crate answers *"where
//! did this packet's time go"*. It provides:
//!
//! * **Per-thread bounded lock-free buffers** (`buffer::TraceBuf`):
//!   each tracing thread appends span begin/end and instant events to
//!   its own fixed-capacity buffer, published with the same
//!   single-writer Release/Acquire protocol as the SPSC ring. Full
//!   buffers drop and count — tracing never blocks.
//! * **Causal spans**: [`Tracer::span`] returns a guard that emits a
//!   begin event now and an end event on drop; nesting on a track *is*
//!   the parent/child relation, exactly as Chrome's trace-event duration
//!   model defines it.
//! * **Sampled packet journeys**: a seeded per-source sampler
//!   ([`Tracer::journey_id`]) follows ~1/N source IPs end-to-end. The
//!   derivation is the same chained-splitmix idiom as
//!   `ah_simnet::faults::packet_decision_seed` — a pure function of
//!   `(seed, src)` that consumes **no RNG draws**, so sampling cannot
//!   perturb the simulation.
//! * **Exporters** ([`export`]): Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing` loadable, one track per registered thread, flow
//!   arrows linking each journey across tracks) and folded-stack
//!   flamegraph text (the no-`perf` fallback for
//!   `scripts/flamegraph.sh`).
//! * **A schema validator** ([`check`], plus the `ah-trace` binary) so
//!   CI can gate on balanced begin/end events, per-track timestamp
//!   monotonicity and journey presence without any external tooling.
//!
//! ## Why tracing cannot perturb determinism
//!
//! Every API is observation-only, the same contract ah-obs holds:
//! nothing in the pipeline ever reads a trace buffer back, the sampler
//! is a stateless hash (no RNG draws consumed), buffers are
//! preallocated and never block (overflow drops), and wall-clock
//! timestamps flow only *out* to trace files. A disabled [`Tracer`] is
//! `None` all the way down, so every call site is one
//! `Option`-discriminant branch. `tests/trace.rs` proves the
//! `RunOutput` fingerprint is bitwise-identical with tracing on vs. off
//! at 1 and 8 threads, clean and under faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
pub mod check;
pub mod export;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use ah_net::hash::mix64;
use ah_obs::valid_metric_name;
use buffer::{EventKind, TraceBuf};

/// Salt for the journey-sampler derivation (distinct from the fault
/// injector's `0xfa17_1e57` so the two decision streams never collide).
const JOURNEY_SALT: u64 = 0x70ac_e704;

/// One splitmix64 step from state `key` over the workspace's one
/// finalizer — the value `ah_simnet::rng::hash64` returns (ah-simnet
/// sits above this crate, so the two-line step is spelled here).
fn hash64(key: u64) -> u64 {
    mix64(key.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Seed for the journey sampler (typically the scenario seed, so a
    /// run's sampled sources are reproducible).
    pub seed: u64,
    /// Sample one in this many source IPs for end-to-end journeys
    /// (`0` disables journeys, `1` samples every source).
    pub sample_one_in: u64,
    /// Per-thread buffer capacity in events.
    pub buf_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { seed: 0, sample_one_in: 64, buf_capacity: 1 << 16 }
    }
}

/// Interned span-name table.
#[derive(Default)]
struct Names {
    by_name: BTreeMap<&'static str, u32>,
    list: Vec<&'static str>,
}

/// One registered per-thread track.
struct Track {
    label: String,
    buf: Arc<TraceBuf>,
}

struct Inner {
    epoch: Instant,
    cfg: TraceConfig,
    names: Mutex<Names>,
    tracks: Mutex<Vec<Track>>,
}

/// One per-thread registration: the owning tracer (weak, so a dropped
/// tracer's entries can be pruned), the thread's buffer, and its track id.
type ThreadReg = (Weak<Inner>, Arc<TraceBuf>, u32);

thread_local! {
    /// Per-thread cache of [`ThreadReg`] registrations so the hot emit
    /// path is a vector probe, not a mutex. Entries for dead tracers
    /// are pruned on miss via the `Weak`.
    static THREAD_BUFS: RefCell<Vec<ThreadReg>> = const { RefCell::new(Vec::new()) };
}

/// Handle to the tracing subsystem. Cheap to clone; a disabled tracer
/// ([`Tracer::noop`]) is `None` all the way down, so every operation on
/// it is a single branch.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Tracer(noop)"),
            Some(inner) => f
                .debug_struct("Tracer")
                .field("sample_one_in", &inner.cfg.sample_one_in)
                .field("buf_capacity", &inner.cfg.buf_capacity)
                .finish(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::noop()
    }
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op behind one branch.
    pub fn noop() -> Tracer {
        Tracer(None)
    }

    /// A live tracer collecting into per-thread buffers.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            cfg,
            names: Mutex::new(Names::default()),
            tracks: Mutex::new(Vec::new()),
        })))
    }

    /// Is this tracer collecting?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Journey id for a source IP: non-zero iff the source is sampled.
    ///
    /// Pure function of `(cfg.seed, src)` in the
    /// `packet_decision_seed` derivation idiom — no RNG draws, no
    /// state, so calling it any number of times cannot perturb the
    /// simulation. The id is `src + 1` (never `0`, which means "not on
    /// a journey").
    pub fn journey_id(&self, src: u32) -> u64 {
        let Some(inner) = &self.0 else { return 0 };
        let n = inner.cfg.sample_one_in;
        if n == 0 {
            return 0;
        }
        let h = hash64(hash64(inner.cfg.seed ^ JOURNEY_SALT) ^ u64::from(src));
        if h.is_multiple_of(n) {
            u64::from(src) + 1
        } else {
            0
        }
    }

    /// Open a span on the current thread's track; the returned guard
    /// emits the matching end event when dropped. Nesting of guards on
    /// one track is the parent/child relation.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.begin(name, 0)
    }

    /// Open a span tagged with a journey id (from
    /// [`Tracer::journey_id`]); `0` degrades to a plain span.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn journey_span(&self, name: &'static str, journey: u64) -> SpanGuard {
        self.begin(name, journey)
    }

    /// Record an instantaneous event on the current thread's track.
    pub fn instant(&self, name: &'static str) {
        self.emit(EventKind::Instant, name, 0);
    }

    /// Record an instantaneous event tagged with a journey id.
    pub fn journey_instant(&self, name: &'static str, journey: u64) {
        self.emit(EventKind::Instant, name, journey);
    }

    /// Name the current thread's track `<name>/<index>` (e.g.
    /// `ah_pipeline_shard_worker/3`). The base name follows the span
    /// naming scheme and is lint-checked like any other trace literal.
    pub fn set_track(&self, name: &'static str, index: u64) {
        let Some(inner) = &self.0 else { return };
        debug_assert!(valid_metric_name(name), "track name {name:?} violates the naming scheme");
        let (_, track_id) = thread_buf(inner);
        if let Ok(mut tracks) = inner.tracks.lock() {
            if let Some(track) = tracks.get_mut(track_id as usize) {
                track.label = format!("{name}/{index}");
            }
        }
    }

    /// Snapshot every track's published events for export.
    pub fn snapshot(&self) -> export::TraceSnapshot {
        let Some(inner) = &self.0 else {
            return export::TraceSnapshot::default();
        };
        let names: Vec<String> = match inner.names.lock() {
            Ok(n) => n.list.iter().map(|s| s.to_string()).collect(),
            Err(_) => Vec::new(),
        };
        let mut tracks = Vec::new();
        let mut dropped = 0;
        if let Ok(regs) = inner.tracks.lock() {
            for (tid, track) in regs.iter().enumerate() {
                dropped += track.buf.dropped();
                let events = track
                    .buf
                    .snapshot()
                    .into_iter()
                    .map(|ev| export::TraceEvent {
                        kind: ev.kind,
                        name: names
                            .get(ev.name_id as usize)
                            .cloned()
                            .unwrap_or_else(|| "ah_trace_name_unknown".to_string()),
                        ts_ns: ev.ts_ns,
                        seq: ev.seq,
                        journey: ev.journey,
                    })
                    .collect();
                tracks.push(export::TrackSnapshot {
                    label: track.label.clone(),
                    tid: tid as u32,
                    events,
                });
            }
        }
        export::TraceSnapshot { tracks, dropped }
    }

    fn begin(&self, name: &'static str, journey: u64) -> SpanGuard {
        let Some(inner) = &self.0 else { return SpanGuard { end: None } };
        let name_id = self.emit_inner(inner, EventKind::Begin, name, journey);
        SpanGuard { end: Some((Arc::clone(inner), name_id, journey)) }
    }

    fn emit(&self, kind: EventKind, name: &'static str, journey: u64) {
        if let Some(inner) = &self.0 {
            self.emit_inner(inner, kind, name, journey);
        }
    }

    fn emit_inner(
        &self,
        inner: &Arc<Inner>,
        kind: EventKind,
        name: &'static str,
        journey: u64,
    ) -> u32 {
        debug_assert!(valid_metric_name(name), "span name {name:?} violates the naming scheme");
        let name_id = intern(inner, name);
        let (buf, _) = thread_buf(inner);
        let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
        buf.push(kind, name_id, ts_ns, journey);
        name_id
    }
}

/// RAII span guard: emits the end event on drop (on whatever thread
/// drops it — in practice the thread that opened it, which keeps the
/// begin/end pair on one track).
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    end: Option<(Arc<Inner>, u32, u64)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanGuard(live: {})", self.end.is_some())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name_id, journey)) = self.end.take() {
            let (buf, _) = thread_buf(&inner);
            let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
            buf.push(EventKind::End, name_id, ts_ns, journey);
        }
    }
}

/// Intern a span name, returning its stable id.
fn intern(inner: &Arc<Inner>, name: &'static str) -> u32 {
    let Ok(mut names) = inner.names.lock() else { return 0 };
    if let Some(&id) = names.by_name.get(name) {
        return id;
    }
    let id = names.list.len() as u32;
    names.list.push(name);
    names.by_name.insert(name, id);
    id
}

/// The current thread's buffer for `inner`, registering one on first
/// use. Returns the buffer and its track id.
fn thread_buf(inner: &Arc<Inner>) -> (Arc<TraceBuf>, u32) {
    THREAD_BUFS.with(|cell| {
        let mut cache = cell.borrow_mut();
        for (weak, buf, tid) in cache.iter() {
            if let Some(live) = weak.upgrade() {
                if Arc::ptr_eq(&live, inner) {
                    return (Arc::clone(buf), *tid);
                }
            }
        }
        cache.retain(|(weak, _, _)| weak.strong_count() > 0);
        let buf = Arc::new(TraceBuf::new(inner.cfg.buf_capacity));
        let tid = match inner.tracks.lock() {
            Ok(mut tracks) => {
                let tid = tracks.len() as u32;
                tracks.push(Track {
                    label: format!("ah_trace_track_anon/{tid}"),
                    buf: Arc::clone(&buf),
                });
                tid
            }
            Err(_) => 0,
        };
        cache.push((Arc::downgrade(inner), Arc::clone(&buf), tid));
        (buf, tid)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journey_ids_are_pinned() {
        // The first three sampled sources per (seed, 1-in-N), captured
        // before the sampler moved onto `ah_net::hash::mix64`: a change
        // to the derivation changes which packets a trace follows.
        for (seed, n, want) in
            [(1, 4, [2u32, 4, 6]), (7, 64, [6, 14, 18]), (0xdead_beef, 32, [8, 72, 89])]
        {
            let tr = Tracer::new(TraceConfig { seed, sample_one_in: n, buf_capacity: 16 });
            let got: Vec<u32> = (0..100).filter(|&s| tr.journey_id(s) != 0).take(3).collect();
            assert_eq!(got, want, "seed {seed:#x}, 1-in-{n}");
            assert_eq!(tr.journey_id(want[0]), u64::from(want[0]) + 1);
        }
    }

    #[test]
    fn noop_tracer_is_inert() {
        let tr = Tracer::noop();
        assert!(!tr.is_enabled());
        assert_eq!(tr.journey_id(42), 0);
        let g = tr.span("ah_test_noop_span");
        drop(g);
        tr.instant("ah_test_noop_instant");
        let snap = tr.snapshot();
        assert_eq!((snap.tracks.len(), snap.dropped), (0, 0));
    }

    #[test]
    fn spans_nest_and_export() {
        let tr = Tracer::new(TraceConfig { seed: 1, sample_one_in: 1, buf_capacity: 64 });
        tr.set_track("ah_test_track_main", 0);
        {
            let _outer = tr.span("ah_test_span_outer");
            let _inner = tr.span("ah_test_span_inner");
            tr.instant("ah_test_mark_here");
        }
        let snap = tr.snapshot();
        assert_eq!(snap.tracks.len(), 1);
        assert_eq!(snap.tracks[0].label, "ah_test_track_main/0");
        let kinds: Vec<EventKind> = snap.tracks[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Begin,
                EventKind::Begin,
                EventKind::Instant,
                EventKind::End,
                EventKind::End
            ]
        );
        // LIFO drop order: inner ends before outer.
        assert_eq!(snap.tracks[0].events[3].name, "ah_test_span_inner");
        assert_eq!(snap.tracks[0].events[4].name, "ah_test_span_outer");
        // Logical sequence is the buffer index.
        let seqs: Vec<u64> = snap.tracks[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn journey_sampling_is_pure_and_seeded() {
        let tr = Tracer::new(TraceConfig { seed: 7, sample_one_in: 4, buf_capacity: 16 });
        let sampled: Vec<u32> = (0..1000).filter(|&s| tr.journey_id(s) != 0).collect();
        // Deterministic: same seed, same set.
        let tr2 = Tracer::new(TraceConfig { seed: 7, sample_one_in: 4, buf_capacity: 16 });
        let sampled2: Vec<u32> = (0..1000).filter(|&s| tr2.journey_id(s) != 0).collect();
        assert_eq!(sampled, sampled2);
        // Roughly 1/4 (loose bounds: the mix is uniform).
        assert!(sampled.len() > 150 && sampled.len() < 350, "{}", sampled.len());
        // Different seed, different set.
        let tr3 = Tracer::new(TraceConfig { seed: 8, sample_one_in: 4, buf_capacity: 16 });
        let sampled3: Vec<u32> = (0..1000).filter(|&s| tr3.journey_id(s) != 0).collect();
        assert_ne!(sampled, sampled3);
        // Ids are src + 1, never zero.
        for &s in &sampled {
            assert_eq!(tr.journey_id(s), u64::from(s) + 1);
        }
    }

    #[test]
    fn per_thread_tracks_register_independently() {
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: 16 });
        tr.instant("ah_test_mark_main");
        let tr2 = tr.clone();
        std::thread::spawn(move || {
            tr2.set_track("ah_test_track_worker", 1);
            tr2.instant("ah_test_mark_worker");
        })
        .join()
        .expect("worker thread");
        let snap = tr.snapshot();
        assert_eq!(snap.tracks.len(), 2);
        let labels: Vec<&str> = snap.tracks.iter().map(|t| t.label.as_str()).collect();
        assert!(labels.contains(&"ah_test_track_worker/1"));
    }
}
