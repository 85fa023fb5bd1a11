//! # ah-trace — first-party structured span tracing
//!
//! ah-obs answers *"how much / how fast"*; this crate answers *"where
//! did this packet's time go"*. It provides:
//!
//! * **Per-thread bounded tracks**: each tracing thread appends span
//!   begin/end and instant events, each named by the `&'static str` it
//!   was emitted with, to its own `Mutex`-guarded vector, preallocated
//!   when the thread registers. Only that thread and a snapshot taken
//!   after the run lock it. A full track drops and counts.
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
//! * **A schema validator** ([`check`]) so CI can gate on balanced
//!   begin/end events, per-track timestamp monotonicity and journey
//!   presence without any external tooling.
//!
//! ## Why tracing cannot perturb determinism
//!
//! Every API is observation-only, the same contract ah-obs holds:
//! nothing in the pipeline ever reads a track back, the sampler is a
//! stateless hash (no RNG draws consumed), tracks are preallocated and
//! overflow drops, no pipeline thread waits on another's track, and
//! wall-clock timestamps flow only *out* to trace files. A disabled
//! [`Tracer`] is `None` all the way down, so every call site is one
//! `Option`-discriminant branch. `tests/trace.rs` proves the
//! `RunOutput` fingerprint is bitwise-identical with tracing on vs. off
//! at 1 and 8 threads, clean and under faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod export;

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use ah_net::hash::mix64;
use ah_obs::valid_metric_name;
use export::{EventKind, TraceEvent};

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
    /// Per-thread track capacity in events.
    pub buf_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { seed: 0, sample_one_in: 64, buf_capacity: 1 << 16 }
    }
}

/// One registered thread's track: its label, its events in emission
/// order, and the events it dropped when full.
struct Track {
    label: String,
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// Lock a track or the track list. Every update under these locks (a
/// push, a count, a relabel) leaves the data whole at each step, so a
/// poisoned lock's data is still sound to read and extend.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

struct Inner {
    epoch: Instant,
    cfg: TraceConfig,
    /// Every registered track, in registration (`tid`) order. Locked only
    /// to register a thread and to snapshot.
    tracks: Mutex<Vec<Arc<Mutex<Track>>>>,
}

/// One per-thread registration: the owning tracer (weak, so a dropped
/// tracer's entries can be pruned) and the thread's track in it.
type ThreadReg = (Weak<Inner>, Arc<Mutex<Track>>);

thread_local! {
    /// Per-thread cache of [`ThreadReg`] registrations, so an event
    /// finds its track by a pointer probe. Entries for dead tracers are
    /// pruned on a miss.
    static THREAD_TRACKS: RefCell<Vec<ThreadReg>> = const { RefCell::new(Vec::new()) };
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

    /// A live tracer collecting into per-thread tracks.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer(Some(Arc::new(Inner { epoch: Instant::now(), cfg, tracks: Mutex::default() })))
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
        self.emit(EventKind::Begin, name);
        SpanGuard { end: self.0.clone().map(|inner| (inner, name)) }
    }

    /// Record an instantaneous event on the current thread's track.
    pub fn instant(&self, name: &'static str) {
        self.emit(EventKind::Instant, name);
    }

    /// Record an instantaneous event tagged with a journey id from
    /// [`Tracer::journey_id`], whose `journey - 1` is the sampled source;
    /// `0` degrades to a plain instant.
    pub fn journey_instant(&self, name: &'static str, journey: u64) {
        match journey {
            0 => self.emit(EventKind::Instant, name),
            j => self.emit(EventKind::Journey((j - 1) as u32), name),
        }
    }

    /// Name the current thread's track `<name>/<index>` (e.g.
    /// `ah_pipeline_shard_worker/3`). The base name follows the span
    /// naming scheme and is checked like any span name.
    pub fn set_track(&self, name: &'static str, index: u64) {
        debug_assert!(valid_metric_name(name), "track name {name:?} violates the naming scheme");
        if let Some(inner) = &self.0 {
            with_track(inner, |track| track.label = format!("{name}/{index}"));
        }
    }

    /// Snapshot every track's events for export.
    pub fn snapshot(&self) -> export::TraceSnapshot {
        let mut snap = export::TraceSnapshot::default();
        let Some(inner) = &self.0 else { return snap };
        for (tid, track) in lock(&inner.tracks).iter().enumerate() {
            let track = lock(track);
            snap.dropped += track.dropped;
            snap.tracks.push(export::TrackSnapshot {
                label: track.label.clone(),
                tid: tid as u32,
                events: track.events.clone(),
            });
        }
        snap
    }

    fn emit(&self, kind: EventKind, name: &'static str) {
        debug_assert!(valid_metric_name(name), "span name {name:?} violates the naming scheme");
        if let Some(inner) = &self.0 {
            push(inner, kind, name);
        }
    }
}

/// RAII span guard: emits the end event on drop (on whatever thread
/// drops it — in practice the thread that opened it, which keeps the
/// begin/end pair on one track).
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    end: Option<(Arc<Inner>, &'static str)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanGuard(live: {})", self.end.is_some())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name)) = self.end.take() {
            push(&inner, EventKind::End, name);
        }
    }
}

/// Append one event to the current thread's track of `inner`, or count
/// it dropped when the track is full.
fn push(inner: &Arc<Inner>, kind: EventKind, name: &'static str) {
    with_track(inner, |track| {
        if track.events.len() < inner.cfg.buf_capacity {
            let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
            track.events.push(TraceEvent { kind, name, ts_ns });
        } else {
            track.dropped += 1;
        }
    });
}

/// Run `f` on the current thread's track of `inner`, registering one
/// (preallocated at `buf_capacity` events) on first use.
///
/// The cache matches by address: a cached `Weak` keeps `inner`'s
/// allocation alive, so no other tracer can reuse the address while the
/// entry stands.
fn with_track(inner: &Arc<Inner>, f: impl FnOnce(&mut Track)) {
    THREAD_TRACKS.with(|cell| {
        let mut cache = cell.borrow_mut();
        let at = match cache.iter().position(|(w, _)| Weak::as_ptr(w) == Arc::as_ptr(inner)) {
            Some(at) => at,
            None => {
                cache.retain(|(w, _)| w.strong_count() > 0);
                cache.push(register(inner));
                cache.len() - 1
            }
        };
        f(&mut lock(&cache[at].1));
    });
}

/// Register a new track for the calling thread on `inner`.
fn register(inner: &Arc<Inner>) -> ThreadReg {
    let mut tracks = lock(&inner.tracks);
    let track = Arc::new(Mutex::new(Track {
        label: format!("ah_trace_track_anon/{}", tracks.len()),
        events: Vec::with_capacity(inner.cfg.buf_capacity),
        dropped: 0,
    }));
    tracks.push(Arc::clone(&track));
    (Arc::downgrade(inner), track)
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
        let ts: Vec<u64> = snap.tracks[0].events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.is_sorted(), "{ts:?}");
    }

    /// `journey` instants `0..n`, each on the journey of its own index.
    fn emit_journeys(tr: &Tracer, n: u32) {
        for i in 0..n {
            tr.journey_instant("ah_test_mark_step", u64::from(i) + 1);
        }
    }

    /// The journey sources of a track's events, which `emit_journeys`
    /// made the emission index.
    fn journey_srcs(track: &export::TrackSnapshot) -> Vec<u32> {
        let src = |e: &TraceEvent| match e.kind {
            EventKind::Journey(src) => src,
            kind => panic!("{kind:?} is not a journey instant"),
        };
        track.events.iter().map(src).collect()
    }

    #[test]
    fn journey_instants_round_trip() {
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 1, buf_capacity: 4 });
        tr.journey_instant("ah_test_mark_journey", tr.journey_id(42));
        tr.journey_instant("ah_test_mark_plain", 0);
        let snap = tr.snapshot();
        let evs = &snap.tracks[0].events;
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].kind, evs[0].name), (EventKind::Journey(42), "ah_test_mark_journey"));
        assert_eq!((evs[1].kind, evs[1].name), (EventKind::Instant, "ah_test_mark_plain"));
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: 2 });
        emit_journeys(&tr, 4);
        let snap = tr.snapshot();
        assert_eq!(journey_srcs(&snap.tracks[0]), [0, 1], "the first events stay");
        assert_eq!(snap.dropped, 2);
    }

    #[test]
    fn snapshot_during_writes_sees_a_prefix() {
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: 1024 });
        let writer = {
            let tr = tr.clone();
            std::thread::spawn(move || emit_journeys(&tr, 1024))
        };
        for _ in 0..100 {
            for track in tr.snapshot().tracks {
                let srcs = journey_srcs(&track);
                assert!(srcs.iter().enumerate().all(|(i, &s)| s as usize == i), "{srcs:?}");
            }
        }
        writer.join().expect("writer thread");
        assert_eq!(journey_srcs(&tr.snapshot().tracks[0]).len(), 1024);
    }

    #[test]
    fn concurrent_writers_keep_their_own_order() {
        const M: u32 = 50_000;
        let tr = Tracer::new(TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: M as usize });
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let tr = tr.clone();
                std::thread::spawn(move || emit_journeys(&tr, M))
            })
            .collect();
        for w in writers {
            w.join().expect("writer thread");
        }
        let snap = tr.snapshot();
        assert_eq!((snap.tracks.len(), snap.dropped), (2, 0));
        for track in &snap.tracks {
            assert!(journey_srcs(track).into_iter().eq(0..M), "{} is out of order", track.label);
        }
    }

    #[test]
    fn a_new_tracer_gets_a_new_track_and_the_dead_one_is_pruned() {
        std::thread::spawn(|| {
            let cfg = TraceConfig { seed: 0, sample_one_in: 0, buf_capacity: 4 };
            let cached = || THREAD_TRACKS.with(|c| c.borrow().len());
            let old = Tracer::new(cfg);
            old.instant("ah_test_mark_old");
            drop(old);
            assert_eq!(cached(), 1, "a dead tracer's entry stays until a miss");
            let new = Tracer::new(cfg);
            new.instant("ah_test_mark_new");
            assert_eq!(cached(), 1, "the miss pruned the dead entry");
            let snap = new.snapshot();
            assert_eq!(snap.tracks.len(), 1);
            let events: Vec<&str> = snap.tracks[0].events.iter().map(|e| e.name).collect();
            assert_eq!(events, ["ah_test_mark_new"]);
        })
        .join()
        .expect("test thread");
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
