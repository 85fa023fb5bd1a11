//! Bounded per-thread trace buffers.
//!
//! Each tracing thread owns one [`TraceBuf`]: a fixed-capacity array of
//! four-word event slots plus a published length. The owning thread is
//! the only writer; it stores the slot words, then publishes the new
//! length with a release store (`LEN_PUBLISH`). Any thread may take a
//! consistent snapshot by acquiring the length (`LEN_OBSERVE`) and
//! reading the slots below it — the same single-writer publication
//! protocol as the SPSC ring (`crates/simnet/src/ring.rs`).
//!
//! A full buffer *drops* the event and counts the drop: tracing is
//! observation-only and must never block or otherwise perturb the
//! pipeline (see the determinism argument in `crates/trace/src/lib.rs`
//! and ARCHITECTURE.md §12).

use std::sync::atomic::{AtomicU64, Ordering};

/// Words per event slot: packed kind/name, wall-clock ns, logical
/// sequence, journey id.
const WORDS: usize = 4;

/// Writer stores the four words of an event slot with this
/// ordering before publishing the length.
/// ORDERING: `Relaxed` is the contract, not a weakening — the slot
/// stores are sequenced-before the `LEN_PUBLISH` release store on
/// the writer thread, so the release/acquire edge on `len` is the
/// only synchronizing access the data needs.
const SLOT_WRITE: Ordering = Ordering::Relaxed;
/// Reader loads slot words with this ordering after observing the
/// length.
/// ORDERING: `Relaxed` is the contract — the `LEN_OBSERVE` acquire
/// load happens-after every slot write below the observed length,
/// so these loads cannot see uninitialized or torn words.
const SLOT_READ: Ordering = Ordering::Relaxed;
/// Writer publishes the new event count with this ordering
/// (contract: `Release` — makes all preceding slot writes visible
/// to a reader that observes the new length).
const LEN_PUBLISH: Ordering = Ordering::Release;
/// Reader observes the published event count with this ordering
/// (contract: `Acquire`).
const LEN_OBSERVE: Ordering = Ordering::Acquire;

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
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
        }
    }

    fn from_code(c: u64) -> EventKind {
        match c {
            0 => EventKind::Begin,
            1 => EventKind::End,
            _ => EventKind::Instant,
        }
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RawEvent {
    /// Begin/end/instant.
    pub(crate) kind: EventKind,
    /// Interned name id (resolve via the tracer's name table).
    pub(crate) name_id: u32,
    /// Wall-clock nanoseconds since the tracer epoch. Informational
    /// only — never read back by the pipeline.
    pub(crate) ts_ns: u64,
    /// Deterministic logical sequence: the event's index in its buffer.
    /// Per-track event order is a pure function of the scenario, so
    /// this is reproducible across runs even though `ts_ns` is not.
    pub(crate) seq: u64,
    /// Journey id (`0` = not part of a sampled packet journey).
    pub(crate) journey: u64,
}

/// Fixed-capacity single-writer trace buffer (see module docs).
pub(crate) struct TraceBuf {
    words: Vec<AtomicU64>,
    /// Published event count. Written only by the owning thread.
    len: AtomicU64,
    /// Events discarded because the buffer was full.
    dropped: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuf")
            .field("capacity", &self.capacity)
            .field("len", &self.len.load(LEN_OBSERVE))
            .finish()
    }
}

impl TraceBuf {
    /// Create a buffer holding at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> TraceBuf {
        let mut words = Vec::with_capacity(capacity * WORDS);
        for _ in 0..capacity * WORDS {
            words.push(AtomicU64::new(0));
        }
        TraceBuf { words, len: AtomicU64::new(0), dropped: AtomicU64::new(0), capacity }
    }

    /// Append one event. Only the owning thread may call this (the
    /// single-writer invariant the module docs describe). Returns
    /// `false` — counting, not blocking — when the buffer is full.
    pub(crate) fn push(&self, kind: EventKind, name_id: u32, ts_ns: u64, journey: u64) -> bool {
        // ORDERING: `Relaxed` — `len` is written only by this thread,
        // so this load always sees the writer's own latest store.
        let n = self.len.load(Ordering::Relaxed) as usize;
        if n >= self.capacity {
            // ORDERING: `Relaxed` — monotone overflow counter, read
            // only after the run quiesces; no data rides on it.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let base = n * WORDS;
        self.words[base].store(kind.code() << 32 | u64::from(name_id), SLOT_WRITE);
        self.words[base + 1].store(ts_ns, SLOT_WRITE);
        self.words[base + 2].store(n as u64, SLOT_WRITE);
        self.words[base + 3].store(journey, SLOT_WRITE);
        self.len.store((n + 1) as u64, LEN_PUBLISH);
        true
    }

    /// Events dropped on overflow so far.
    pub(crate) fn dropped(&self) -> u64 {
        // ORDERING: `Relaxed` — see the counter's comment in `push`.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot the published prefix of the buffer. Safe from any
    /// thread: the acquire on `len` pairs with the writer's release,
    /// so every slot below the observed length is fully written.
    pub(crate) fn snapshot(&self) -> Vec<RawEvent> {
        let n = self.len.load(LEN_OBSERVE) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let base = i * WORDS;
            let w0 = self.words[base].load(SLOT_READ);
            out.push(RawEvent {
                kind: EventKind::from_code(w0 >> 32),
                name_id: (w0 & 0xffff_ffff) as u32,
                ts_ns: self.words[base + 1].load(SLOT_READ),
                seq: self.words[base + 2].load(SLOT_READ),
                journey: self.words[base + 3].load(SLOT_READ),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_snapshot_round_trip() {
        let buf = TraceBuf::new(4);
        assert!(buf.push(EventKind::Begin, 7, 100, 0));
        assert!(buf.push(EventKind::Instant, 8, 150, 42));
        assert!(buf.push(EventKind::End, 7, 200, 0));
        let evs = buf.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[0].name_id, 7);
        assert_eq!(evs[0].ts_ns, 100);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].journey, 42);
        assert_eq!(evs[2].kind, EventKind::End);
        assert_eq!(evs[2].seq, 2);
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let buf = TraceBuf::new(2);
        assert!(buf.push(EventKind::Instant, 1, 1, 0));
        assert!(buf.push(EventKind::Instant, 2, 2, 0));
        assert!(!buf.push(EventKind::Instant, 3, 3, 0));
        assert!(!buf.push(EventKind::Instant, 4, 4, 0));
        assert_eq!(buf.snapshot().len(), 2);
        assert_eq!(buf.dropped(), 2);
    }

    #[test]
    fn snapshot_from_other_thread_sees_published_prefix() {
        let buf = std::sync::Arc::new(TraceBuf::new(1024));
        let writer = {
            let buf = std::sync::Arc::clone(&buf);
            std::thread::spawn(move || {
                for i in 0..1024u64 {
                    buf.push(EventKind::Instant, i as u32, i, 0);
                }
            })
        };
        // Concurrent snapshots must always see a consistent prefix:
        // seq == index and name_id == seq for every visible event.
        for _ in 0..100 {
            let evs = buf.snapshot();
            for (i, ev) in evs.iter().enumerate() {
                assert_eq!(ev.seq, i as u64);
                assert_eq!(u64::from(ev.name_id), ev.seq);
            }
        }
        writer.join().expect("writer thread");
        assert_eq!(buf.snapshot().len(), 1024);
    }
}
