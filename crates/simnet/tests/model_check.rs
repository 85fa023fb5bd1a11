//! Exhaustive model checking of the SPSC ring's publication protocol.
//!
//! The production ring code in `ah_simnet::ring` is generic over the
//! [`RingSync`] facade; here the *same* generic code is instantiated
//! over the `interleave` checker's shadow atomics and explored
//! exhaustively (within the preemption and store-buffer bounds) at
//! tiny capacities:
//!
//! * the real contract (all the default orderings) is proved clean at
//!   capacities 2 and 4 with wrap, back-pressure, batched publication,
//!   and the close/drain handshake all exercised;
//! * seeded mutants — demoting one `Release`/`Acquire` in the facade
//!   to `Relaxed` — must each be *caught*, with the counterexample
//!   schedule printed, proving the checker has the power to reject
//!   every ordering the contract actually relies on.
//!
//! The checker is CPU-hungry (thousands of schedules, each a full
//! virtual-threaded execution), so capacities stay tiny; the protocol
//! is capacity-oblivious (masked monotone counters), so the small
//! instances carry the proof. See `ARCHITECTURE.md` §9.

use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

use ah_simnet::ring::{ring_with, RingAtomicBool, RingAtomicUsize, RingSlot, RingSync};
use interleave::{shadow, Checker, FailureKind, Outcome};

/// Shadow-atomic `usize` bridged onto the ring facade.
struct MAtomicUsize(shadow::AtomicUsize);

impl RingAtomicUsize for MAtomicUsize {
    fn new(v: usize) -> MAtomicUsize {
        MAtomicUsize(shadow::AtomicUsize::new(v))
    }

    fn load(&self, ord: Ordering) -> usize {
        self.0.load(ord)
    }

    fn store(&self, v: usize, ord: Ordering) {
        self.0.store(v, ord);
    }

    fn unsync_load(&mut self) -> usize {
        self.0.unsync_load()
    }
}

/// Shadow-atomic `bool` bridged onto the ring facade.
struct MAtomicBool(shadow::AtomicBool);

impl RingAtomicBool for MAtomicBool {
    fn new(v: bool) -> MAtomicBool {
        MAtomicBool(shadow::AtomicBool::new(v))
    }

    fn load(&self, ord: Ordering) -> bool {
        self.0.load(ord)
    }

    fn store(&self, v: bool, ord: Ordering) {
        self.0.store(v, ord);
    }
}

/// Race-checked plain-memory slot: every access is recorded in the
/// checker's vector-clock race detector, so a slot touched without a
/// happens-before edge from its previous user is a reported data race
/// — exactly the property the cursor protocol must provide.
struct MSlot<T>(shadow::Cell<MaybeUninit<T>>);

impl<T: Send> RingSlot<T> for MSlot<T> {
    fn vacant() -> MSlot<T> {
        MSlot(shadow::Cell::new(MaybeUninit::uninit()))
    }

    unsafe fn write(&self, v: T) {
        // SAFETY: caller contract (sole producer-side access, vacant slot).
        self.0.with_mut(|p| unsafe { (*p).write(v) });
    }

    unsafe fn take(&self) -> T {
        // Moving the value out invalidates the slot: a write for the
        // race detector.
        // SAFETY: caller contract (sole consumer-side access, occupied).
        self.0.with_mut(|p| unsafe { (*p).assume_init_read() })
    }

    unsafe fn drop_in_place(&self) {
        // SAFETY: caller contract (exclusive teardown access, occupied).
        self.0.with_mut(|p| unsafe { (*p).assume_init_drop() });
    }
}

/// Define a model facade. With no overrides this is the production
/// contract verbatim (the `RingSync` defaults); each override creates
/// a seeded ordering mutant the checker must refute.
macro_rules! model_sync {
    ($(#[$doc:meta])* $name:ident $(, $konst:ident = $val:expr)*) => {
        $(#[$doc])*
        struct $name;

        impl RingSync for $name {
            type AtomicUsize = MAtomicUsize;
            type AtomicBool = MAtomicBool;
            type Slot<T: Send> = MSlot<T>;
            $(const $konst: Ordering = $val;)*

            fn spin_loop() {
                shadow::hint::spin_loop();
            }

            fn yield_now() {
                shadow::yield_now();
            }
        }
    };
}

model_sync!(
    /// The production contract, unmodified.
    ModelSync
);
model_sync!(
    /// Mutant: tail published without Release — slot writes unprotected.
    TailPublishRelaxed,
    TAIL_PUBLISH = Ordering::Relaxed
);
model_sync!(
    /// Mutant: consumer observes tail without Acquire.
    TailObserveRelaxed,
    TAIL_OBSERVE = Ordering::Relaxed
);
model_sync!(
    /// Mutant: producer refreshes head without Acquire — slot reuse
    /// unordered after the consumer's read.
    HeadObserveRelaxed,
    HEAD_OBSERVE = Ordering::Relaxed
);
model_sync!(
    /// Mutant: consumer publishes head without Release.
    HeadPublishRelaxed,
    HEAD_PUBLISH = Ordering::Relaxed
);
model_sync!(
    /// Mutant: close flag observed without Acquire — the post-close
    /// re-check may miss the final flush (lost items).
    ClosedObserveRelaxed,
    CLOSED_OBSERVE = Ordering::Relaxed
);
model_sync!(
    /// Mutant: close flag published without Release — same lost-flush
    /// bug from the producer side.
    ClosedPublishRelaxed,
    CLOSED_PUBLISH = Ordering::Relaxed
);

/// The full producer/consumer lifecycle on the real ring code: one
/// producer virtual thread pushes `n` items (spinning through
/// back-pressure), flushes via batching and `close`; the main virtual
/// thread drains with `pop_wait` until end-of-stream. The oracle is
/// exact FIFO completeness — any lost, duplicated, or reordered item
/// panics, any unprotected slot access is a data race, any lost close
/// wakeup is a deadlock.
fn spsc_lifecycle<S: RingSync>(capacity: usize, n: u64, batch: usize) {
    let (mut tx, mut rx) = ring_with::<S, u64>(capacity, batch);
    let producer = shadow::thread::spawn(move || {
        for i in 0..n {
            tx.push(i);
        }
        tx.close();
    });
    let mut got = Vec::new();
    while let Some(v) = rx.pop_wait() {
        got.push(v);
    }
    producer.join();
    assert_eq!(got, (0..n).collect::<Vec<_>>(), "items lost, duplicated, or reordered");
}

fn check<S: RingSync>(capacity: usize, n: u64, batch: usize) -> Outcome {
    Checker::new().check(move || spsc_lifecycle::<S>(capacity, n, batch))
}

/// A mutant must be refuted, and the counterexample must be a real
/// replayable artifact: a non-empty schedule plus an operation log.
fn assert_caught(name: &str, outcome: Outcome, expect: &[FailureKind]) {
    let failure = outcome
        .failure
        .unwrap_or_else(|| panic!("mutant {name} survived {} schedules", outcome.schedules));
    println!("mutant {name}: caught after {} schedules\n{failure}", outcome.schedules);
    assert!(
        expect.contains(&failure.kind),
        "mutant {name}: expected one of {expect:?}, got {:?}: {}",
        failure.kind,
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "counterexample must carry a schedule");
    assert!(!failure.oplog.is_empty(), "counterexample must carry an op log");
}

// ---------------------------------------------------------------- real ring

#[test]
fn real_ring_is_clean_capacity_2() {
    // Capacity 2, three items, batch 2: exercises wrap, a full-ring
    // spin on the producer side, batch publication, and the close
    // handshake publishing the final unbatched item.
    let outcome = check::<ModelSync>(2, 3, 2);
    outcome.assert_exhaustive_clean();
    println!("capacity 2: clean across {} schedules", outcome.schedules);
    assert!(outcome.schedules > 100, "state space implausibly small");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive run is release-only; scripts/ci.sh runs it")]
fn real_ring_is_clean_capacity_2_unbatched() {
    // Batch 1 publishes every push: different publication cadence,
    // same contract.
    let outcome = check::<ModelSync>(2, 3, 1);
    outcome.assert_exhaustive_clean();
    println!("capacity 2 unbatched: clean across {} schedules", outcome.schedules);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive run is release-only; scripts/ci.sh runs it")]
fn real_ring_is_clean_capacity_4() {
    // Capacity 4, five items, batch 3: wrap plus a batch boundary that
    // does not divide the item count, so close() flushes a remainder.
    let outcome = check::<ModelSync>(4, 5, 3);
    outcome.assert_exhaustive_clean();
    println!("capacity 4: clean across {} schedules", outcome.schedules);
}

// ------------------------------------------------------------------ mutants

#[test]
fn mutant_tail_publish_relaxed_is_caught() {
    // Without Release on the tail store, the consumer's slot read is
    // unordered after the producer's slot write: a data race.
    assert_caught(
        "TAIL_PUBLISH=Relaxed",
        check::<TailPublishRelaxed>(2, 3, 2),
        &[FailureKind::DataRace],
    );
}

#[test]
fn mutant_tail_observe_relaxed_is_caught() {
    assert_caught(
        "TAIL_OBSERVE=Relaxed",
        check::<TailObserveRelaxed>(2, 3, 2),
        &[FailureKind::DataRace],
    );
}

#[test]
fn mutant_head_observe_relaxed_is_caught() {
    // Without Acquire on the head refresh, the producer may reuse a
    // slot with no happens-before edge from the consumer's read of it.
    assert_caught(
        "HEAD_OBSERVE=Relaxed",
        check::<HeadObserveRelaxed>(2, 3, 2),
        &[FailureKind::DataRace],
    );
}

#[test]
fn mutant_head_publish_relaxed_is_caught() {
    assert_caught(
        "HEAD_PUBLISH=Relaxed",
        check::<HeadPublishRelaxed>(2, 3, 2),
        &[FailureKind::DataRace],
    );
}

#[test]
fn mutant_closed_observe_relaxed_is_caught() {
    // Without Acquire on the close-flag load, the post-close re-check
    // may read a stale tail and drop the final flush: lost items (the
    // FIFO assertion fires) — or, depending on the interleaving, an
    // unordered touch of the flushed slot (a race). Either way the
    // mutant must not survive.
    assert_caught(
        "CLOSED_OBSERVE=Relaxed",
        check::<ClosedObserveRelaxed>(2, 3, 2),
        &[FailureKind::Panic, FailureKind::DataRace],
    );
}

#[test]
fn mutant_closed_publish_relaxed_is_caught() {
    assert_caught(
        "CLOSED_PUBLISH=Relaxed",
        check::<ClosedPublishRelaxed>(2, 3, 2),
        &[FailureKind::Panic, FailureKind::DataRace],
    );
}
