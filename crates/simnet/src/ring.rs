//! Bounded lock-free SPSC ring buffer for the parallel pipeline.
//!
//! One producer thread (the packet dispatcher) feeds one consumer thread
//! (a pipeline shard) through a fixed-capacity power-of-two ring. The
//! design follows the classic cache-friendly SPSC layout:
//!
//! * **Cache-line-padded indices.** `head` (consumer cursor) and `tail`
//!   (producer cursor) live on separate 128-byte-aligned cache lines so
//!   the two threads never false-share.
//! * **Cached counterparts.** The producer keeps a stale copy of `head`
//!   and only re-reads the atomic when the ring *looks* full; the
//!   consumer does the same with `tail`. In the common case a push/pop
//!   touches no foreign cache line at all.
//! * **Every push publishes.** A push writes its slot, then stores the
//!   new tail with `Release`: an item is visible the moment it is
//!   pushed. Batching is the caller's business — the sharded engine's
//!   slot holds a whole batch of packets, so one release store already
//!   covers `BATCH` of them, and the ring keeps no second layer.
//! * **One backoff, ending in a nap.** A producer facing a full ring and
//!   a consumer facing an empty one wait the same way: `SPINS` busy
//!   spins, then `YIELDS` scheduler yields, then [`RingSync::nap`] on
//!   every further round. The nap only lowers the rate at which the
//!   waiting side re-reads the other side's cursor; the wake is the same
//!   cursor load as before, so no flag, unpark or ordering is added.
//!
//! # Memory-ordering contract
//!
//! Slot writes are plain (unsynchronized) stores made *before* the
//! producer's `tail.store(Release)`; the consumer's matching
//! `tail.load(Acquire)` therefore happens-after every write it observes
//! — reading a slot below the loaded tail is safe. Symmetrically the
//! consumer reads a slot out *before* `head.store(Release)`, and the
//! producer's `head.load(Acquire)` happens-after that read — so a slot
//! is never overwritten until its previous occupant has been moved out.
//! Indices are monotonically increasing `usize` counters masked into the
//! buffer, which makes "full" (`tail - head == capacity`) and "empty"
//! (`tail == head`) unambiguous without a reserved slot.
//!
//! The stream is closed by dropping or [`Producer::close`]-ing the
//! producer: `closed` is set with `Release` *after* the final tail
//! publish, so a consumer that observes `closed` with `Acquire` and then
//! finds the ring empty has seen every item.
//!
//! # Machine-checked, not just argued
//!
//! The contract above is *proved*, not just asserted: the entire
//! protocol is generic over the [`RingSync`] facade, whose associated
//! `Ordering` constants pin each synchronizing access. Production code
//! uses [`StdSync`] (real `std::sync::atomic`, the orderings above,
//! zero overhead — every facade call is a monomorphized inline
//! passthrough). The model-check suite
//! (`crates/simnet/tests/model_check.rs`) instantiates the *same*
//! generic code over the `interleave` checker's shadow atomics and
//! exhaustively explores every interleaving and every
//! memory-model-permitted stale read at small capacities — and proves
//! the mutation coverage too: demoting any single `Release`/`Acquire`
//! in the facade to `Relaxed` yields a counterexample (data race, lost
//! item, or deadlock) with a replayable schedule. See
//! `ARCHITECTURE.md` §9.

#![allow(
    unsafe_code,
    reason = "the SPSC ring uses UnsafeCell slots; every unsafe block carries a SAFETY comment and the ring is exhaustively model-checked (see tests/model_check.rs)"
)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Busy spins a waiting side makes before it starts yielding.
const SPINS: u32 = 64;
/// Scheduler yields after the spins, before a waiting side naps.
const YIELDS: u32 = 16;
/// How long [`StdSync::nap`] sleeps. Plus the kernel's timer slack, a
/// nap stays under a quarter of the ~410 µs a feeder needs to fill a
/// 4,096-packet ring at 10 Mpps, so a napping shard wakes long before
/// its ring can fill.
const NAP: Duration = Duration::from_micros(50);

/// Facade over the synchronization primitives the ring uses, so the
/// identical protocol code runs on real atomics ([`StdSync`]) or on a
/// model checker's shadow atomics (the model-check suite). The
/// associated `Ordering` constants *are* the memory-ordering contract;
/// the defaults are the proven values, and overriding one in a test
/// facade creates a seeded mutant the checker must catch.
pub trait RingSync: 'static {
    /// Atomic usize (head/tail cursors).
    type AtomicUsize: RingAtomicUsize;
    /// Atomic bool (closed flag).
    type AtomicBool: RingAtomicBool;
    /// One item slot: plain (non-atomic) storage whose cross-thread
    /// ordering is provided entirely by the cursor publications.
    type Slot<T: Send>: RingSlot<T>;

    /// Producer publishes `tail` with this ordering (contract: `Release`
    /// — makes all preceding slot writes visible to the consumer).
    const TAIL_PUBLISH: Ordering = Ordering::Release;
    /// Consumer observes `tail` with this ordering (contract: `Acquire`).
    const TAIL_OBSERVE: Ordering = Ordering::Acquire;
    /// Consumer publishes `head` with this ordering (contract: `Release`
    /// — makes the slot read happen-before reuse of the slot).
    const HEAD_PUBLISH: Ordering = Ordering::Release;
    /// Producer observes `head` with this ordering (contract: `Acquire`).
    const HEAD_OBSERVE: Ordering = Ordering::Acquire;
    /// Producer publishes `closed` with this ordering (contract:
    /// `Release` — ordered after the final tail publish).
    const CLOSED_PUBLISH: Ordering = Ordering::Release;
    /// Consumer observes `closed` with this ordering (contract:
    /// `Acquire` — the post-close re-check must see the final push).
    const CLOSED_OBSERVE: Ordering = Ordering::Acquire;

    /// Busy-wait hint (maps to a scheduler park under a model checker).
    fn spin_loop();
    /// Yield to the OS scheduler (park under a model checker).
    fn yield_now();
    /// Give the CPU away for a while: the last stage of the backoff,
    /// taken once spinning and yielding have not ended the wait (a
    /// scheduler park under a model checker, like `yield_now`).
    fn nap();
}

/// Operations the ring needs from an atomic `usize`: load and store only.
pub trait RingAtomicUsize: Send + Sync {
    /// New atomic with initial value.
    fn new(v: usize) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> usize;
    /// Atomic store.
    fn store(&self, v: usize, ord: Ordering);
    /// Non-synchronizing read for exclusively-owned teardown
    /// (`get_mut` equivalent).
    fn unsync_load(&mut self) -> usize;
}

/// Operations the ring needs from an atomic `bool`.
pub trait RingAtomicBool: Send + Sync {
    /// New atomic with initial value.
    fn new(v: bool) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> bool;
    /// Atomic store.
    fn store(&self, v: bool, ord: Ordering);
}

/// One plain-memory item slot. All methods are unsafe because the slot
/// itself enforces nothing: the ring's cursor protocol is what makes a
/// given call exclusive, and the model checker verifies exactly that.
pub trait RingSlot<T>: Send + Sync {
    /// A vacant slot.
    fn vacant() -> Self;
    /// Move `v` into the slot.
    ///
    /// # Safety
    /// The slot must be vacant and the caller must be the only thread
    /// accessing it (producer side, `local_tail - head < capacity`).
    unsafe fn write(&self, v: T);
    /// Move the value out, leaving the slot vacant.
    ///
    /// # Safety
    /// The slot must be occupied and the caller must be the only
    /// thread accessing it (consumer side, `head < published tail`).
    unsafe fn take(&self) -> T;
    /// Drop the value in place (teardown of occupied slots).
    ///
    /// # Safety
    /// The slot must be occupied and the caller must have exclusive
    /// ownership of the ring (sole remaining handle).
    unsafe fn drop_in_place(&self);
}

/// Production facade: real `std::sync::atomic` primitives and the
/// contract orderings. Every method is an inlineable passthrough, so
/// the generic ring compiles to exactly the code it was before the
/// facade existed.
pub struct StdSync;

impl RingSync for StdSync {
    type AtomicUsize = AtomicUsize;
    type AtomicBool = AtomicBool;
    type Slot<T: Send> = StdSlot<T>;

    #[inline]
    fn spin_loop() {
        std::hint::spin_loop();
    }

    #[inline]
    fn yield_now() {
        std::thread::yield_now();
    }

    #[inline]
    fn nap() {
        std::thread::sleep(NAP);
    }
}

impl RingAtomicUsize for AtomicUsize {
    #[inline]
    fn new(v: usize) -> AtomicUsize {
        AtomicUsize::new(v)
    }

    #[inline]
    fn load(&self, ord: Ordering) -> usize {
        AtomicUsize::load(self, ord)
    }

    #[inline]
    fn store(&self, v: usize, ord: Ordering) {
        AtomicUsize::store(self, v, ord);
    }

    #[inline]
    fn unsync_load(&mut self) -> usize {
        *self.get_mut()
    }
}

impl RingAtomicBool for AtomicBool {
    #[inline]
    fn new(v: bool) -> AtomicBool {
        AtomicBool::new(v)
    }

    #[inline]
    fn load(&self, ord: Ordering) -> bool {
        AtomicBool::load(self, ord)
    }

    #[inline]
    fn store(&self, v: bool, ord: Ordering) {
        AtomicBool::store(self, v, ord);
    }
}

/// [`RingSlot`] over a plain `UnsafeCell<MaybeUninit<T>>`.
pub struct StdSlot<T>(UnsafeCell<MaybeUninit<T>>);

// SAFETY: the slot transfers owned `T` values between exactly two
// threads; the ring's cursor protocol (machine-checked in the
// model-check suite) guarantees each slot is accessed by one side at a
// time, so sharing references across threads is sound for any T: Send.
unsafe impl<T: Send> Sync for StdSlot<T> {}
// SAFETY: an owned slot owns at most one T; moving it moves the value.
unsafe impl<T: Send> Send for StdSlot<T> {}

impl<T: Send> RingSlot<T> for StdSlot<T> {
    #[inline]
    fn vacant() -> StdSlot<T> {
        StdSlot(UnsafeCell::new(MaybeUninit::uninit()))
    }

    #[inline]
    unsafe fn write(&self, v: T) {
        // SAFETY: per the trait contract the caller is the only thread
        // accessing this vacant slot.
        unsafe { (*self.0.get()).write(v) };
    }

    #[inline]
    unsafe fn take(&self) -> T {
        // SAFETY: per the trait contract the slot is occupied and the
        // caller is the only thread accessing it.
        unsafe { (*self.0.get()).assume_init_read() }
    }

    #[inline]
    unsafe fn drop_in_place(&self) {
        // SAFETY: per the trait contract the slot is occupied and the
        // caller has exclusive ownership.
        unsafe { (*self.0.get()).assume_init_drop() };
    }
}

/// The one wait of [`Producer::push`] and [`Consumer::pop_wait`]: each
/// call is one round of spin, then yield, then nap.
struct Backoff {
    rounds: u32,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff { rounds: 0 }
    }

    /// Wait one round; true when the round was a nap.
    #[inline]
    fn wait<S: RingSync>(&mut self) -> bool {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds <= SPINS {
            S::spin_loop();
            false
        } else if self.rounds <= SPINS + YIELDS {
            S::yield_now();
            false
        } else {
            S::nap();
            true
        }
    }
}

/// A 128-byte-aligned wrapper that keeps its contents on a private cache
/// line (two 64-byte lines, covering adjacent-line prefetching).
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T: Send, S: RingSync> {
    mask: usize,
    slots: Box<[S::Slot<T>]>,
    /// Next index the consumer will pop (published).
    head: CachePadded<S::AtomicUsize>,
    /// One past the last index the producer has published.
    tail: CachePadded<S::AtomicUsize>,
    closed: S::AtomicBool,
}

impl<T: Send, S: RingSync> Drop for Shared<T, S> {
    fn drop(&mut self) {
        // Sole owner at this point: drop every published-but-unpopped item.
        let head = self.head.0.unsync_load();
        let tail = self.tail.0.unsync_load();
        for i in head..tail {
            // SAFETY: items in head..tail are initialized and owned by
            // us — we hold the last reference to the ring.
            unsafe { self.slots[i & self.mask].drop_in_place() };
        }
    }
}

/// The write half of a ring; see [`ring`].
pub struct Producer<T: Send, S: RingSync = StdSync> {
    shared: Arc<Shared<T, S>>,
    /// Next index to write; every index below it is published.
    local_tail: usize,
    /// Stale copy of the consumer's head.
    cached_head: usize,
    /// Highest producer-observed occupancy (see
    /// [`Producer::high_water_mark`]).
    hwm: usize,
}

/// The read half of a ring; see [`ring`].
pub struct Consumer<T: Send, S: RingSync = StdSync> {
    shared: Arc<Shared<T, S>>,
    /// Next index to pop.
    head: usize,
    /// Stale copy of the producer's published tail.
    cached_tail: usize,
    /// Naps taken in [`Consumer::pop_wait`] (see [`Consumer::naps`]).
    naps: u64,
}

/// Create a bounded SPSC ring holding at least `capacity` items
/// (rounded up to a power of two, minimum 2).
///
/// # Examples
///
/// One producer thread, one consumer thread, FIFO exactly-once
/// delivery ending with a close:
///
/// ```
/// let (mut tx, mut rx) = ah_simnet::ring::ring::<u64>(8);
/// let t = std::thread::spawn(move || {
///     for i in 0..100 {
///         tx.push(i); // spins only while the ring is full
///     }
///     tx.close();
/// });
/// let mut got = Vec::new();
/// while let Some(v) = rx.pop_wait() {
///     got.push(v);
/// }
/// t.join().unwrap();
/// assert_eq!(got, (0..100).collect::<Vec<u64>>());
/// ```
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with::<StdSync, T>(capacity)
}

/// Create a ring over an explicit [`RingSync`] facade — the entry point
/// the model-check suite uses to run the production protocol on shadow
/// atomics at tiny capacities.
pub fn ring_with<S: RingSync, T: Send>(capacity: usize) -> (Producer<T, S>, Consumer<T, S>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[S::Slot<T>]> = (0..cap).map(|_| S::Slot::vacant()).collect();
    let shared = Arc::new(Shared::<T, S> {
        mask: cap - 1,
        slots,
        head: CachePadded(S::AtomicUsize::new(0)),
        tail: CachePadded(S::AtomicUsize::new(0)),
        closed: S::AtomicBool::new(false),
    });
    (
        Producer { shared: Arc::clone(&shared), local_tail: 0, cached_head: 0, hwm: 0 },
        Consumer { shared, head: 0, cached_tail: 0, naps: 0 },
    )
}

impl<T: Send, S: RingSync> Producer<T, S> {
    /// Ring capacity in items.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Highest occupancy the producer has observed after any push, in
    /// items. Computed against the producer's *stale* head copy, so it
    /// is an upper bound on true instantaneous occupancy — exactly the
    /// conservative number wanted for "how close did this ring come to
    /// back-pressuring the dispatcher". Plain field, no atomics: reading
    /// it costs nothing and cannot perturb the SPSC protocol.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Kept for callers written against a batching ring: every push
    /// already publishes, so there is nothing left to flush.
    pub fn flush(&mut self) {}

    /// Try to enqueue without blocking; returns the value back when the
    /// ring is full.
    ///
    /// # Examples
    ///
    /// Back-pressure is a return value, not a blocked thread, and every
    /// accepted item is immediately visible to the consumer:
    ///
    /// ```
    /// let (mut tx, mut rx) = ah_simnet::ring::ring::<u32>(2);
    /// tx.try_push(1).unwrap();
    /// tx.try_push(2).unwrap();
    /// assert_eq!(tx.try_push(3), Err(3), "full ring hands the item back");
    /// assert_eq!(rx.pop(), Some(1));
    /// assert_eq!(tx.try_push(3), Ok(()), "freed slot is reusable");
    /// ```
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        if !self.has_room() {
            return Err(value);
        }
        self.write(value);
        Ok(())
    }

    /// Enqueue, waiting through the backoff while the ring is full. The
    /// value is written once, when a slot is free, so a large item is
    /// not moved on every round of the wait.
    pub fn push(&mut self, value: T) {
        let mut backoff = Backoff::new();
        while !self.has_room() {
            backoff.wait::<S>();
        }
        self.write(value);
    }

    /// Is a slot free? Re-reads the consumer's head only when the ring
    /// looks full.
    #[inline]
    fn has_room(&mut self) -> bool {
        let cap = self.shared.mask + 1;
        if self.local_tail - self.cached_head >= cap {
            self.cached_head = self.shared.head.0.load(S::HEAD_OBSERVE);
        }
        self.local_tail - self.cached_head < cap
    }

    /// Write into the slot [`Producer::has_room`] just found free, then
    /// publish it.
    #[inline]
    fn write(&mut self, value: T) {
        // SAFETY: the slot is free (local_tail - head < capacity) and no
        // other thread writes it; publication below synchronizes the read.
        unsafe { self.shared.slots[self.local_tail & self.shared.mask].write(value) };
        self.local_tail += 1;
        self.hwm = self.hwm.max(self.local_tail - self.cached_head);
        self.shared.tail.0.store(self.local_tail, S::TAIL_PUBLISH);
    }

    /// Mark the stream finished; the consumer's [`Consumer::pop_wait`]
    /// returns `None` once the ring drains.
    pub fn close(self) {}
}

impl<T: Send, S: RingSync> Drop for Producer<T, S> {
    fn drop(&mut self) {
        // Closing is dropping: every push is already published.
        self.shared.closed.store(true, S::CLOSED_PUBLISH);
    }
}

impl<T: Send, S: RingSync> Consumer<T, S> {
    /// Dequeue without blocking; `None` when no published item is ready.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(S::TAIL_OBSERVE);
            if self.head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: head < published tail, so the slot is initialized and
        // the producer will not touch it until we advance head.
        let value = unsafe { self.shared.slots[self.head & self.shared.mask].take() };
        self.head += 1;
        self.shared.head.0.store(self.head, S::HEAD_PUBLISH);
        Some(value)
    }

    /// Dequeue, waiting through the backoff for an item; `None` only
    /// after the producer closed the ring *and* every item has been
    /// drained.
    pub fn pop_wait(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            if self.shared.closed.load(S::CLOSED_OBSERVE) {
                // Re-check: the final push happens-before `closed`.
                return self.pop();
            }
            if backoff.wait::<S>() {
                self.naps += 1;
            }
        }
    }

    /// Naps [`Consumer::pop_wait`] has taken so far: how often this
    /// consumer waited past its spins and yields. Plain field, like
    /// [`Producer::high_water_mark`].
    pub fn naps(&self) -> u64 {
        self.naps
    }

    /// True when the producer has closed the stream (items may remain).
    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
        self.shared.closed.load(S::CLOSED_OBSERVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_thread() {
        let (mut tx, mut rx) = ring::<u32>(8);
        assert_eq!(tx.capacity(), 8);
        for i in 0..5 {
            tx.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_capacity_is_respected() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99));
        assert_eq!(rx.pop(), Some(0));
        tx.try_push(4).unwrap();
        assert_eq!((1..=4).map(|_| rx.pop().unwrap()).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn high_water_mark_tracks_peak_occupancy() {
        let (mut tx, mut rx) = ring::<u32>(8);
        assert_eq!(tx.high_water_mark(), 0);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.high_water_mark(), 8, "filled to capacity");
        assert!(tx.try_push(99).is_err(), "rejected push must not raise the mark");
        for _ in 0..4 {
            rx.pop();
        }
        // Refilling after a drain cannot exceed capacity and never
        // lowers the recorded peak.
        tx.try_push(8).unwrap();
        assert_eq!(tx.high_water_mark(), 8);
    }

    #[test]
    fn close_drains_then_ends() {
        let (mut tx, mut rx) = ring::<u32>(8);
        tx.try_push(7).unwrap();
        tx.close();
        assert_eq!(rx.pop_wait(), Some(7));
        assert_eq!(rx.pop_wait(), None);
        assert!(rx.is_closed());
    }

    #[test]
    fn drop_of_producer_closes() {
        let (tx, mut rx) = ring::<u32>(8);
        drop(tx);
        assert_eq!(rx.pop_wait(), None);
    }

    #[test]
    fn unpopped_items_are_dropped_with_the_ring() {
        // Box<u64> would leak if Shared::drop didn't run destructors;
        // run under the workspace's normal test flags this is exercised
        // by miri-like tooling and by not leaking under valgrind — here
        // we at least exercise the code path.
        let (mut tx, rx) = ring::<Box<u64>>(8);
        tx.try_push(Box::new(1)).unwrap();
        tx.try_push(Box::new(2)).unwrap();
        drop(rx);
        drop(tx);
    }

    #[test]
    fn a_starved_consumer_naps_and_still_gets_everything_in_order() {
        const N: u32 = 40;
        let (mut tx, mut rx) = ring::<u32>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                // Far longer than the consumer's spins and yields.
                std::thread::sleep(Duration::from_millis(1));
                tx.push(i);
            }
            tx.close();
        });
        let mut seen = Vec::new();
        while let Some(v) = rx.pop_wait() {
            seen.push(v);
        }
        producer.join().expect("producer thread");
        assert_eq!(seen, (0..N).collect::<Vec<_>>(), "items reordered or lost");
        assert!(rx.naps() > 0, "a consumer starved for milliseconds never napped");
    }

    #[test]
    fn a_blocked_producer_backs_off_and_loses_nothing() {
        const N: u32 = 40;
        let (mut tx, mut rx) = ring::<[u32; 4]>(2);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(v) = rx.pop_wait() {
                // Keeps the 2-slot ring full, so `push` runs its backoff
                // through to the nap.
                std::thread::sleep(Duration::from_millis(1));
                seen.push(v);
            }
            seen
        });
        for i in 0..N {
            tx.push([i; 4]);
        }
        tx.close();
        let seen = consumer.join().expect("consumer thread");
        assert_eq!(seen, (0..N).map(|i| [i; 4]).collect::<Vec<_>>(), "items reordered or lost");
    }

    #[test]
    fn cross_thread_fifo_and_completeness() {
        const N: usize = 200_000;
        let (mut tx, mut rx) = ring::<usize>(256);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::with_capacity(N);
            while let Some(v) = rx.pop_wait() {
                seen.push(v);
            }
            seen
        });
        for i in 0..N {
            tx.push(i);
        }
        tx.close();
        let seen = consumer.join().expect("consumer thread");
        assert_eq!(seen.len(), N);
        assert!(seen.iter().enumerate().all(|(i, &v)| i == v), "items reordered or lost");
    }
}
