//! Bounded SPSC hand-off for the parallel pipeline.
//!
//! One producer thread (the packet dispatcher) feeds one consumer thread
//! (a pipeline shard) through [`std::sync::mpsc::sync_channel`]. The
//! channel orders the items: everything a producer wrote into a value
//! before sending it is visible to the consumer that receives it, and
//! std proves that, not this crate. What this module adds on top:
//!
//! * **An exact capacity.** `ring(n)` holds `n` items (at least one);
//!   [`Producer::try_push`] hands the value back once `n` are in flight.
//! * **A consumer that naps instead of parking.** [`Consumer::pop_wait`]
//!   polls with `SPINS` busy spins, then `YIELDS` scheduler yields, then a
//!   `NAP` sleep on every further round, counted in [`Consumer::naps`].
//!   A consumer parked in a blocking receive would make every send pay a
//!   futex wake; a napping one is woken by nothing.
//! * **An occupancy statistic.** [`Producer::high_water_mark`].
//!
//! The stream is closed by dropping or [`Producer::close`]-ing the
//! producer. The consumer still drains every item sent before that:
//! `pop_wait` returns `None` only once the channel is closed *and* empty.
//! A consumer that goes away cannot wedge the producer either:
//! [`Producer::push`] to a dropped consumer returns at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Busy spins a waiting consumer makes before it starts yielding.
const SPINS: u32 = 64;
/// Scheduler yields after the spins, before a waiting consumer naps.
const YIELDS: u32 = 16;
/// How long a waiting consumer sleeps per round once it has spun and
/// yielded. Plus the kernel's timer slack, a nap stays under a quarter
/// of the ~410 µs a feeder at 10 Mpps needs to fill the engine's
/// smallest ring, two 2,048-packet items, even with every packet bound
/// for that one shard; so a napping shard wakes long before its ring
/// can fill.
const NAP: Duration = Duration::from_micros(50);

/// The write half of a ring; see [`ring`].
pub struct Producer<T> {
    tx: SyncSender<T>,
    capacity: usize,
    /// Items this producer has handed to the channel.
    pushed: usize,
    /// Items the consumer has taken out (see [`Producer::high_water_mark`]).
    popped: Arc<AtomicUsize>,
    hwm: usize,
}

/// The read half of a ring; see [`ring`].
pub struct Consumer<T> {
    rx: Receiver<T>,
    /// Items taken out, counted for the producer's statistic.
    popped: Arc<AtomicUsize>,
    /// Naps taken in [`Consumer::pop_wait`] (see [`Consumer::naps`]).
    naps: u64,
}

/// Create a bounded SPSC ring holding exactly `capacity` items (at
/// least one).
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
///         tx.push(i); // waits only while the ring is full
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
    let capacity = capacity.max(1);
    let (tx, rx) = sync_channel(capacity);
    let popped = Arc::new(AtomicUsize::new(0));
    (
        Producer { tx, capacity, pushed: 0, popped: Arc::clone(&popped), hwm: 0 },
        Consumer { rx, popped, naps: 0 },
    )
}

impl<T> Producer<T> {
    /// Ring capacity in items.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy the producer has seen after any push, in items,
    /// never above the capacity: pushed minus popped, read right after
    /// the push. The consumer frees a slot before it counts the pop, so
    /// the raw difference can run one past the capacity; the mark is
    /// clamped to it.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Kept for callers written against a batching ring: every push
    /// already publishes, so there is nothing left to flush.
    pub fn flush(&mut self) {}

    /// Try to enqueue without blocking; returns the value back when the
    /// ring is full or its consumer is gone.
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
        match self.tx.try_send(value) {
            Ok(()) => {
                self.pushed_one();
                Ok(())
            }
            Err(TrySendError::Full(v) | TrySendError::Disconnected(v)) => Err(v),
        }
    }

    /// Enqueue, blocking while the ring is full. When the consumer is
    /// gone the value is dropped and the call returns: nothing will ever
    /// free a slot.
    pub fn push(&mut self, value: T) {
        if self.tx.send(value).is_ok() {
            self.pushed_one();
        }
    }

    fn pushed_one(&mut self) {
        self.pushed += 1;
        // ORDERING: a statistic only, so Relaxed; the channel orders the
        // items, and a stale count merely reads the occupancy high.
        let popped = self.popped.load(Ordering::Relaxed);
        self.hwm = self.hwm.max((self.pushed - popped).min(self.capacity));
    }

    /// Mark the stream finished; the consumer's [`Consumer::pop_wait`]
    /// returns `None` once the ring drains. Closing is dropping.
    pub fn close(self) {}
}

impl<T> Consumer<T> {
    /// Dequeue without blocking; `None` when no item is ready.
    pub fn pop(&mut self) -> Option<T> {
        self.recv().ok()
    }

    fn recv(&mut self) -> Result<T, TryRecvError> {
        let value = self.rx.try_recv()?;
        // ORDERING: a statistic only, so Relaxed; see `Producer::pushed_one`.
        self.popped.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }

    /// Dequeue, waiting through the backoff for an item; `None` only
    /// after the producer closed the ring *and* every item has been
    /// drained.
    pub fn pop_wait(&mut self) -> Option<T> {
        let mut rounds = 0u32;
        loop {
            match self.recv() {
                Ok(value) => return Some(value),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => {}
            }
            rounds = rounds.saturating_add(1);
            if rounds <= SPINS {
                std::hint::spin_loop();
            } else if rounds <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(NAP);
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
    }

    #[test]
    fn drop_of_producer_closes() {
        let (tx, mut rx) = ring::<u32>(8);
        drop(tx);
        assert_eq!(rx.pop_wait(), None);
    }

    #[test]
    fn unpopped_items_are_dropped_with_the_ring() {
        let item = Arc::new(0u64);
        let (mut tx, rx) = ring::<Arc<u64>>(8);
        tx.try_push(Arc::clone(&item)).unwrap();
        tx.try_push(Arc::clone(&item)).unwrap();
        drop(rx);
        drop(tx);
        assert_eq!(Arc::strong_count(&item), 1, "an unpopped item outlived the ring");
    }

    #[test]
    fn a_dead_consumer_cannot_wedge_the_producer() {
        let (mut tx, rx) = ring::<u32>(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            tx.push(3);
            done.send(()).unwrap();
        });
        // Let the push find the ring full and block before the consumer goes.
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        finished
            .recv_timeout(Duration::from_secs(5))
            .expect("a push to a ring whose consumer is gone must return");
        producer.join().expect("producer thread");
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
                // Keeps the 2-slot ring full, so `push` blocks.
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
        assert!(tx.high_water_mark() <= tx.capacity(), "the mark ran past the capacity");
        tx.close();
        let seen = consumer.join().expect("consumer thread");
        assert_eq!(seen.len(), N);
        assert!(seen.iter().enumerate().all(|(i, &v)| i == v), "items reordered or lost");
    }
}
