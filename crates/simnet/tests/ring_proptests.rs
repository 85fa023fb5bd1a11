//! Property-based invariants for the SPSC ring.
//!
//! The parallel pipeline's determinism proof leans on exactly two ring
//! properties: every pushed item is popped exactly once (completeness),
//! and items come out in push order (FIFO) — regardless of capacity,
//! back-pressure, or how pushes and pops interleave.

use ah_simnet::ring::ring;
use proptest::prelude::*;

proptest! {
    /// Single-threaded interleaving: an arbitrary schedule of pushes,
    /// pops and fills to back-pressure never loses, duplicates or
    /// reorders items.
    #[test]
    fn interleaved_ops_preserve_fifo_and_completeness(
        capacity in 1usize..64,
        ops in proptest::collection::vec(0u8..3, 1..400),
    ) {
        let (mut tx, mut rx) = ring::<u64>(capacity);
        let mut next = 0u64;
        let mut expected = 0u64;
        for op in ops {
            match op {
                0 => {
                    if tx.try_push(next).is_ok() {
                        next += 1;
                    }
                }
                1 => {
                    if let Some(v) = rx.pop() {
                        prop_assert_eq!(v, expected, "FIFO order violated");
                        expected += 1;
                    }
                }
                _ => {
                    // Fill until the ring pushes back: the refused value
                    // comes back unchanged, and only once at least the
                    // requested capacity is in flight.
                    let refused = loop {
                        match tx.try_push(next) {
                            Ok(()) => next += 1,
                            Err(v) => break v,
                        }
                    };
                    prop_assert_eq!(refused, next, "a full ring must hand the value back");
                    prop_assert!(
                        next - expected >= capacity as u64,
                        "refused with {} of {} in flight",
                        next - expected,
                        capacity
                    );
                }
            }
        }
        // Drain: everything pushed must come out.
        while let Some(v) = rx.pop() {
            prop_assert_eq!(v, expected);
            expected += 1;
        }
        prop_assert_eq!(expected, next, "items lost in the ring");
    }

    /// Cross-thread: for any capacity and item count, a producer thread
    /// pushing 0..n and closing yields exactly 0..n at the consumer.
    #[test]
    fn cross_thread_stream_is_exact(
        capacity in 1usize..32,
        n in 0usize..2000,
    ) {
        let (mut tx, mut rx) = ring::<usize>(capacity);
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.push(i);
            }
            let hwm = tx.high_water_mark();
            tx.close();
            hwm
        });
        let mut seen = 0usize;
        while let Some(v) = rx.pop_wait() {
            prop_assert_eq!(v, seen, "FIFO order violated across threads");
            seen += 1;
        }
        let hwm = producer.join().expect("producer thread");
        prop_assert_eq!(seen, n, "items lost or duplicated across threads");
        prop_assert!(hwm <= capacity, "occupancy mark {} past the capacity {}", hwm, capacity);
    }
}
