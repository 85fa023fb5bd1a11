//! Time-ordered traffic multiplexing.
//!
//! Every traffic source implements [`Actor`]; the [`TrafficMux`] merges
//! their packet streams into one globally time-ordered stream using a
//! binary heap with exactly one outstanding entry per live actor. The
//! invariant is kept by replacement, not by pop-and-push: the actor at
//! the top of the heap emits, and its entry is rewritten in place with
//! its next timestamp (one sift-down) or popped when it has none left.

use ah_mem::Tag;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// A packet source with its own clock.
pub trait Actor {
    /// Time of the next packet, or `None` when the actor is finished.
    /// Must be non-decreasing across calls and stable between `emit`s.
    fn peek(&self) -> Option<Ts>;

    /// Emit the packet scheduled at [`Actor::peek`] and advance.
    ///
    /// Only called when `peek()` returned `Some`; the emitted packet's
    /// timestamp must equal that value, and the next `peek()` must not
    /// be earlier. [`TrafficMux::next_packet`] debug-asserts both. Runs
    /// once per packet: implementations do not allocate.
    fn emit(&mut self) -> PacketMeta;
}

#[derive(PartialEq, Eq)]
struct HeapEntry {
    ts: Reverse<Ts>,
    /// Tie-break so the merge order is deterministic.
    idx: Reverse<usize>,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.idx).cmp(&(other.ts, other.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges actors into one time-ordered packet stream.
pub struct TrafficMux {
    actors: Vec<Box<dyn Actor>>,
    heap: BinaryHeap<HeapEntry>,
    emitted: u64,
}

impl TrafficMux {
    /// An empty mux; add actors with [`TrafficMux::add`].
    pub fn new() -> TrafficMux {
        TrafficMux { actors: Vec::new(), heap: BinaryHeap::new(), emitted: 0 }
    }

    /// Add an actor; it is scheduled immediately if it has packets.
    pub fn add(&mut self, actor: Box<dyn Actor>) {
        let idx = self.actors.len();
        if let Some(ts) = actor.peek() {
            self.heap.push(HeapEntry { ts: Reverse(ts), idx: Reverse(idx) });
        }
        self.actors.push(actor);
    }

    /// Total packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Next packet in global time order.
    pub fn next_packet(&mut self) -> Option<PacketMeta> {
        let mut top = self.heap.peek_mut()?;
        // Anything an actor allocates while emitting is the mux's own
        // memory traffic (the zero-allocation gate in `tests/memory.rs`
        // reads this tag); the caller's delivery path re-tags
        // downstream. Manual swap, not a `MemScope` guard, on the
        // per-packet path (see `ah_mem::tag_swap`).
        let prev = ah_mem::tag_swap(Tag::Mux);
        let actor = &mut self.actors[top.idx.0];
        let pkt = actor.emit();
        debug_assert_eq!(pkt.ts, top.ts.0, "actor emitted at a different time than it peeked");
        match actor.peek() {
            Some(ts) => {
                debug_assert!(ts >= pkt.ts, "actor clock went backwards");
                // Rewritten in place; dropping `top` sifts it down.
                top.ts = Reverse(ts);
            }
            None => {
                PeekMut::pop(top);
            }
        }
        ah_mem::tag_restore(prev);
        self.emitted += 1;
        Some(pkt)
    }

    /// Run the whole simulation, passing every packet to `f`.
    pub fn drive(&mut self, mut f: impl FnMut(&PacketMeta)) {
        while let Some(pkt) = self.next_packet() {
            f(&pkt);
        }
    }
}

impl Default for TrafficMux {
    fn default() -> Self {
        TrafficMux::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::ipv4::Ipv4Addr4;

    /// Emits `count` packets spaced `step` seconds apart starting at `start`.
    struct Ticker {
        start: u64,
        step: u64,
        count: u64,
        sent: u64,
        src: u8,
    }

    impl Actor for Ticker {
        fn peek(&self) -> Option<Ts> {
            (self.sent < self.count).then(|| Ts::from_secs(self.start + self.sent * self.step))
        }

        fn emit(&mut self) -> PacketMeta {
            let ts = self.peek().unwrap();
            self.sent += 1;
            PacketMeta::tcp_syn(
                ts,
                Ipv4Addr4::new(10, 0, 0, self.src),
                Ipv4Addr4::new(20, 0, 0, 1),
                1,
                80,
            )
        }
    }

    #[test]
    fn merges_in_time_order() {
        let mut mux = TrafficMux::new();
        mux.add(Box::new(Ticker { start: 0, step: 3, count: 5, sent: 0, src: 1 }));
        mux.add(Box::new(Ticker { start: 1, step: 3, count: 5, sent: 0, src: 2 }));
        mux.add(Box::new(Ticker { start: 2, step: 3, count: 5, sent: 0, src: 3 }));
        let times: Vec<u64> =
            std::iter::from_fn(|| mux.next_packet()).map(|p| p.ts.secs()).collect();
        assert_eq!(times.len(), 15);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(times, (0..15).collect::<Vec<_>>());
        assert_eq!(mux.emitted(), 15);
    }

    #[test]
    fn empty_actor_is_never_scheduled() {
        let mut mux = TrafficMux::new();
        mux.add(Box::new(Ticker { start: 0, step: 1, count: 0, sent: 0, src: 1 }));
        assert!(mux.next_packet().is_none());
    }

    #[test]
    fn ties_resolve_deterministically() {
        let run = || {
            let mut mux = TrafficMux::new();
            mux.add(Box::new(Ticker { start: 0, step: 1, count: 3, sent: 0, src: 1 }));
            mux.add(Box::new(Ticker { start: 0, step: 1, count: 3, sent: 0, src: 2 }));
            std::iter::from_fn(move || mux.next_packet())
                .map(|p| p.src.octets()[3])
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // Lower index wins every tie, not only the first: an entry
        // rewritten in place must not jump ahead of an equal timestamp.
        assert_eq!(run(), [1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn finished_actor_leaves_the_heap() {
        let mut mux = TrafficMux::new();
        mux.add(Box::new(Ticker { start: 0, step: 1, count: 1, sent: 0, src: 1 }));
        mux.add(Box::new(Ticker { start: 0, step: 2, count: 3, sent: 0, src: 2 }));
        mux.add(Box::new(Ticker { start: 1, step: 1, count: 2, sent: 0, src: 3 }));
        assert_eq!(mux.heap.len(), 3);
        // t=0: actor 1 emits its only packet and is popped, not re-armed.
        assert_eq!(mux.next_packet().map(|p| p.src.octets()[3]), Some(1));
        assert_eq!(mux.heap.len(), 2);
        let rest: Vec<(u64, u8)> = std::iter::from_fn(|| mux.next_packet())
            .map(|p| (p.ts.secs(), p.src.octets()[3]))
            .collect();
        assert_eq!(rest, [(0, 2), (1, 3), (2, 2), (2, 3), (4, 2)]);
        assert!(mux.heap.is_empty(), "every finished actor left the heap");
        assert_eq!(mux.emitted(), 6);
        assert!(mux.next_packet().is_none());
    }
}
