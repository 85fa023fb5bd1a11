//! Time-ordered traffic multiplexing.
//!
//! Every traffic source implements [`Actor`]; the [`TrafficMux`] merges
//! their packet streams into one globally time-ordered stream using a
//! binary heap with exactly one outstanding entry per live actor.

use ah_mem::{MemScope, Tag};
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A packet source with its own clock.
pub trait Actor {
    /// Time of the next packet, or `None` when the actor is finished.
    /// Must be non-decreasing across calls and stable between `emit`s.
    fn peek(&self) -> Option<Ts>;

    /// Emit the packet scheduled at [`Actor::peek`] and advance.
    ///
    /// Only called when `peek()` returned `Some`; the emitted packet's
    /// timestamp must equal that value.
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
        // Actor emission and heap churn are the mux's own memory
        // traffic; the caller's delivery path re-tags downstream.
        let _mem = MemScope::enter(Tag::Mux);
        let entry = self.heap.pop()?;
        let idx = entry.idx.0;
        let pkt = self.actors[idx].emit();
        debug_assert_eq!(pkt.ts, entry.ts.0, "actor emitted at a different time than it peeked");
        if let Some(ts) = self.actors[idx].peek() {
            debug_assert!(ts >= pkt.ts, "actor clock went backwards");
            self.heap.push(HeapEntry { ts: Reverse(ts), idx: Reverse(idx) });
        }
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
        // Lower index wins ties.
        assert_eq!(run()[0], 1);
    }
}
