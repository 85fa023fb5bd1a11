//! Time-ordered traffic multiplexing.
//!
//! Every traffic source implements [`Actor`]; the [`TrafficMux`] merges
//! their packet streams into one globally time-ordered stream. It is
//! built from two parts:
//!
//! * **Lanes.** Each actor owns a fixed buffer of [`LANE`] packets that
//!   it generates ahead of the merge, one [`Actor::fill`] call per
//!   refill. The lookahead is invisible in the output: actors share no
//!   mutable state (each owns its RNG and clock), so *when* an actor
//!   generates a packet cannot change *what* it or any other actor
//!   generates. What it buys is one virtual call per `LANE` packets
//!   instead of two per packet, with `peek`/`emit` inlined into a loop
//!   that stays inside one actor type.
//! * **A flat key heap.** The merge is a binary min-heap of packed
//!   `u128` keys `(ts.micros() << 64) | actor_index` — exactly the
//!   `(timestamp, index)` order, lower index winning every tie — with
//!   one key per actor that still has a packet. The key at the top is
//!   replaced by its lane's next one (a single sift-down that picks the
//!   smaller child without a branch) or removed when lane and actor are
//!   both exhausted.
//!
//! [`TrafficMux::next_packet`] is that merge step;
//! [`TrafficMux::next_batch`] and [`TrafficMux::drive`] loop it.

use ah_mem::Tag;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;

/// Packets an actor generates ahead of the merge per refill.
pub const LANE: usize = 32;

/// Packets per [`TrafficMux::next_batch`] pull in [`TrafficMux::drive`]
/// and in the pipeline's feeder.
pub const BATCH: usize = 256;

/// A packet source with its own clock.
///
/// Actors are independent: an actor's stream is a function of its own
/// state only, never of another actor's or of how far the merged stream
/// has advanced. The mux relies on this to generate ahead.
pub trait Actor {
    /// Time of the next packet, or `None` when the actor is finished.
    /// Must be non-decreasing across calls and stable between `emit`s.
    fn peek(&self) -> Option<Ts>;

    /// Emit the packet scheduled at [`Actor::peek`] and advance.
    ///
    /// Only called when `peek()` returned `Some`; the emitted packet's
    /// timestamp must equal that value, and the next `peek()` must not
    /// be earlier. [`Actor::fill`] debug-asserts both. Runs once per
    /// packet: implementations do not allocate.
    fn emit(&mut self) -> PacketMeta;

    /// Append the actor's next packets to `out`, at most `max` of them,
    /// stopping early when the actor finishes.
    ///
    /// A default method on purpose, and not one to override: it is
    /// instantiated per actor type, so the `peek`/`emit` pair inside the
    /// loop is dispatched statically and the mux pays one virtual call
    /// per lane refill.
    fn fill(&mut self, out: &mut Vec<PacketMeta>, max: usize) {
        for _ in 0..max {
            let Some(ts) = self.peek() else { break };
            let pkt = self.emit();
            debug_assert_eq!(pkt.ts, ts, "actor emitted at a different time than it peeked");
            debug_assert!(self.peek().unwrap_or(ts) >= ts, "actor clock went backwards");
            out.push(pkt);
        }
    }
}

/// One actor and the packets it has generated ahead of the merge;
/// `buf[head..]` are still to merge.
struct Lane {
    actor: Box<dyn Actor>,
    buf: Vec<PacketMeta>,
    head: usize,
}

/// Heap key of lane `idx`'s packet at `ts`: `(ts, idx)` order as one integer.
fn heap_key(ts: Ts, idx: usize) -> u128 {
    (u128::from(ts.micros()) << 64) | idx as u128
}

/// Sift `key` down from the root of the min-heap `keys`, whose root slot
/// is vacant. Keys are unique (they embed the lane index), so no tie
/// can reorder.
fn sift_down(keys: &mut [u128], key: u128) {
    let n = keys.len();
    let mut at = 0;
    loop {
        let l = 2 * at + 1;
        if l >= n {
            break;
        }
        let r = l + 1;
        // The smaller child, chosen by arithmetic: which child wins is a
        // coin flip the branch predictor loses.
        let child = if r < n { l + usize::from(keys[r] < keys[l]) } else { l };
        if key < keys[child] {
            break;
        }
        keys[at] = keys[child];
        at = child;
    }
    keys[at] = key;
}

/// Merges actors into one time-ordered packet stream.
pub struct TrafficMux {
    /// One per actor, in the order they were added.
    lanes: Vec<Lane>,
    /// Min-heap of [`heap_key`]s: one per non-empty lane, keyed by that
    /// lane's head packet.
    heap: Vec<u128>,
    emitted: u64,
}

impl TrafficMux {
    /// An empty mux; add actors with [`TrafficMux::add`].
    pub fn new() -> TrafficMux {
        TrafficMux { lanes: Vec::new(), heap: Vec::new(), emitted: 0 }
    }

    /// Add an actor; it is scheduled immediately if it has packets.
    ///
    /// The actor's lane is allocated and filled here, so the merge never
    /// allocates.
    pub fn add(&mut self, mut actor: Box<dyn Actor>) {
        let idx = self.lanes.len();
        let mut buf = Vec::with_capacity(LANE);
        actor.fill(&mut buf, LANE);
        if let Some(first) = buf.first() {
            // Sift up from a new leaf.
            let new = heap_key(first.ts, idx);
            let mut at = self.heap.len();
            self.heap.push(new);
            while at > 0 && new < self.heap[(at - 1) / 2] {
                self.heap[at] = self.heap[(at - 1) / 2];
                at = (at - 1) / 2;
            }
            self.heap[at] = new;
        }
        self.lanes.push(Lane { actor, buf, head: 0 });
    }

    /// Total packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Next packet in global time order. The merge step: take the packet
    /// at the head of the top lane and re-key (or retire) that lane.
    #[inline]
    pub fn next_packet(&mut self) -> Option<PacketMeta> {
        // The key's low half is the lane index; the cast drops the rest.
        let idx = *self.heap.first()? as usize;
        let lane = &mut self.lanes[idx];
        let pkt = lane.buf[lane.head];
        lane.head += 1;
        if lane.head == lane.buf.len() {
            lane.buf.clear();
            lane.head = 0;
            // Anything an actor allocates while emitting is the mux's
            // own memory traffic (the zero-allocation gate in
            // `tests/memory.rs` reads this tag); the caller's delivery
            // path re-tags downstream. Manual swap, not a `MemScope`
            // guard, on the packet path (see `ah_mem::tag_swap`).
            let prev = ah_mem::tag_swap(Tag::Mux);
            lane.actor.fill(&mut lane.buf, LANE);
            ah_mem::tag_restore(prev);
        }
        match lane.buf.get(lane.head) {
            Some(next) => sift_down(&mut self.heap, heap_key(next.ts, idx)),
            None => {
                // Lane and actor are both exhausted: the last leaf
                // takes over the vacated root.
                self.heap.swap_remove(0);
                if let Some(&moved) = self.heap.first() {
                    sift_down(&mut self.heap, moved);
                }
            }
        }
        self.emitted += 1;
        Some(pkt)
    }

    /// Append the next packets in global time order to `out`, at most
    /// `max` of them; returns how many were appended (0 once the mux is
    /// dry). Equivalent to `max` calls of [`TrafficMux::next_packet`].
    pub fn next_batch(&mut self, out: &mut Vec<PacketMeta>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(pkt) = self.next_packet() else { break };
            out.push(pkt);
            n += 1;
        }
        n
    }

    /// Run the whole simulation, passing every packet to `f`.
    pub fn drive(&mut self, mut f: impl FnMut(&PacketMeta)) {
        let mut batch = Vec::with_capacity(BATCH);
        while self.next_batch(&mut batch, BATCH) > 0 {
            batch.iter().for_each(&mut f);
            batch.clear();
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
