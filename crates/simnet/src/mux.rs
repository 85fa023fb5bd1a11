//! Time-ordered traffic multiplexing.
//!
//! Every traffic source implements [`Actor`]; the [`TrafficMux`] merges
//! their packet streams into one globally time-ordered stream, a time
//! window at a time:
//!
//! * **Fill.** A window starts at the earliest pending [`Actor::peek`]
//!   and ends `span` µs later. Every actor, in the order it was added,
//!   appends all its packets before the end through one
//!   [`Actor::fill_until`] call: one virtual call per actor and window,
//!   with `peek`/`emit` inlined into a loop that stays inside one actor
//!   type. An actor whose next packet lies past the end is not called.
//! * **Order.** One stable LSD radix sort orders the window's keys
//!   `(ts − start) << k | gather position`. It passes only over the
//!   offset bits in use, in digits of up to 11 bits; the position rides
//!   below them unsorted, and stability keeps gather order among equal
//!   timestamps. Packets are gathered actor by actor, so the sort yields
//!   timestamp order, then actor order, then each actor's own emission
//!   order — the order of the least `(peek(), index)` merge.
//! * **Serve.** [`TrafficMux::next_packet`] and [`TrafficMux::next_batch`]
//!   read the sorted window; the next window is filled when it is spent.
//!
//! Windows cannot change the output. Actors share no mutable state (each
//! owns its RNG and clock), so *when* an actor generates a packet cannot
//! change *what* it or any other actor generates; a window holds every
//! packet before its end and none after, and the next one starts where
//! it ended, so any partition of time into windows concatenates to the
//! same sequence. `span` only sets how much each sort orders: it doubles
//! after a window of under half of [`WINDOW`] packets and halves after
//! one of over twice that, within 1 µs to `MAX_SPAN` (about 71 minutes).
//! The window buffers are reserved for `RESERVE` = 16 × `WINDOW` packets
//! when the mux is built, four times the largest window measured on the
//! shipped scenarios (ARCHITECTURE.md §7); a window beyond that still
//! merges exactly but grows the buffers, which `tests/memory.rs` fails.

use ah_mem::Tag;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;

/// Packets per [`TrafficMux::next_batch`] pull in the pipeline's feeder.
pub const BATCH: usize = 256;

/// Packets a window aims to hold: `span` doubles after a window of
/// under half of it and halves after one of over twice it.
pub const WINDOW: usize = 4096;

/// Packets the window buffers are reserved for.
const RESERVE: usize = 16 * WINDOW;

/// The longest window, in µs (about 71 minutes): a time offset in a
/// window fits 32 bits, which leaves the sort key 32 bits of gather
/// position.
const MAX_SPAN: u64 = 1 << 32;

/// The first window's span, in µs; later ones adapt.
const FIRST_SPAN: u64 = 1 << 10;

/// A packet source with its own clock.
///
/// Actors are independent: an actor's stream is a function of its own
/// state only, never of another actor's or of how far the merged stream
/// has advanced. The mux relies on this to generate a window ahead.
pub trait Actor {
    /// Time of the next packet, or `None` when the actor is finished.
    /// Must be non-decreasing across calls and stable between `emit`s.
    fn peek(&self) -> Option<Ts>;

    /// Emit the packet scheduled at [`Actor::peek`] and advance.
    ///
    /// Only called when `peek()` returned `Some`; the emitted packet's
    /// timestamp must equal that value, and the next `peek()` must not
    /// be earlier. [`Actor::fill_until`] debug-asserts both. Runs once
    /// per packet: implementations do not allocate.
    fn emit(&mut self) -> PacketMeta;

    /// Append every packet the actor has before `end` to `out`; returns
    /// the time of the next one (at or after `end`), or `None` once the
    /// actor is finished.
    ///
    /// A default method on purpose, and not one to override: it is
    /// instantiated per actor type, so the `peek`/`emit` pair inside the
    /// loop is dispatched statically and the mux pays one virtual call
    /// per actor and window.
    fn fill_until(&mut self, out: &mut Vec<PacketMeta>, end: Ts) -> Option<Ts> {
        loop {
            let ts = self.peek()?;
            if ts >= end {
                return Some(ts);
            }
            let pkt = self.emit();
            debug_assert_eq!(pkt.ts, ts, "actor emitted at a different time than it peeked");
            debug_assert!(self.peek().unwrap_or(ts) >= ts, "actor clock went backwards");
            out.push(pkt);
        }
    }
}

/// An actor that still has packets, and the time of its next one.
struct Slot {
    next: Ts,
    actor: Box<dyn Actor>,
}

/// Bits of the widest radix digit: 2,048 counters a pass.
const DIGIT: u32 = 11;

/// Stable LSD radix sort of `keys` by the `bits` bits above their low
/// `low` bits, in as few passes of at most [`DIGIT`] bits as cover
/// them, through the second buffer `scratch`. Keys equal in those bits
/// keep their order; a digit every key shares costs no pass.
fn radix_sort(keys: &mut Vec<u64>, scratch: &mut Vec<u64>, low: u32, bits: u32) {
    let passes = bits.div_ceil(DIGIT);
    if passes == 0 {
        return;
    }
    let width = bits.div_ceil(passes);
    let mask = (1 << width) - 1;
    let mut counts = [[0u32; 1 << DIGIT]; 64usize.div_ceil(DIGIT as usize)];
    let counts = &mut counts[..passes as usize];
    for &key in keys.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[(key >> (low + width * pass as u32)) as usize & mask] += 1;
        }
    }
    let n = keys.len();
    scratch.resize(n, 0);
    for (pass, count) in counts.iter_mut().enumerate() {
        let count = &mut count[..=mask];
        if count.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        let shift = low + width * pass as u32;
        for &key in keys.iter() {
            let digit = (key >> shift) as usize & mask;
            scratch[count[digit] as usize] = key;
            count[digit] += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// Merges actors into one time-ordered packet stream.
pub struct TrafficMux {
    /// Actors with packets left, in the order they were added.
    slots: Vec<Slot>,
    /// The earliest `next` over `slots`: where the next window starts.
    next: Option<Ts>,
    /// The next window's length in µs.
    span: u64,
    /// The current window's packets, in gather order.
    packets: Vec<PacketMeta>,
    /// The current window's sort keys, sorted; the low bits under
    /// `mask` are a packet's position in `packets`.
    order: Vec<u64>,
    /// The radix sort's second buffer.
    scratch: Vec<u64>,
    mask: u64,
    /// `order[head..]` are still to serve.
    head: usize,
    windows: u64,
    emitted: u64,
}

impl TrafficMux {
    /// An empty mux with its window buffers reserved; add actors with
    /// [`TrafficMux::add`].
    pub fn new() -> TrafficMux {
        TrafficMux {
            slots: Vec::new(),
            next: None,
            span: FIRST_SPAN,
            packets: Vec::with_capacity(RESERVE),
            order: Vec::with_capacity(RESERVE),
            scratch: Vec::with_capacity(RESERVE),
            mask: 0,
            head: 0,
            windows: 0,
            emitted: 0,
        }
    }

    /// Add an actor, before the first packet is drawn; an actor without
    /// packets is dropped here.
    pub fn add(&mut self, actor: Box<dyn Actor>) {
        debug_assert!(self.order.is_empty(), "actor added after the merge began");
        if let Some(next) = actor.peek() {
            self.next = Some(self.next.map_or(next, |t| t.min(next)));
            self.slots.push(Slot { next, actor });
        }
    }

    /// Total packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Windows filled so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Fill, sort and arm the next window; `false` once every actor is
    /// finished. Only called when the current window is spent.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        let Some(start) = self.next else { return false };
        let end = Ts(start.micros().saturating_add(self.span));
        self.packets.clear();
        let mut next: Option<Ts> = None;
        // Anything an actor allocates while emitting, and any growth of
        // a window past its reserve, is the mux's own memory traffic
        // (the zero-allocation gates in `tests/memory.rs` read this
        // tag); the caller's delivery path re-tags downstream.
        let prev = ah_mem::tag_swap(Tag::Mux);
        let packets = &mut self.packets;
        self.slots.retain_mut(|slot| {
            if slot.next < end {
                match slot.actor.fill_until(packets, end) {
                    Some(ts) => slot.next = ts,
                    None => return false,
                }
            }
            next = Some(next.map_or(slot.next, |t| t.min(slot.next)));
            true
        });
        ah_mem::tag_restore(prev);
        self.next = next;

        let n = self.packets.len();
        // Only a window that starts at `Ts(u64::MAX)`, where `end`
        // saturates, is empty: the stream ends before such a packet.
        if n == 0 {
            return false;
        }
        // 2^32 packets would take 128 GiB: positions and counts fit `u32`.
        debug_assert!(n <= u32::MAX as usize, "a window of {n} packets");
        if n < WINDOW / 2 {
            self.span = (self.span * 2).min(MAX_SPAN);
        } else if n > 2 * WINDOW {
            self.span = (self.span / 2).max(1);
        }
        let k = usize::BITS - (n - 1).leading_zeros();
        let mut used = 0;
        self.order.clear();
        self.order.extend(self.packets.iter().enumerate().map(|(at, p)| {
            let offset = p.ts.micros() - start.micros();
            used |= offset;
            (offset << k) | at as u64
        }));
        radix_sort(&mut self.order, &mut self.scratch, k, u64::BITS - used.leading_zeros());
        self.mask = (1 << k) - 1;
        self.head = 0;
        self.windows += 1;
        true
    }

    /// The packet `key` of the current window names.
    #[inline]
    fn packet(&self, key: u64) -> PacketMeta {
        self.packets[(key & self.mask) as usize]
    }

    /// Next packet in global time order.
    #[inline]
    pub fn next_packet(&mut self) -> Option<PacketMeta> {
        if self.head == self.order.len() && !self.refill() {
            return None;
        }
        let pkt = self.packet(self.order[self.head]);
        self.head += 1;
        self.emitted += 1;
        Some(pkt)
    }

    /// Append the next packets in global time order to `out`, at most
    /// `max` of them; returns how many were appended (0 once the mux is
    /// dry). Equivalent to `max` calls of [`TrafficMux::next_packet`].
    pub fn next_batch(&mut self, out: &mut Vec<PacketMeta>, max: usize) -> usize {
        let mut n = 0;
        while n < max && (self.head < self.order.len() || self.refill()) {
            let take = (max - n).min(self.order.len() - self.head);
            let keys = &self.order[self.head..self.head + take];
            out.extend(keys.iter().map(|&key| self.packet(key)));
            self.head += take;
            n += take;
        }
        self.emitted += n as u64;
        n
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
    fn finished_actor_leaves_the_merge() {
        let mut mux = TrafficMux::new();
        mux.add(Box::new(Ticker { start: 0, step: 1, count: 1, sent: 0, src: 1 }));
        mux.add(Box::new(Ticker { start: 0, step: 2, count: 3, sent: 0, src: 2 }));
        mux.add(Box::new(Ticker { start: 1, step: 1, count: 2, sent: 0, src: 3 }));
        assert_eq!(mux.slots.len(), 3);
        // t=0: actor 1 emits its only packet, and the window that took
        // it drops the actor.
        assert_eq!(mux.next_packet().map(|p| p.src.octets()[3]), Some(1));
        assert_eq!(mux.slots.len(), 2);
        let rest: Vec<(u64, u8)> = std::iter::from_fn(|| mux.next_packet())
            .map(|p| (p.ts.secs(), p.src.octets()[3]))
            .collect();
        assert_eq!(rest, [(0, 2), (1, 3), (2, 2), (2, 3), (4, 2)]);
        assert!(mux.slots.is_empty(), "every finished actor left the merge");
        assert_eq!(mux.emitted(), 6);
        assert!(mux.next_packet().is_none());
    }
}
