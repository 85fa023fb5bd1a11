//! Darknet events ("logical scans").
//!
//! Following Durumeric et al. and the paper's Section 2.A, a *darknet
//! event* summarizes the activity of one source IP toward one destination
//! port and traffic type. An event ends when no packet has been seen for
//! more than the idle timeout; the completed event records its start and
//! end days, its packet count, the number of *unique dark destinations*
//! contacted, and how many of its packets carry the ZMap and Masscan
//! fingerprints.
//!
//! # Reordering policy — per-key, not global
//!
//! Real capture pipelines deliver slightly out-of-order packets. Each
//! *event* tolerates packets up to `reorder_window` (default: half the
//! idle timeout) older than the newest timestamp **that event** has
//! seen: such a packet joins its event normally, and if it predates the
//! event's recorded start, the start is *repaired* backwards. Packets
//! older than the event's own window are *quarantined* — counted in
//! [`AggregatorStats`], never merged — so a single wildly-late packet
//! cannot stretch an event across hours. Every observed packet lands in
//! exactly one of `accepted` or `quarantined`.
//!
//! Judging lateness against the event's own clock (rather than a global
//! watermark over all sources) makes every accept/quarantine/split
//! decision a pure function of the packet subsequence *for that key*.
//! That is what lets the sharded parallel pipeline partition sources
//! across threads with no shared clock: each key's packets all land on
//! one shard in their serial relative order, so per-key decisions — and
//! therefore event contents — are bitwise-identical at any thread
//! count. Timed expiry stays content-neutral by carrying an extra
//! `reorder_window` of slack (see `EventAggregator::advance`): by the
//! time a sweep may close an event, any future packet for that key is
//! guaranteed to start a fresh event anyway, provided the input's
//! per-key disorder is bounded by `reorder_window` (the fault layer's
//! `max_skew ≤ reorder_window` contract). See `ARCHITECTURE.md` §11.

use crate::dstset::DstSet;
use ah_net::fingerprint::{classify, Tool};
use ah_net::hash::FastMap;
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::{PacketMeta, ScanClass};
use ah_net::time::{Dur, Ts};

/// Key identifying a logical scan.
///
/// ICMP has no ports; its events use port 0, mirroring how the darknet
/// events dataset encodes them. The derived `Ord` is the order of an
/// event sequence ([`EventAggregator::flush`]), so **field order is part
/// of the output**, [`ScanClass`]'s variant order included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey {
    /// Scanning source address.
    pub src: Ipv4Addr4,
    /// Targeted destination port (0 for ICMP).
    pub dst_port: u16,
    /// Traffic type (TCP SYN / UDP / ICMP echo).
    pub class: ScanClass,
}

impl EventKey {
    /// The key for a scanning packet.
    pub(crate) fn of(pkt: &PacketMeta, class: ScanClass) -> EventKey {
        EventKey { src: pkt.src, dst_port: pkt.dst_port().unwrap_or(0), class }
    }
}

/// The longest run span, in days, an event can represent: day indices
/// `0..MAX_DAYS` fit [`DarknetEvent`]'s `u16` day fields. A longer span
/// would silently merge its later days, so the binaries refuse one.
pub const MAX_DAYS: u64 = u16::MAX as u64 + 1;

/// A completed darknet event: what D1/D2/D3 and the characterization
/// read, and nothing else. It is the one per-event record from the
/// aggregator to the detector's report, so its 28 bytes are the
/// per-event working set of a multi-month run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DarknetEvent {
    /// The (source, port, type) identity of the logical scan.
    pub key: EventKey,
    /// Day index of the event's first packet (clamped to `u16::MAX`).
    pub start_day: u16,
    /// Day index of the event's last packet (clamped to `u16::MAX`).
    pub end_day: u16,
    /// Scanning packets in the event (saturating at `u32::MAX`).
    pub packets: u32,
    /// Exact number of unique dark destinations contacted.
    pub unique_dsts: u32,
    /// Packets carrying the ZMap fingerprint (saturating).
    pub zmap: u32,
    /// Packets carrying the Masscan fingerprint (saturating).
    pub masscan: u32,
}

const _: () = assert!(size_of::<DarknetEvent>() == 28);

impl DarknetEvent {
    /// Packets with neither ZMap nor Masscan fingerprints — Figure 4's
    /// "Other" bucket (includes Mirai).
    pub fn other_packets(&self) -> u32 {
        self.packets.saturating_sub(self.zmap).saturating_sub(self.masscan)
    }
}

/// Input-fate counters for the aggregator's reordering policy, plus its
/// housekeeping: sweeps, the active map's high-water mark, held events.
///
/// Conservation: `received == accepted + quarantined`; `start_repaired`
/// is a subset of `accepted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Packets offered via `observe`.
    pub received: u64,
    /// Packets merged into an event.
    pub accepted: u64,
    /// Accepted packets that moved an event's start earlier.
    pub start_repaired: u64,
    /// Packets older than the reorder window, counted and dropped.
    pub quarantined: u64,
    /// Expiry sweeps run.
    pub sweeps: u64,
    /// Most events ever active at once.
    pub active_hwm: u64,
    /// Events closed and held for [`EventAggregator::flush`] when read.
    pub closed: u64,
}

struct ActiveEvent {
    start: Ts,
    last: Ts,
    packets: u64,
    zmap: u64,
    masscan: u64,
    dsts: DstSet,
}

impl ActiveEvent {
    /// Count one accepted packet.
    fn add(&mut self, tool: Tool, dst_index: u32) {
        self.packets += 1;
        match tool {
            Tool::ZMap => self.zmap += 1,
            Tool::Masscan => self.masscan += 1,
            Tool::Mirai | Tool::Other => {}
        }
        self.dsts.insert(dst_index);
    }
}

/// Streaming aggregator turning scanning packets into darknet events.
///
/// Feed time-ordered packets with [`EventAggregator::observe`], which
/// also expires idle events on its own sweep schedule, and call
/// [`EventAggregator::flush`] at end of trace.
pub struct EventAggregator {
    timeout: Dur,
    dark_size: u32,
    active: FastMap<EventKey, ActiveEvent>,
    /// Completed events, held until [`EventAggregator::flush`] takes
    /// them at the end of the trace (ROADMAP item "An event has one
    /// owner").
    completed: Vec<DarknetEvent>,
    /// Watermark of the last periodic sweep.
    last_sweep: Ts,
    /// Newest packet timestamp seen so far. Content-neutral: it drives
    /// only the sweep schedule and the engine's lag histogram, never an
    /// accept/quarantine decision (those are per-key).
    watermark: Ts,
    /// Max lateness (behind its event's newest timestamp) a packet may
    /// have and still be merged into that event.
    reorder_window: Dur,
    stats: AggregatorStats,
}

impl EventAggregator {
    /// `dark_size` is the number of addressable dark IPs (destination ids
    /// passed to `observe` must be below it); `timeout` is the idle gap
    /// that terminates an event.
    pub fn new(dark_size: u32, timeout: Dur) -> EventAggregator {
        Self::with_reorder_window(dark_size, timeout, Dur(timeout.0 / 2))
    }

    /// Like [`EventAggregator::new`], with an explicit reorder window
    /// instead of the `timeout / 2` default.
    pub(crate) fn with_reorder_window(
        dark_size: u32,
        timeout: Dur,
        window: Dur,
    ) -> EventAggregator {
        EventAggregator {
            timeout,
            dark_size,
            active: FastMap::default(),
            completed: Vec::new(),
            last_sweep: Ts::ZERO,
            watermark: Ts::ZERO,
            reorder_window: window,
            stats: AggregatorStats::default(),
        }
    }

    /// Number of currently active (unexpired) events.
    #[cfg(test)]
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Input-fate counters (reordering policy accounting).
    pub fn stats(&self) -> AggregatorStats {
        AggregatorStats { closed: self.completed.len() as u64, ..self.stats }
    }

    /// Observe one scanning packet: sweep first if its timestamp makes a
    /// sweep due, then [`EventAggregator::merge`] it.
    pub fn observe(&mut self, pkt: &PacketMeta, class: ScanClass, dst_index: u32) {
        self.watermark = self.watermark.max(pkt.ts);
        if let Some(now) = self.sweep_due() {
            self.advance(now);
        }
        self.merge(pkt, class, dst_index);
    }

    /// Merge one scanning packet into its event, without sweeping. `dst_index`
    /// is the packet's dense index in the dark space ([`crate::capture::DarkSpace`]).
    ///
    /// Packets should arrive in roughly non-decreasing time order.
    /// Reordering up to `reorder_window` behind the newest timestamp
    /// *of the packet's own event* is absorbed (the event's start is
    /// repaired backwards if needed); anything older is quarantined,
    /// not merged. Because the verdict depends only on per-key state,
    /// the outcome is identical whether the full stream or any
    /// source-partitioned substream is fed — the property the sharded
    /// parallel engine relies on (`ARCHITECTURE.md` §11).
    pub fn merge(&mut self, pkt: &PacketMeta, class: ScanClass, dst_index: u32) {
        self.stats.received += 1;
        self.watermark = self.watermark.max(pkt.ts);
        let key = EventKey::of(pkt, class);
        let tool = classify(pkt);
        match self.active.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let ev = e.get_mut();
                if ev.last.since(pkt.ts) > self.reorder_window {
                    // Older than this event's own reorder window: count
                    // and drop, never merge.
                    self.stats.quarantined += 1;
                    return;
                }
                if pkt.ts.since(ev.last) > self.timeout {
                    // Gap exceeded: close the old event and start fresh.
                    self.completed.push(Self::finish(key, e.remove()));
                    self.active.insert(key, Self::fresh(pkt, tool, dst_index, self.dark_size));
                } else {
                    if pkt.ts < ev.start {
                        ev.start = pkt.ts;
                        self.stats.start_repaired += 1;
                    }
                    ev.last = ev.last.max(pkt.ts);
                    ev.add(tool, dst_index);
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Self::fresh(pkt, tool, dst_index, self.dark_size));
                // Only a new key grows the map, so the mark is exact.
                self.stats.active_hwm = self.stats.active_hwm.max(self.active.len() as u64);
            }
        }
        self.stats.accepted += 1;
    }

    fn fresh(pkt: &PacketMeta, tool: Tool, dst_index: u32, dark_size: u32) -> ActiveEvent {
        let mut ev = ActiveEvent {
            start: pkt.ts,
            last: pkt.ts,
            packets: 0,
            zmap: 0,
            masscan: 0,
            dsts: DstSet::new(dark_size),
        };
        ev.add(tool, dst_index);
        ev
    }

    /// Close an event into its record: day indices clamp to `u16`
    /// ([`MAX_DAYS`]), counts saturate at `u32::MAX`.
    fn finish(key: EventKey, ev: ActiveEvent) -> DarknetEvent {
        let day = |ts: Ts| u16::try_from(ts.day()).unwrap_or(u16::MAX);
        let count = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        DarknetEvent {
            key,
            start_day: day(ev.start),
            end_day: day(ev.last),
            packets: count(ev.packets),
            unique_dsts: ev.dsts.count(),
            zmap: count(ev.zmap),
            masscan: count(ev.masscan),
        }
    }

    /// Newest packet timestamp merged so far.
    pub fn watermark(&self) -> Ts {
        self.watermark
    }

    /// The watermark, once it is half the timeout past the last sweep: a
    /// sweep is due there. A late packet never rewinds the schedule.
    pub fn sweep_due(&self) -> Option<Ts> {
        (self.watermark.since(self.last_sweep) >= Dur(self.timeout.0 / 2)).then_some(self.watermark)
    }

    /// Expire all events idle past the timeout — plus one extra
    /// `reorder_window` of slack — as of `now`.
    ///
    /// The slack makes timed expiry *content-neutral*: an event is only
    /// closed once every packet that could still legally reach it (per-
    /// key disorder is bounded by `reorder_window`) would exceed the
    /// idle timeout and start a fresh event anyway. Sweeping earlier,
    /// later, or never therefore changes *when* completed events are
    /// drained but never their contents — which is why serial runs and
    /// shards sweeping on independent local clocks agree bitwise.
    pub fn advance(&mut self, now: Ts) {
        self.stats.sweeps += 1;
        self.last_sweep = now;
        self.watermark = self.watermark.max(now);
        let expire_after = Dur(self.timeout.0 + self.reorder_window.0);
        let expired: Vec<EventKey> = self
            .active
            .iter()
            .filter(|(_, ev)| now.since(ev.last) > expire_after)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            if let Some(ev) = self.active.remove(&key) {
                self.completed.push(Self::finish(key, ev));
            }
        }
    }

    /// Close every remaining active event (end of trace) and drain all
    /// in canonical order: whatever order the map filled and swept in,
    /// the sequence is keys in order, and each key's events in the order
    /// they closed.
    ///
    /// Close order is start order: a key has at most one live event, and
    /// under the sweep slack (see `advance`) the next one starts after the
    /// previous one ended (`ARCHITECTURE.md` §4).
    ///
    /// Close order scatters keys, so this sorts with std's stable
    /// `sort_by_cached_key`: one 12-byte `(key, position)` pair per event,
    /// then an in-place permutation. On scattered keys that is faster
    /// than [`sort_canonical`]'s positions, which reach each key through
    /// its event (`EXPERIMENTS.md` §Memory).
    pub fn flush(&mut self) -> Vec<DarknetEvent> {
        let mut done = std::mem::take(&mut self.completed);
        for (key, ev) in self.active.drain() {
            done.push(Self::finish(key, ev));
        }
        done.sort_by_cached_key(|e| e.key);
        done
    }
}

/// Put a concatenation of canonical runs, such as the units' flushes
/// end to end, in canonical order: by [`EventKey`], each key's events
/// keeping their relative order. Input already in key order, such as a
/// single unit's flush, is left as it is, so it is never sorted twice.
/// Anything else is ordered through one 4-byte position per event,
/// stable-sorted by the key it points at (std's sort finds the runs and
/// merges them, O(n log k) for k runs), and then the 28-byte events are
/// permuted in place. A stable `sort_by_key` over the events would copy
/// all of them into scratch. Any input comes out right, but somewhere
/// between 16 and 32 runs [`EventAggregator::flush`]'s
/// `sort_by_cached_key` becomes faster (`EXPERIMENTS.md` §Memory).
pub fn sort_canonical(events: &mut [DarknetEvent]) {
    if events.is_sorted_by_key(|e| e.key) {
        return;
    }
    let Ok(len) = u32::try_from(events.len()) else {
        return events.sort_by_key(|e| e.key);
    };
    let mut order: Vec<u32> = (0..len).collect();
    order.sort_by_key(|&i| events[i as usize].key);
    permute(events, order);
}

/// Move the event at position `order[i]` to `i` for every `i`, in place:
/// each step finds where that event went when an earlier step swapped
/// it away.
fn permute(events: &mut [DarknetEvent], mut order: Vec<u32>) {
    for i in 0..order.len() {
        let mut from = order[i];
        while (from as usize) < i {
            from = order[from as usize];
        }
        order[i] = from;
        events.swap(i, from as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DARK: u32 = 1 << 16;

    fn syn(ts_secs: u64, src: u32, dst_idx: u32, port: u16) -> (PacketMeta, u32) {
        let p = PacketMeta::tcp_syn(
            Ts::from_secs(ts_secs),
            Ipv4Addr4(0x0a00_0000 + src),
            Ipv4Addr4(0xc000_0000 + dst_idx),
            40000,
            port,
        );
        (p, dst_idx)
    }

    fn agg() -> EventAggregator {
        EventAggregator::new(DARK, Dur::from_mins(10))
    }

    #[test]
    fn event_key_hashes_as_its_field_tuple() {
        // ah-net's hasher tests check the spread of `(src, port, class)`
        // tuples differing only in port; that covers the active map as
        // long as an `EventKey` feeds the hasher the same words.
        use std::hash::BuildHasher;
        let state = ah_net::hash::FastState::default();
        for class in ScanClass::ALL {
            for dst_port in [0u16, 23, 445, u16::MAX] {
                let key = EventKey { src: Ipv4Addr4(0x0a00_0001), dst_port, class };
                assert_eq!(state.hash_one(key), state.hash_one((key.src, dst_port, class)));
            }
        }
    }

    #[test]
    fn flush_is_independent_of_cross_key_interleaving() {
        // Forty keys with the same packet train (bursts a timeout apart,
        // so events complete by gap, by sweep and at flush), visited in
        // opposite key orders: the maps fill and sweep differently.
        let feed = |keys: &[u32]| {
            let mut a = agg();
            for t in [0u64, 5, 700, 705, 2000] {
                for &k in keys {
                    let (p, i) = syn(t + u64::from(k % 3), k, (k + t as u32) % 7, 23);
                    a.observe(&p, ScanClass::TcpSyn, i);
                }
            }
            a.flush()
        };
        let keys: Vec<u32> = (0..40).collect();
        let fwd = feed(&keys);
        assert!(fwd.len() == 120 && fwd.is_sorted_by_key(|e| e.key));
        assert_eq!(fwd, feed(&keys.iter().rev().copied().collect::<Vec<_>>()));
    }

    #[test]
    fn one_source_one_event() {
        let mut a = agg();
        for i in 0..100u32 {
            let (p, idx) = syn(u64::from(i), 1, i, 23);
            a.observe(&p, ScanClass::TcpSyn, idx);
        }
        let evs = a.flush();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!(e.packets, 100);
        assert_eq!(e.unique_dsts, 100);
        assert_eq!((e.start_day, e.end_day), (0, 0));
    }

    #[test]
    fn events_of_one_key_flush_in_start_order() {
        // Three events of one key on day 0, bursts a timeout apart, each
        // smaller than the last: a sort on content after the key (day,
        // then packets) would put them backwards.
        let mut a = agg();
        for (start, n) in [(0u64, 30u32), (1000, 20), (2000, 10)] {
            for i in 0..n {
                let (p, idx) = syn(start + u64::from(i), 1, i, 23);
                a.observe(&p, ScanClass::TcpSyn, idx);
            }
        }
        let packets: Vec<u32> = a.flush().iter().map(|e| e.packets).collect();
        assert_eq!(packets, [30, 20, 10]);
    }

    #[test]
    fn source_disjoint_flushes_merge_to_the_whole_flush() {
        // Eight sources, two ports, bursts that close by gap, by sweep and
        // at flush; odd sources to one aggregator, even to another. Their
        // flushes, concatenated and stable-sorted by key, are the flush of
        // one aggregator over the whole stream.
        let (mut whole, mut parts) = (agg(), [agg(), agg()]);
        for t in [0u64, 5, 700, 705, 2000, 2003] {
            for src in 0..8u32 {
                for port in [23u16, 80] {
                    let (p, i) = syn(t + u64::from(src), src, src * 3 + t as u32, port);
                    whole.observe(&p, ScanClass::TcpSyn, i);
                    parts[(src % 2) as usize].observe(&p, ScanClass::TcpSyn, i);
                }
            }
        }
        let mut merged = parts[0].flush();
        merged.extend(parts[1].flush());
        sort_canonical(&mut merged);
        assert_eq!(merged, whole.flush());
    }

    #[test]
    fn sort_canonical_is_a_stable_sort_by_key() {
        // Keys from a small space, so runs share keys; `packets` numbers
        // the events, so a reordering within a key shows. Inputs are 0 to
        // 40 canonical runs end to end, then a shuffle.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let event = |packets: u32, r: u64| DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4((r % 7) as u32),
                dst_port: (r >> 8) as u16 % 3,
                class: ScanClass::ALL[(r >> 16) as usize % 3],
            },
            start_day: 0,
            end_day: 0,
            packets,
            unique_dsts: 1,
            zmap: 0,
            masscan: 0,
        };
        let mut id = 0;
        for runs in (0..=40).chain([usize::MAX]) {
            let mut events: Vec<DarknetEvent> = Vec::new();
            for _ in 0..runs.min(400) {
                let mut run: Vec<_> = (0..next() % 30)
                    .map(|_| {
                        id += 1;
                        event(id, next())
                    })
                    .collect();
                if runs != usize::MAX {
                    run.sort_by_key(|e| e.key);
                }
                events.extend(run);
            }
            let mut want = events.clone();
            want.sort_by_key(|e| e.key);
            sort_canonical(&mut events);
            assert_eq!(events, want, "{runs} runs");
        }
    }

    #[test]
    fn distinct_ports_are_distinct_events() {
        let mut a = agg();
        for port in [22u16, 23, 6379] {
            let (p, idx) = syn(1, 1, 5, port);
            a.observe(&p, ScanClass::TcpSyn, idx);
        }
        let evs = a.flush();
        assert_eq!(evs.len(), 3);
    }

    #[test]
    fn distinct_classes_are_distinct_events() {
        let mut a = agg();
        let src = Ipv4Addr4::new(10, 0, 0, 1);
        let dst = Ipv4Addr4::new(192, 0, 2, 1);
        let t = PacketMeta::tcp_syn(Ts::from_secs(1), src, dst, 1, 53);
        let u = PacketMeta::udp_probe(Ts::from_secs(1), src, dst, 1, 53);
        a.observe(&t, ScanClass::TcpSyn, 0);
        a.observe(&u, ScanClass::Udp, 0);
        assert_eq!(a.flush().len(), 2);
    }

    #[test]
    fn timeout_splits_events() {
        let mut a = agg();
        let (p1, i1) = syn(0, 1, 0, 23);
        a.observe(&p1, ScanClass::TcpSyn, i1);
        // 601 seconds later: beyond the 600s timeout.
        let (p2, i2) = syn(601, 1, 1, 23);
        a.observe(&p2, ScanClass::TcpSyn, i2);
        let evs = a.flush();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.packets == 1));
    }

    #[test]
    fn gap_at_exactly_timeout_does_not_split() {
        let mut a = agg();
        let (p1, i1) = syn(0, 1, 0, 23);
        let (p2, i2) = syn(600, 1, 1, 23);
        a.observe(&p1, ScanClass::TcpSyn, i1);
        a.observe(&p2, ScanClass::TcpSyn, i2);
        let evs = a.flush();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].packets, 2);
    }

    #[test]
    fn advance_expires_idle_events() {
        let mut a = agg();
        let (p, i) = syn(0, 1, 0, 23);
        a.observe(&p, ScanClass::TcpSyn, i);
        assert_eq!(a.active_count(), 1);
        // Timed expiry carries reorder-window slack: timeout (600s) plus
        // window (300s) must elapse before a sweep closes the event.
        a.advance(Ts::from_secs(601));
        assert_eq!(a.active_count(), 1, "within the slack: not yet expired");
        a.advance(Ts::from_secs(901));
        assert_eq!(a.active_count(), 0);
        assert_eq!(a.completed.len(), 1);
    }

    #[test]
    fn repeated_dst_counts_once() {
        let mut a = agg();
        for t in 0..5 {
            let (p, i) = syn(t, 1, 7, 23);
            a.observe(&p, ScanClass::TcpSyn, i);
        }
        let evs = a.flush();
        assert_eq!(evs[0].packets, 5);
        assert_eq!(evs[0].unique_dsts, 1);
    }

    #[test]
    fn tool_attribution_counted() {
        let mut a = agg();
        let (mut p, i) = syn(0, 1, 0, 23);
        p.ip_id = ah_net::fingerprint::ZMAP_IP_ID;
        a.observe(&p, ScanClass::TcpSyn, i);
        let (p2, i2) = syn(1, 1, 1, 23);
        a.observe(&p2, ScanClass::TcpSyn, i2);
        let evs = a.flush();
        assert_eq!((evs[0].zmap, evs[0].masscan, evs[0].other_packets()), (1, 0, 1));
    }

    #[test]
    fn implicit_sweep_bounds_active_map() {
        // Sources that appear once and go silent must be evicted by the
        // implicit sweep as time advances, even without explicit advance().
        let mut a = agg();
        for s in 0..1000u32 {
            let (p, i) = syn(u64::from(s) * 10, s, 0, 23);
            a.observe(&p, ScanClass::TcpSyn, i);
        }
        // By t=9990s, sources idle past timeout + reorder_window (900s)
        // at the last implicit sweep are expired; only the most recent
        // ~100s of sources (plus one sweep period of drift) survive.
        assert!(a.active_count() < 150, "active map not swept: {}", a.active_count());
    }

    #[test]
    fn late_packet_within_window_repairs_event_start() {
        // Default reorder window is timeout/2 = 300s. The event's newest
        // packet is 100s into day 1; the late one, 150s behind it, falls on
        // day 0, so the repaired start shows in the start day.
        let mut a = agg();
        let day1 = 86_400;
        let (p1, i1) = syn(day1 + 100, 1, 0, 23);
        a.observe(&p1, ScanClass::TcpSyn, i1);
        let (p2, i2) = syn(day1 - 50, 1, 1, 23);
        a.observe(&p2, ScanClass::TcpSyn, i2);
        let stats = a.stats();
        assert_eq!(stats.start_repaired, 1);
        assert_eq!(stats.quarantined, 0);
        let evs = a.flush();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].start_day, evs[0].end_day), (0, 1));
        assert_eq!(evs[0].packets, 2);
    }

    #[test]
    fn packet_beyond_reorder_window_is_quarantined() {
        let mut a = agg();
        let (p1, i1) = syn(1000, 1, 0, 23);
        a.observe(&p1, ScanClass::TcpSyn, i1);
        let (p2, i2) = syn(100, 1, 1, 23); // 900s late > 300s window
        a.observe(&p2, ScanClass::TcpSyn, i2);
        let stats = a.stats();
        assert_eq!(stats.received, 2);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.received, stats.accepted + stats.quarantined);
        let evs = a.flush();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].packets, 1);
    }

    #[test]
    fn custom_reorder_window_is_honored() {
        let mut a =
            EventAggregator::with_reorder_window(DARK, Dur::from_mins(10), Dur::from_secs(10));
        let (p1, i1) = syn(100, 1, 0, 23);
        let (p2, i2) = syn(85, 1, 1, 23); // 15s late > 10s window
        a.observe(&p1, ScanClass::TcpSyn, i1);
        a.observe(&p2, ScanClass::TcpSyn, i2);
        assert_eq!(a.stats().quarantined, 1);
    }

    #[test]
    fn stats_conserve_over_mixed_stream() {
        let mut a = agg();
        // In-order, slightly late, and wildly late packets interleaved.
        let times = [0u64, 10, 5, 20, 700, 650, 10, 705];
        for (k, t) in times.iter().enumerate() {
            let (p, i) = syn(*t, 1, k as u32, 23);
            a.observe(&p, ScanClass::TcpSyn, i);
        }
        let s = a.stats();
        assert_eq!(s.received, times.len() as u64);
        assert_eq!(s.received, s.accepted + s.quarantined);
        assert!(s.quarantined >= 1); // the t=10 packet 690s behind its event's last (700)
        let total_pkts: u64 = a.flush().iter().map(|e| u64::from(e.packets)).sum();
        assert_eq!(total_pkts, s.accepted);
    }
}
