//! The flow cache: sampled packets in, flow records out.
//!
//! Mirrors router behaviour: a keyed cache where entries are exported
//! when idle past the *inactive timeout*, when they live past the
//! *active timeout* (long flows are chopped so collectors see them
//! periodically), or when the trace ends.
//!
//! The cache is robust to the two impairments mirror ports actually
//! produce: *exact duplicates* (same timestamp, IP ID and length as the
//! packet just accounted to the flow) are suppressed and counted rather
//! than double-billed, and *reordered* packets merge into their flow
//! without splitting it — a packet older than the flow's recorded start
//! repairs `first` backwards. All of it is tallied in [`CacheStats`].
//!
//! Every merge/cut/duplicate decision — including the lateness verdict
//! — depends only on the packet and its own flow entry, never on a
//! cache-global clock; timed sweeps only expire entries that no future
//! packet could merge into (see `FlowCache::sweep`). Together these
//! make the exported record multiset identical whether the cache sees
//! the full sampled stream or any source-partitioned substream of it —
//! the invariant the sharded parallel pipeline rides on
//! (`ARCHITECTURE.md` §11).

use crate::record::{FlowKey, FlowRecord};
use crate::router::Direction;
use ah_net::hash::FastMap;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::time::{Dur, Ts};

/// Cisco-style default active timeout: a long-lived flow is cut and
/// exported every 30 minutes even while packets keep arriving.
pub(crate) const DEFAULT_ACTIVE_TIMEOUT: Dur = Dur::from_mins(30);
/// Cisco-style default inactive timeout: a flow idle for 15 seconds is
/// expired at the next sweep.
pub(crate) const DEFAULT_INACTIVE_TIMEOUT: Dur = Dur::from_secs(15);

/// Input-fate counters for one flow cache, plus its housekeeping: sweeps,
/// evictions, the entry map's high-water mark, the records it holds.
///
/// Conservation: `received == accepted + duplicates_suppressed`;
/// `first_repaired` is a subset of `accepted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sampled packets offered via `observe`.
    pub received: u64,
    /// Packets accounted to a flow entry.
    pub accepted: u64,
    /// Exact duplicates of the previous packet in their flow, suppressed.
    pub duplicates_suppressed: u64,
    /// Accepted packets that moved a flow's `first` timestamp earlier.
    pub first_repaired: u64,
    /// Expiry sweeps run.
    pub sweeps: u64,
    /// Idle entries those sweeps exported.
    pub evicted: u64,
    /// Most flows ever active at once.
    pub active_hwm: u64,
    /// Records cut and held for [`FlowCache::flush`] when read.
    pub cut: u64,
}

impl CacheStats {
    /// Fold another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.received += other.received;
        self.accepted += other.accepted;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.first_repaired += other.first_repaired;
        self.sweeps += other.sweeps;
        self.evicted += other.evicted;
        self.active_hwm = self.active_hwm.max(other.active_hwm);
        self.cut += other.cut;
    }

    /// The conservation identity.
    #[cfg(test)]
    pub(crate) fn conserves(&self) -> bool {
        self.received == self.accepted + self.duplicates_suppressed
    }
}

/// Identity of the last packet accounted to a flow, used to recognize
/// exact mirror-port duplicates.
type PacketSig = (Ts, u16, u16);

struct Entry {
    first: Ts,
    last: Ts,
    packets: u64,
    bytes: u64,
    tcp_flags: u8,
    direction: Direction,
    last_sig: PacketSig,
}

/// A per-router flow cache.
pub struct FlowCache {
    router: u8,
    active_timeout: Dur,
    inactive_timeout: Dur,
    entries: FastMap<FlowKey, Entry>,
    exported: Vec<FlowRecord>,
    last_sweep: Ts,
    /// Newest packet timestamp seen so far. Content-neutral: drives only
    /// the sweep schedule, never a per-flow decision.
    watermark: Ts,
    stats: CacheStats,
}

impl FlowCache {
    /// A cache for `router` with the default timeouts.
    pub fn new(router: u8) -> FlowCache {
        FlowCache::with_timeouts(router, DEFAULT_ACTIVE_TIMEOUT, DEFAULT_INACTIVE_TIMEOUT)
    }

    /// A cache with explicit timeouts.
    pub(crate) fn with_timeouts(router: u8, active: Dur, inactive: Dur) -> FlowCache {
        FlowCache {
            router,
            active_timeout: active,
            inactive_timeout: inactive,
            entries: FastMap::default(),
            exported: Vec::new(),
            last_sweep: Ts::ZERO,
            watermark: Ts::ZERO,
            stats: CacheStats::default(),
        }
    }

    /// Input-fate counters (duplicate/reorder accounting).
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats { cut: self.exported.len() as u64, ..self.stats }
    }

    /// Account one *sampled* packet: sweep first if its timestamp makes a
    /// sweep due, then [`FlowCache::merge`] it.
    pub fn observe(&mut self, pkt: &PacketMeta, direction: Direction) {
        self.watermark = self.watermark.max(pkt.ts);
        if let Some(now) = self.sweep_due() {
            self.sweep(now);
        }
        self.merge(pkt, direction);
    }

    /// Account one *sampled* packet, without sweeping. Exact duplicates of the
    /// previous packet in their flow are suppressed; reordered packets merge
    /// into their flow (repairing `first` if needed) instead of splitting it.
    ///
    /// The verdict depends only on the packet and its own flow entry —
    /// lateness is judged against the *entry's* newest timestamp — so
    /// the outcome is identical whether the full sampled stream or any
    /// source-partitioned substream is fed.
    pub fn merge(&mut self, pkt: &PacketMeta, direction: Direction) {
        self.watermark = self.watermark.max(pkt.ts);
        self.stats.received += 1;
        let key = FlowKey::of(pkt);
        let flags = match pkt.transport {
            Transport::Tcp { flags, .. } => flags.0,
            _ => 0,
        };
        let sig: PacketSig = (pkt.ts, pkt.ip_id, pkt.wire_len);
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().last_sig == sig && e.get().direction == direction {
                    self.stats.duplicates_suppressed += 1;
                    return;
                }
                self.stats.accepted += 1;
                let needs_cut = {
                    let en = e.get();
                    pkt.ts.since(en.last) > self.inactive_timeout
                        || pkt.ts.since(en.first) > self.active_timeout
                        || en.direction != direction
                };
                if needs_cut {
                    let (k, en) = (key, e.remove());
                    self.exported.push(Self::export(self.router, k, en));
                    self.entries.insert(key, Self::fresh(pkt, flags, direction, sig));
                } else {
                    let en = e.get_mut();
                    if pkt.ts < en.first {
                        en.first = pkt.ts;
                        self.stats.first_repaired += 1;
                    }
                    en.last = en.last.max(pkt.ts);
                    en.packets += 1;
                    en.bytes += u64::from(pkt.wire_len);
                    en.tcp_flags |= flags;
                    en.last_sig = sig;
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.stats.accepted += 1;
                v.insert(Self::fresh(pkt, flags, direction, sig));
                // Only a new key grows the map, so the mark is exact.
                self.stats.active_hwm = self.stats.active_hwm.max(self.entries.len() as u64);
            }
        }
    }

    fn fresh(pkt: &PacketMeta, flags: u8, direction: Direction, sig: PacketSig) -> Entry {
        Entry {
            first: pkt.ts,
            last: pkt.ts,
            packets: 1,
            bytes: u64::from(pkt.wire_len),
            tcp_flags: flags,
            direction,
            last_sig: sig,
        }
    }

    fn export(router: u8, key: FlowKey, e: Entry) -> FlowRecord {
        FlowRecord {
            key,
            router,
            direction: e.direction,
            first: e.first,
            last: e.last,
            packets: e.packets,
            bytes: e.bytes,
            tcp_flags: e.tcp_flags,
        }
    }

    /// The watermark, once it is an inactive timeout past the last sweep: a
    /// sweep is due there. A late packet never rewinds the schedule.
    pub fn sweep_due(&self) -> Option<Ts> {
        (self.watermark.since(self.last_sweep) >= self.inactive_timeout).then_some(self.watermark)
    }

    /// Export all entries idle past the inactive timeout — plus one
    /// extra inactive timeout of slack — as of `now`.
    ///
    /// The slack makes timed expiry *content-neutral*: an entry is only
    /// exported once every packet that could still reach it (per-flow
    /// disorder bounded by the inactive timeout) would trigger the
    /// per-packet inactive cut and start a fresh entry anyway. Sweeping
    /// on different schedules therefore changes when records are
    /// exported, never their contents. Active-timeout chops are applied
    /// per-packet in [`FlowCache::merge`] (a pure per-flow decision),
    /// not here, for the same reason.
    pub fn sweep(&mut self, now: Ts) {
        self.stats.sweeps += 1;
        self.last_sweep = now;
        let expire_after = Dur(self.inactive_timeout.0 * 2);
        let expired: Vec<FlowKey> = self
            .entries
            .iter()
            .filter(|(_, e)| now.since(e.last) > expire_after)
            .map(|(k, _)| *k)
            .collect();
        for k in expired {
            if let Some(e) = self.entries.remove(&k) {
                self.exported.push(Self::export(self.router, k, e));
                self.stats.evicted += 1;
            }
        }
    }

    /// Export everything remaining (end of trace) and drain.
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let router = self.router;
        let mut out = std::mem::take(&mut self.exported);
        for (k, e) in self.entries.drain() {
            out.push(Self::export(router, k, e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::ipv4::Ipv4Addr4;

    const S: Ipv4Addr4 = Ipv4Addr4::new(203, 0, 113, 1);
    const D: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 1);

    fn pkt(ts_s: u64, dport: u16) -> PacketMeta {
        PacketMeta::tcp_syn(Ts::from_secs(ts_s), S, D, 40000, dport)
    }

    #[test]
    fn packets_aggregate_into_one_flow() {
        let mut c = FlowCache::new(1);
        for t in 0..5 {
            c.observe(&pkt(t, 80), Direction::Ingress);
        }
        let recs = c.flush();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.packets, 5);
        assert_eq!(r.bytes, 200);
        assert_eq!(r.first, Ts::from_secs(0));
        assert_eq!(r.last, Ts::from_secs(4));
        assert_eq!(r.router, 1);
        assert_eq!(r.tcp_flags, 0x02);
    }

    #[test]
    fn inactive_timeout_splits() {
        let mut c = FlowCache::new(1);
        c.observe(&pkt(0, 80), Direction::Ingress);
        c.observe(&pkt(16, 80), Direction::Ingress); // > 15s idle
        let recs = c.flush();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn active_timeout_chops_long_flows() {
        let mut c = FlowCache::new(1);
        // A packet every 10s for 35 minutes: inactive never fires, active does.
        for t in (0..2100).step_by(10) {
            c.observe(&pkt(t, 80), Direction::Ingress);
        }
        let recs = c.flush();
        assert!(recs.len() >= 2, "long flow was not chopped: {}", recs.len());
        let total: u64 = recs.iter().map(|r| r.packets).sum();
        assert_eq!(total, 210, "packets must be conserved across chops");
    }

    #[test]
    fn distinct_tuples_are_distinct_flows() {
        let mut c = FlowCache::new(2);
        c.observe(&pkt(0, 80), Direction::Ingress);
        c.observe(&pkt(0, 443), Direction::Ingress);
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.flush().len(), 2);
    }

    #[test]
    fn direction_change_splits_flow() {
        // Same 5-tuple seen in both directions (rare, but must not merge).
        let mut c = FlowCache::new(1);
        c.observe(&pkt(0, 80), Direction::Ingress);
        c.observe(&pkt(1, 80), Direction::Egress);
        let recs = c.flush();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn sweep_exports_idle_flows() {
        let mut c = FlowCache::new(1);
        c.observe(&pkt(0, 80), Direction::Ingress);
        c.sweep(Ts::from_secs(100));
        assert!(c.entries.is_empty());
        assert_eq!(c.exported.len(), 1);
        assert_eq!(c.flush().len(), 1);
    }

    #[test]
    fn exact_duplicates_are_suppressed() {
        let mut c = FlowCache::new(1);
        let p = pkt(1, 80);
        c.observe(&p, Direction::Ingress);
        c.observe(&p, Direction::Ingress); // mirror-port duplicate
        c.observe(&p, Direction::Ingress);
        let s = c.stats();
        assert_eq!(s.received, 3);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.duplicates_suppressed, 2);
        assert!(s.conserves());
        let recs = c.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].packets, 1, "duplicates must not be double-billed");
        assert_eq!(recs[0].bytes, 40);
    }

    #[test]
    fn retransmission_with_new_ip_id_is_not_a_duplicate() {
        let mut c = FlowCache::new(1);
        let p1 = pkt(1, 80);
        let mut p2 = pkt(1, 80);
        p2.ip_id = p1.ip_id.wrapping_add(1); // genuine retransmission
        c.observe(&p1, Direction::Ingress);
        c.observe(&p2, Direction::Ingress);
        assert_eq!(c.stats().duplicates_suppressed, 0);
        assert_eq!(c.flush()[0].packets, 2);
    }

    #[test]
    fn reordered_packet_merges_and_repairs_first() {
        let mut c = FlowCache::new(1);
        c.observe(&pkt(10, 80), Direction::Ingress);
        c.observe(&pkt(5, 80), Direction::Ingress); // arrives late
        let s = c.stats();
        assert_eq!(s.first_repaired, 1);
        let recs = c.flush();
        assert_eq!(recs.len(), 1, "reordering must not split the flow");
        assert_eq!(recs[0].first, Ts::from_secs(5));
        assert_eq!(recs[0].last, Ts::from_secs(10));
        assert_eq!(recs[0].packets, 2);
    }

    #[test]
    fn stats_conserve_under_mixed_input() {
        let mut c = FlowCache::new(1);
        let p = pkt(0, 80);
        c.observe(&p, Direction::Ingress);
        c.observe(&p, Direction::Ingress); // duplicate
        c.observe(&pkt(3, 443), Direction::Ingress);
        c.observe(&pkt(1, 80), Direction::Ingress); // late
        c.observe(&pkt(30, 80), Direction::Ingress); // inactive split
        let s = c.stats();
        assert_eq!(s.received, 5);
        assert!(s.conserves());
        let total: u64 = c.flush().iter().map(|r| r.packets).sum();
        assert_eq!(total, s.accepted, "every accepted packet lands in a record");
    }

    #[test]
    fn tcp_flags_accumulate() {
        let mut c = FlowCache::new(1);
        let mut p1 = pkt(0, 80);
        let mut p2 = pkt(1, 80);
        if let Transport::Tcp { ref mut flags, .. } = p1.transport {
            *flags = ah_net::tcp::TcpFlags::SYN;
        }
        if let Transport::Tcp { ref mut flags, .. } = p2.transport {
            *flags = ah_net::tcp::TcpFlags::ACK;
        }
        c.observe(&p1, Direction::Ingress);
        c.observe(&p2, Direction::Ingress);
        let recs = c.flush();
        assert_eq!(recs[0].tcp_flags, 0x12);
    }
}
