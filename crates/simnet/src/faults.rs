//! Seeded fault injection between the traffic mux and its consumers.
//!
//! Real measurement pipelines never see the pristine packet stream the
//! simulator produces: capture drops under load, mirror ports duplicate,
//! multi-path delivery reorders, and hardware occasionally truncates or
//! corrupts frames. This module injects exactly those impairments —
//! deterministically, from a seed — so experiments can quantify how
//! gracefully the telescope/flow/intel consumers degrade
//! (`tests/chaos.rs` at the workspace root drives the full pipeline
//! through increasing fault rates).
//!
//! Byte-level faults (truncation, bit flips) go through the real wire
//! path: the packet is serialized with [`PacketMeta::to_bytes`], mutated,
//! and re-parsed with [`PacketMeta::parse_ip`] — so the "parsers are
//! total" guarantee of `ah-net` is exercised end to end, and a corrupted
//! packet is delivered downstream only if a real capture stack would have
//! accepted those bytes.
//!
//! Every packet's fate is counted in [`InjectorStats`], which after
//! [`FaultInjector::flush`] satisfies the conservation identity
//! `input + duplicated == delivered + dropped + outage_dropped +
//! truncated_discarded + corrupt_discarded`: nothing is ever silently
//! lost or invented.
//!
//! # Counter-based per-source decision streams
//!
//! Fault decisions are **not** drawn from one global RNG sequence in
//! arrival order. Each offered packet gets its own decision RNG, seeded
//! as a pure function of `(plan.seed, source IP, per-source packet
//! counter)` — see `packet_decision_seed`. Packet *k* of source *S*
//! therefore suffers exactly the same fate no matter which packets from
//! *other* sources surround it. That is what lets every execution unit
//! of the pipeline — the inline one, or each shard over its per-source
//! substream — own its injector and still reproduce the serial run bit
//! for bit: the union of the shard decisions *is* the serial decision set
//! (`ARCHITECTURE.md` §11). A journaled run is no exception: its log
//! holds the stream *before* injection, and a replay or resume injects
//! again from the same plan — so the injector is total on any timestamp
//! a log file can hold.
//! Burst outages are a pure function of the packet timestamp, and the
//! reorder hold-back heap releases a held packet relative to its own
//! source's later packets, so per-source delivered order is identical
//! in every sharding.

use crate::rng::{hash64, Rng64};
use ah_mem::Tag;
use ah_net::hash::FastMap;
use ah_net::packet::{PacketMeta, Transport};
use ah_net::time::{Dur, Ts};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Per-category fault rates and parameters. All rates are per-packet
/// probabilities in `[0, 1]`; categories are drawn independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a packet is silently dropped (capture loss).
    pub drop: f64,
    /// Probability a packet is delivered twice (mirror duplication).
    pub duplicate: f64,
    /// Probability a packet is held back and delivered out of order.
    pub reorder: f64,
    /// Maximum delivery delay for reordered packets; the consumer-visible
    /// timestamp skew is bounded by this.
    pub max_skew: Dur,
    /// Probability the packet's bytes are truncated at a random offset
    /// (snaplen/framing faults). Truncated packets that no longer parse
    /// are discarded, as a capture stack would.
    pub truncate: f64,
    /// Probability a single random bit of the packet's bytes is flipped.
    /// Flips that break the IP header checksum are discarded; flips the
    /// wire would accept are delivered corrupted.
    pub bitflip: f64,
    /// Probability the packet's payload is stripped to a bare header
    /// (zero-length payload capture).
    pub zero_payload: f64,
    /// Period of recurring burst outages; `Dur::ZERO` disables them.
    pub outage_period: Dur,
    /// Length of each outage window (every packet inside is dropped).
    pub outage_len: Dur,
    /// Seed for all fault decisions.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults at all — the injector becomes a pass-through.
    pub fn clean() -> FaultPlan {
        FaultPlan {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            max_skew: Dur::ZERO,
            truncate: 0.0,
            bitflip: 0.0,
            zero_payload: 0.0,
            outage_period: Dur::ZERO,
            outage_len: Dur::ZERO,
            seed: 0,
        }
    }

    /// Every per-packet category at the same `rate`, with a 2-second
    /// reorder bound and no outages — the standard chaos-test plan.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            drop: rate,
            duplicate: rate,
            reorder: rate,
            max_skew: Dur::from_secs(2),
            truncate: rate,
            bitflip: rate,
            zero_payload: rate,
            outage_period: Dur::ZERO,
            outage_len: Dur::ZERO,
            seed,
        }
    }

    /// Add recurring burst outages to a plan.
    pub fn with_outage(mut self, period: Dur, len: Dur) -> FaultPlan {
        self.outage_period = period;
        self.outage_len = len;
        self
    }
}

/// Counters over every packet offered to a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorStats {
    /// Packets offered by the mux.
    pub input: u64,
    /// Packets handed to the consumer (including duplicates and packets
    /// delivered mutated).
    pub delivered: u64,
    /// Packets dropped by the `drop` category.
    pub dropped: u64,
    /// Extra copies created by the `duplicate` category.
    pub duplicated: u64,
    /// Packets dropped inside an outage window.
    pub outage_dropped: u64,
    /// Truncated packets whose bytes no longer parsed.
    pub truncated_discarded: u64,
    /// Bit-flipped packets whose bytes no longer parsed.
    pub corrupt_discarded: u64,
    /// Packets delayed for out-of-order delivery (subset of `delivered`).
    pub reordered: u64,
    /// Bit-flipped packets that still parsed and were delivered (subset
    /// of `delivered`).
    pub corrupted_delivered: u64,
    /// Packets delivered with their payload stripped (subset of
    /// `delivered`).
    pub zero_payload: u64,
}

impl InjectorStats {
    /// The conservation identity: every input packet (plus every created
    /// duplicate) is either delivered or counted in exactly one discard
    /// category. Holds after [`FaultInjector::flush`]; while packets are
    /// still held for reordering, add [`FaultInjector::pending`] to the
    /// right-hand side.
    #[cfg(test)]
    pub(crate) fn conserves(&self) -> bool {
        self.input + self.duplicated
            == self.delivered
                + self.dropped
                + self.outage_dropped
                + self.truncated_discarded
                + self.corrupt_discarded
    }

    /// Total packets lost to any discard category.
    pub fn total_discarded(&self) -> u64 {
        self.dropped + self.outage_dropped + self.truncated_discarded + self.corrupt_discarded
    }

    /// Fold another injector's counters into this one. Because every
    /// field is a plain per-packet tally, per-shard stats summed across
    /// shards equal the serial injector's stats exactly — the parallel
    /// engine's `faults.injector` health ledger is built this way.
    pub fn merge(&mut self, other: &InjectorStats) {
        self.input += other.input;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.outage_dropped += other.outage_dropped;
        self.truncated_discarded += other.truncated_discarded;
        self.corrupt_discarded += other.corrupt_discarded;
        self.reordered += other.reordered;
        self.corrupted_delivered += other.corrupted_delivered;
        self.zero_payload += other.zero_payload;
    }
}

/// The decision-RNG seed for packet number `n` (0-based) of source
/// `src` under `plan_seed`: a chained splitmix mix, so the stream is a
/// pure function of `(plan_seed, src, n)` and nothing else. Public so
/// tests (and the documentation) can state the derivation exactly.
pub(crate) fn packet_decision_seed(plan_seed: u64, src: u32, n: u64) -> u64 {
    hash64(hash64(hash64(plan_seed ^ 0xfa17_1e57) ^ u64::from(src)) ^ n)
}

/// A packet held back for out-of-order delivery.
struct Held {
    release: Ts,
    seq: u64,
    pkt: PacketMeta,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.seq) == (other.release, other.seq)
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

/// Applies a [`FaultPlan`] to a time-ordered packet stream.
///
/// Sits between [`crate::mux::TrafficMux`] and the consumers: call
/// [`FaultInjector::apply`] with each mux packet and a delivery callback,
/// then [`FaultInjector::flush`] at end of stream to release any packets
/// still held for reordering.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-source offered-packet counters: how many packets of each
    /// source have reached the decision point, feeding
    /// [`packet_decision_seed`].
    counters: FastMap<u32, u64>,
    held: BinaryHeap<Reverse<Held>>,
    seq: u64,
    /// Phase offset of the outage schedule, derived from the seed.
    outage_phase: u64,
    stats: InjectorStats,
    /// Trace handle for journey-fate instants; noop unless attached via
    /// [`FaultInjector::set_tracer`]. Observation-only: the tracer draws
    /// nothing from the decision RNGs and no verdict depends on it.
    tracer: ah_trace::Tracer,
}

impl FaultInjector {
    /// An injector executing `plan`, deterministically from its seed.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let outage_phase = if plan.outage_period.0 > 0 {
            hash64(plan.seed ^ 0x6f75_7461_6765) % plan.outage_period.0
        } else {
            0
        };
        FaultInjector {
            plan,
            counters: FastMap::default(),
            held: BinaryHeap::new(),
            seq: 0,
            outage_phase,
            stats: InjectorStats::default(),
            tracer: ah_trace::Tracer::noop(),
        }
    }

    /// Attach a tracer: sampled packet journeys (`Tracer::journey_id`)
    /// get an `ah_simnet_faults_*` instant whenever a fault verdict
    /// alters their fate (drop, outage, duplicate, reorder, discard).
    /// Observation-only — verdicts and delivery order are unchanged.
    pub fn set_tracer(&mut self, tracer: &ah_trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Counters so far.
    pub fn stats(&self) -> InjectorStats {
        self.stats
    }

    /// Packets currently held for reordering.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> u64 {
        self.held.len() as u64
    }

    fn in_outage(&self, ts: Ts) -> bool {
        let period = self.plan.outage_period.0;
        if period == 0 || self.plan.outage_len.0 == 0 {
            return false;
        }
        ts.0.saturating_add(period - self.outage_phase) % period < self.plan.outage_len.0
    }

    fn deliver(&mut self, pkt: &PacketMeta, emit: &mut impl FnMut(&PacketMeta)) {
        self.stats.delivered += 1;
        emit(pkt);
    }

    /// Release packets whose delivery point has been reached.
    fn release_until(&mut self, now: Ts, emit: &mut impl FnMut(&PacketMeta)) {
        while let Some(Reverse(top)) = self.held.peek() {
            if top.release > now {
                break;
            }
            let Some(Reverse(h)) = self.held.pop() else { break };
            self.deliver(&h.pkt, emit);
        }
    }

    /// Apply byte-level mutations; returns the packet to deliver, or
    /// `None` when the mutated bytes no longer parse. `rng` is the
    /// packet's own decision stream.
    fn mutate(&mut self, rng: &mut Rng64, pkt: &PacketMeta, journey: u64) -> Option<PacketMeta> {
        if rng.chance(self.plan.truncate) {
            let bytes = pkt.to_bytes();
            let cut = rng.range(1, bytes.len().max(2) as u64) as usize;
            match PacketMeta::parse_ip(&bytes[..cut], pkt.ts) {
                Ok(p) => return Some(p),
                Err(_) => {
                    self.stats.truncated_discarded += 1;
                    if journey != 0 {
                        self.tracer.journey_instant("ah_simnet_faults_discard", journey);
                    }
                    return None;
                }
            }
        }
        if rng.chance(self.plan.bitflip) {
            let mut bytes = pkt.to_bytes();
            let bit = rng.below((bytes.len() as u64) * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            match PacketMeta::parse_ip(&bytes, pkt.ts) {
                Ok(p) => {
                    self.stats.corrupted_delivered += 1;
                    return Some(p);
                }
                Err(_) => {
                    self.stats.corrupt_discarded += 1;
                    if journey != 0 {
                        self.tracer.journey_instant("ah_simnet_faults_discard", journey);
                    }
                    return None;
                }
            }
        }
        if rng.chance(self.plan.zero_payload) {
            let header_only: u16 = match pkt.transport {
                Transport::Tcp { .. } => 40,
                Transport::Udp { .. } | Transport::Icmp { .. } => 28,
                Transport::Other { .. } => 20,
            };
            if pkt.wire_len > header_only {
                self.stats.zero_payload += 1;
                let mut p = *pkt;
                p.wire_len = header_only;
                return Some(p);
            }
        }
        Some(*pkt)
    }

    /// Offer one mux packet; `emit` receives everything delivered at this
    /// point in the stream (held packets whose time has come, then this
    /// packet's surviving copies).
    ///
    /// Every random decision for this packet — drop, duplicate, the
    /// per-copy mutations, reorder and skew — is drawn, in a fixed
    /// order, from a fresh [`Rng64`] seeded by `packet_decision_seed`
    /// from `(plan.seed, pkt.src, per-source counter)`. The fate of a
    /// packet is therefore independent of what other sources did,
    /// which is the property the sharded engine relies on.
    pub fn apply(&mut self, pkt: &PacketMeta, emit: &mut impl FnMut(&PacketMeta)) {
        self.stats.input += 1;
        self.release_until(pkt.ts, emit);
        // Journey tag for trace instants only: a pure hash of the source
        // (no RNG draws), zero when tracing is off or unsampled.
        let journey = self.tracer.journey_id(pkt.src.to_u32());
        if self.in_outage(pkt.ts) {
            self.stats.outage_dropped += 1;
            if journey != 0 {
                self.tracer.journey_instant("ah_simnet_faults_outage", journey);
            }
            return;
        }
        // The per-source decision counters are the injector's own
        // state; the `emit` delivery path re-tags downstream. Manual
        // tag swap on the per-packet path (see `ah_mem::tag_swap`).
        let n = {
            let prev = ah_mem::tag_swap(Tag::Mux);
            let n = self.counters.entry(pkt.src.to_u32()).or_insert(0);
            ah_mem::tag_restore(prev);
            n
        };
        let draw = *n;
        *n += 1;
        let mut rng = Rng64::new(packet_decision_seed(self.plan.seed, pkt.src.to_u32(), draw));
        if rng.chance(self.plan.drop) {
            self.stats.dropped += 1;
            if journey != 0 {
                self.tracer.journey_instant("ah_simnet_faults_drop", journey);
            }
            return;
        }
        let mut copies = 1;
        if rng.chance(self.plan.duplicate) {
            self.stats.duplicated += 1;
            if journey != 0 {
                self.tracer.journey_instant("ah_simnet_faults_duplicate", journey);
            }
            copies = 2;
        }
        for _ in 0..copies {
            let Some(out) = self.mutate(&mut rng, pkt, journey) else { continue };
            if self.plan.max_skew.0 > 0 && rng.chance(self.plan.reorder) {
                self.stats.reordered += 1;
                if journey != 0 {
                    self.tracer.journey_instant("ah_simnet_faults_reorder", journey);
                }
                let skew = Dur(rng.range(1, self.plan.max_skew.0 + 1));
                self.seq += 1;
                // The reorder buffer belongs to the injector, not to
                // whatever stage the delivery callback runs next.
                let prev = ah_mem::tag_swap(Tag::Mux);
                let release = Ts(pkt.ts.0.saturating_add(skew.0));
                self.held.push(Reverse(Held { release, seq: self.seq, pkt: out }));
                ah_mem::tag_restore(prev);
            } else {
                self.deliver(&out, emit);
            }
        }
    }

    /// End of stream: deliver every packet still held for reordering.
    pub fn flush(&mut self, emit: &mut impl FnMut(&PacketMeta)) {
        while let Some(Reverse(h)) = self.held.pop() {
            self.deliver(&h.pkt, emit);
        }
    }
}

// --- Storage faults ----------------------------------------------------

/// What kind of at-rest damage to inflict on a durable store.
///
/// These model the failure modes a write-ahead log must survive: a
/// power cut mid-write (torn final frame), a filesystem that lost a
/// chunk of the tail, and silent media corruption (bit rot). The plan
/// operates on raw files — it knows nothing about frame formats, so it
/// composes with any log layout (the chaos suite points it at `ah-wal`
/// directories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Cut 1–15 bytes off the newest data file: less than a frame
    /// header, so the file is guaranteed to end mid-frame.
    TornFinalWrite,
    /// Cut the newest data file back to a seeded point anywhere past its
    /// file header — typically destroying many trailing frames.
    TruncatedTail,
    /// Flip one seeded bit in the body of a seeded data file.
    BitFlipMidSegment,
}

/// A seeded at-rest storage fault. Same seed + same files = same damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultPlan {
    /// The damage to inflict.
    kind: StorageFaultKind,
    /// Determinism seed for target/offset selection.
    seed: u64,
}

/// What [`StorageFaultPlan::apply`] actually did, for assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFaultReport {
    /// The file that was damaged.
    path: PathBuf,
    /// Bytes removed from the tail (truncation kinds).
    bytes_removed: u64,
    /// Absolute bit index flipped, when the kind flips a bit.
    pub bit_flipped: Option<u64>,
}

/// Size of the fixed per-file header the truncation/bit-flip faults
/// always leave intact, so damage lands in frame data rather than
/// degenerating into "file unreadable" (which recovery also survives,
/// but which would make the chaos assertions vacuous).
const STORAGE_FILE_HEADER: u64 = 24;

impl StorageFaultPlan {
    /// Build a plan.
    pub fn new(kind: StorageFaultKind, seed: u64) -> StorageFaultPlan {
        StorageFaultPlan { kind, seed }
    }

    /// Inflict the damage. `data_files` must be the store's data files
    /// in order (oldest first). Fails with
    /// [`io::ErrorKind::InvalidInput`] when there is nothing suitable to
    /// damage.
    pub fn apply(&self, data_files: &[PathBuf]) -> io::Result<StorageFaultReport> {
        let mut rng = Rng64::new(self.seed ^ 0x5706_4a6c_5746_414c);
        let no_target =
            || io::Error::new(io::ErrorKind::InvalidInput, "no file suitable for this fault");
        match self.kind {
            StorageFaultKind::TornFinalWrite => {
                let path = data_files.last().ok_or_else(no_target)?;
                let len = fs::metadata(path)?.len();
                if len <= STORAGE_FILE_HEADER + 16 {
                    return Err(no_target());
                }
                let cut = 1 + rng.below(15);
                let f = fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(len - cut)?;
                f.sync_data()?;
                Ok(StorageFaultReport { path: path.clone(), bytes_removed: cut, bit_flipped: None })
            }
            StorageFaultKind::TruncatedTail => {
                let path = data_files.last().ok_or_else(no_target)?;
                let len = fs::metadata(path)?.len();
                if len <= STORAGE_FILE_HEADER + 1 {
                    return Err(no_target());
                }
                let keep = STORAGE_FILE_HEADER + rng.below(len - STORAGE_FILE_HEADER);
                let f = fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(keep)?;
                f.sync_data()?;
                Ok(StorageFaultReport {
                    path: path.clone(),
                    bytes_removed: len - keep,
                    bit_flipped: None,
                })
            }
            StorageFaultKind::BitFlipMidSegment => {
                if data_files.is_empty() {
                    return Err(no_target());
                }
                let path = &data_files[rng.below(data_files.len() as u64) as usize];
                let mut raw = fs::read(path)?;
                if raw.len() as u64 <= STORAGE_FILE_HEADER + 1 {
                    return Err(no_target());
                }
                let body_bits = (raw.len() as u64 - STORAGE_FILE_HEADER) * 8;
                let bit = STORAGE_FILE_HEADER * 8 + rng.below(body_bits);
                raw[(bit / 8) as usize] ^= 1 << (bit % 8);
                fs::write(path, &raw)?;
                Ok(StorageFaultReport {
                    path: path.clone(),
                    bytes_removed: 0,
                    bit_flipped: Some(bit),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::ipv4::Ipv4Addr4;

    const S: Ipv4Addr4 = Ipv4Addr4::new(100, 64, 0, 1);
    const D: Ipv4Addr4 = Ipv4Addr4::new(20, 0, 0, 7);

    fn stream(n: u64) -> Vec<PacketMeta> {
        (0..n).map(|i| PacketMeta::udp_probe(Ts::from_millis(i * 100), S, D, 40_000, 53)).collect()
    }

    fn run(plan: FaultPlan, pkts: &[PacketMeta]) -> (Vec<PacketMeta>, InjectorStats) {
        let mut inj = FaultInjector::new(plan);
        let mut out = Vec::new();
        let mut emit = |p: &PacketMeta| out.push(*p);
        for p in pkts {
            inj.apply(p, &mut emit);
        }
        inj.flush(&mut emit);
        assert_eq!(inj.pending(), 0);
        (out, inj.stats())
    }

    #[test]
    fn clean_plan_is_identity() {
        let pkts = stream(500);
        let (out, stats) = run(FaultPlan::clean(), &pkts);
        assert_eq!(out, pkts);
        assert_eq!(stats.input, 500);
        assert_eq!(stats.delivered, 500);
        assert_eq!(stats.total_discarded(), 0);
        assert!(stats.conserves());
    }

    #[test]
    fn drops_are_counted_and_conserved() {
        let plan = FaultPlan { drop: 0.2, ..FaultPlan::clean() };
        let (out, stats) = run(FaultPlan { seed: 3, ..plan }, &stream(2000));
        assert!(stats.dropped > 200, "dropped {}", stats.dropped);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(stats.conserves());
    }

    #[test]
    fn duplicates_add_copies() {
        let plan = FaultPlan { duplicate: 0.5, seed: 4, ..FaultPlan::clean() };
        let (out, stats) = run(plan, &stream(1000));
        assert!(stats.duplicated > 300);
        assert_eq!(out.len() as u64, 1000 + stats.duplicated);
        assert!(stats.conserves());
    }

    #[test]
    fn reorder_preserves_packets_within_bound() {
        let plan = FaultPlan {
            reorder: 0.3,
            max_skew: Dur::from_millis(500),
            seed: 5,
            ..FaultPlan::clean()
        };
        let pkts = stream(2000);
        let (out, stats) = run(plan, &pkts);
        assert!(stats.reordered > 300);
        assert_eq!(out.len(), pkts.len(), "reorder must not lose packets");
        // Same multiset of timestamps.
        let mut a: Vec<u64> = out.iter().map(|p| p.ts.0).collect();
        let mut b: Vec<u64> = pkts.iter().map(|p| p.ts.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Out-of-orderness is bounded by max_skew.
        let mut max_seen = Ts::ZERO;
        for p in &out {
            assert!(max_seen.since(p.ts) <= Dur::from_millis(500), "skew bound violated");
            max_seen = max_seen.max(p.ts);
        }
        assert!(stats.conserves());
    }

    #[test]
    fn truncation_discards_are_counted() {
        let plan = FaultPlan { truncate: 0.5, seed: 6, ..FaultPlan::clean() };
        let (out, stats) = run(plan, &stream(1000));
        assert!(stats.truncated_discarded > 100);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(stats.conserves());
    }

    #[test]
    fn bitflips_split_into_discarded_and_corrupted() {
        let plan = FaultPlan { bitflip: 1.0, seed: 7, ..FaultPlan::clean() };
        let (out, stats) = run(plan, &stream(1000));
        // IP-header flips fail the checksum; payload/L4 flips survive.
        assert!(stats.corrupt_discarded > 100, "discarded {}", stats.corrupt_discarded);
        assert!(stats.corrupted_delivered > 100, "delivered {}", stats.corrupted_delivered);
        assert_eq!(stats.corrupt_discarded + stats.corrupted_delivered, 1000);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(stats.conserves());
    }

    #[test]
    fn zero_payload_shrinks_but_delivers() {
        let plan = FaultPlan { zero_payload: 1.0, seed: 8, ..FaultPlan::clean() };
        let pkts = stream(100); // UDP probes are 48 bytes: 20 over bare header
        let (out, stats) = run(plan, &pkts);
        assert_eq!(stats.zero_payload, 100);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|p| p.wire_len == 28));
        assert!(stats.conserves());
    }

    #[test]
    fn outage_windows_drop_bursts() {
        let plan = FaultPlan::clean().with_outage(Dur::from_secs(10), Dur::from_secs(1));
        let pkts = stream(2000); // 200 seconds at 10 pps
        let (out, stats) = run(plan, &pkts);
        assert!(stats.outage_dropped > 100, "outage_dropped {}", stats.outage_dropped);
        assert!(stats.outage_dropped < 400, "outage_dropped {}", stats.outage_dropped);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(stats.conserves());
        // A sampled journey records each outage drop as a trace instant.
        let cfg = ah_trace::TraceConfig { sample_one_in: 1, ..Default::default() };
        let tracer = ah_trace::Tracer::new(cfg);
        let mut inj = FaultInjector::new(plan);
        inj.set_tracer(&tracer);
        for p in &pkts {
            inj.apply(p, &mut |_| {});
        }
        let trace = ah_trace::export::to_chrome_trace(&tracer.snapshot());
        let names = ah_trace::check::validate_chrome_trace(&trace).expect("valid trace").names;
        assert!(names.contains("ah_simnet_faults_outage"), "{names:?}");
    }

    #[test]
    fn injection_is_deterministic() {
        let plan = FaultPlan::uniform(0.05, 42);
        let pkts = stream(1500);
        let (out_a, stats_a) = run(plan, &pkts);
        let (out_b, stats_b) = run(plan, &pkts);
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        let (_, stats_c) = run(FaultPlan::uniform(0.05, 43), &pkts);
        assert_ne!(stats_a, stats_c, "different seeds must differ");
    }

    #[test]
    fn uniform_plan_conserves_at_all_rates() {
        for rate in [0.001, 0.01, 0.05, 0.25] {
            let (_, stats) = run(FaultPlan::uniform(rate, 9), &stream(2000));
            assert!(stats.conserves(), "rate {rate}: {stats:?}");
            assert_eq!(stats.input, 2000);
        }
    }

    #[test]
    fn timestamps_at_the_end_of_time_are_survived_and_conserved() {
        // A WAL is CRC-checked, not authenticated: a logged packet can
        // carry any `ts`, and replay passes it through `apply`.
        let pkts: Vec<PacketMeta> =
            (0..400).map(|_| PacketMeta::udp_probe(Ts(u64::MAX), S, D, 40_000, 53)).collect();
        let outage = FaultPlan::clean().with_outage(Dur::from_secs(10), Dur::from_secs(1));
        for plan in [FaultPlan::uniform(0.25, 9), outage] {
            let (out, stats) = run(plan, &pkts);
            assert_eq!(stats.input, 400);
            assert_eq!(out.len() as u64, stats.delivered);
            assert_eq!(stats.reordered > 0, plan.reorder > 0.0, "{plan:?}");
            assert!(stats.conserves(), "{plan:?}: {stats:?}");
        }
    }

    fn storage_fixture(tag: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir =
            std::env::temp_dir().join(format!("ah-simnet-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for i in 0..3u8 {
            let p = dir.join(format!("{i:02}.dat"));
            fs::write(&p, vec![i; 400]).unwrap();
            files.push(p);
        }
        (dir, files)
    }

    #[test]
    fn storage_faults_are_deterministic_and_bounded() {
        for kind in [
            StorageFaultKind::TornFinalWrite,
            StorageFaultKind::TruncatedTail,
            StorageFaultKind::BitFlipMidSegment,
        ] {
            let (dir_a, files_a) = storage_fixture("a");
            let (dir_b, files_b) = storage_fixture("b");
            let plan = StorageFaultPlan::new(kind, 77);
            let ra = plan.apply(&files_a).unwrap();
            let rb = plan.apply(&files_b).unwrap();
            assert_eq!(ra.bytes_removed, rb.bytes_removed, "{kind:?}");
            assert_eq!(ra.bit_flipped, rb.bit_flipped, "{kind:?}");
            match kind {
                StorageFaultKind::TornFinalWrite => {
                    assert!((1..=15).contains(&ra.bytes_removed));
                    assert_eq!(ra.path, files_a[2]);
                }
                StorageFaultKind::TruncatedTail => {
                    assert!(ra.bytes_removed >= 1);
                    assert!(fs::metadata(&ra.path).unwrap().len() >= STORAGE_FILE_HEADER);
                }
                StorageFaultKind::BitFlipMidSegment => {
                    assert_eq!(ra.bytes_removed, 0);
                    let bit = ra.bit_flipped.unwrap();
                    assert!(bit >= STORAGE_FILE_HEADER * 8);
                }
            }
            let _ = fs::remove_dir_all(&dir_a);
            let _ = fs::remove_dir_all(&dir_b);
        }
    }
}
