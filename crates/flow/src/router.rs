//! Border routers and the ISP model.
//!
//! The paper's network-impact numbers come from three core routers whose
//! *peering arrangements* determine which external traffic enters where
//! (Table 2's router-1 sees most scanner traffic because its tier-1
//! upstreams carry the Europe/Asia sources that dominate definition-1
//! hitters). We model that with a longest-prefix routing policy from
//! external source/destination prefixes to border routers.
//!
//! Only *border-crossing* packets are processed: NetFlow on the paper's
//! routers samples ingress/egress interfaces, and traffic that stays
//! inside the ISP — notably user traffic served by in-network content
//! caches — never reaches them. That bypass is what "amplifies" scanner
//! impact percentages at Merit relative to the cache-less CU network.

use crate::cache::{CacheStats, FlowCache};
use crate::record::FlowRecord;
use crate::sampler::Sampler;
use ah_mem::{MemScope, Tag};
use ah_net::hash::{mix64, FastMap};
use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::prefix::{Prefix, PrefixMap, PrefixSet};
use std::collections::HashMap;

/// Identifier of a border router (1-based, as in the paper's tables).
pub type RouterId = u8;

/// Which way a packet crosses the ISP border. Variant order is part of
/// [`FlowRecord`]'s canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// From the Internet into the ISP.
    Ingress,
    /// From the ISP out to the Internet.
    Egress,
}

/// Per-(router, source) sampler phase.
///
/// Staggers where each source's systematic 1:N pattern starts so
/// sources (and routers) don't select in lockstep, while staying a pure
/// function of `(router, src)` — the property that lets the sharded
/// parallel pipeline key samplers by source with no shared counter
/// (`ARCHITECTURE.md` §11). One splitmix64 step from `src ‖ router`.
fn sampler_phase(router: RouterId, src: Ipv4Addr4) -> u64 {
    mix64((u64::from(src.to_u32()) << 8 | u64::from(router)).wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// One border router: per-source samplers + flow cache + truth counters.
pub(crate) struct BorderRouter {
    /// Router identifier (1-based, as in the paper's tables).
    id: RouterId,
    /// NetFlow sampling rate (1:N), shared by every per-source sampler.
    sampling_rate: u64,
    /// One systematic [`Sampler`] per source address, phase-staggered by
    /// [`sampler_phase`]. Keying the sampler by source makes every
    /// selection decision a pure function of the per-source packet
    /// subsequence, so source-sharded runs reproduce serial selections
    /// exactly; aggregate selection is still ~1:N.
    samplers: FastMap<u32, Sampler>,
    cache: FlowCache,
    /// Ground truth packets per day index (the "all routed packets"
    /// denominator of Tables 2 and 4 — what an unsampled line-card
    /// counter would report).
    day_counters: FastMap<u64, u64>,
    /// Telemetry for sampler decisions (inert until
    /// [`IspModel::set_recorder`]).
    m_seen: ah_obs::Counter,
    m_selected: ah_obs::Counter,
}

impl BorderRouter {
    fn new(id: RouterId, sampling_rate: u64) -> BorderRouter {
        BorderRouter {
            id,
            sampling_rate,
            samplers: FastMap::default(),
            cache: FlowCache::new(id),
            day_counters: FastMap::default(),
            m_seen: ah_obs::Counter::default(),
            m_selected: ah_obs::Counter::default(),
        }
    }

    fn set_recorder(&mut self, rec: &ah_obs::Recorder) {
        let router = self.id.to_string();
        self.m_seen =
            rec.counter_with("ah_flow_sampler_packets_seen_total", &[("router", &router)]);
        self.m_selected =
            rec.counter_with("ah_flow_sampler_packets_selected_total", &[("router", &router)]);
        self.cache.set_recorder(rec);
    }

    fn observe(&mut self, pkt: &PacketMeta, direction: Direction) {
        *self.day_counters.entry(pkt.ts.day()).or_default() += 1;
        self.m_seen.inc();
        let (id, rate) = (self.id, self.sampling_rate);
        let sampler = self
            .samplers
            .entry(pkt.src.to_u32())
            .or_insert_with(|| Sampler::new(rate, sampler_phase(id, pkt.src)));
        if sampler.sample() {
            self.m_selected.inc();
            self.cache.observe(pkt, direction);
        }
    }
}

/// Where a packet went, from the ISP's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Crossed the border at a router.
    Border(RouterId, Direction),
    /// Stayed inside the ISP (e.g. user ↔ in-net content cache).
    Internal,
    /// Neither endpoint is ours; not our traffic.
    Transit,
}

/// A peering/routing policy: which border router carries a packet between
/// an `external` and an `internal` address.
///
/// Real ISPs pick the border by BGP best path, which depends on both the
/// remote origin (which upstream announces it) and the local prefix (how
/// the ISP announces itself per point of presence). Policies that only
/// look at the external side can use [`IspConfig::with_prefix_routes`].
pub trait RoutePolicy {
    /// The border router carrying traffic between `external` and `internal`.
    fn route(&self, external: Ipv4Addr4, internal: Ipv4Addr4) -> RouterId;
}

/// Longest-prefix policy over the external address only.
#[derive(Debug, Clone)]
pub(crate) struct PrefixRoutePolicy {
    routes: PrefixMap<RouterId>,
    default_router: RouterId,
}

impl PrefixRoutePolicy {
    /// A policy from explicit routes, falling back to `default_router`.
    pub(crate) fn new(
        routes: Vec<(Prefix, RouterId)>,
        default_router: RouterId,
    ) -> PrefixRoutePolicy {
        let mut map = PrefixMap::new();
        for (p, r) in routes {
            map.insert(p, r);
        }
        PrefixRoutePolicy { routes: map, default_router }
    }
}

impl RoutePolicy for PrefixRoutePolicy {
    fn route(&self, external: Ipv4Addr4, _internal: Ipv4Addr4) -> RouterId {
        self.routes.lookup(external).copied().unwrap_or(self.default_router)
    }
}

/// Configuration of an ISP model.
pub struct IspConfig {
    /// The ISP's own (internal) address space.
    pub internal: PrefixSet,
    /// Peering policy choosing the border router.
    pub policy: Box<dyn RoutePolicy>,
    /// Router ids to instantiate.
    pub routers: Vec<RouterId>,
    /// NetFlow sampling rate (1:N).
    pub sampling_rate: u64,
}

impl IspConfig {
    /// Convenience: longest-prefix routing over the external address only.
    pub fn with_prefix_routes(
        internal: PrefixSet,
        routes: Vec<(Prefix, RouterId)>,
        default_router: RouterId,
        routers: Vec<RouterId>,
        sampling_rate: u64,
    ) -> IspConfig {
        IspConfig {
            internal,
            policy: Box::new(PrefixRoutePolicy::new(routes, default_router)),
            routers,
            sampling_rate,
        }
    }
}

/// The ISP: border routers plus routing policy.
pub struct IspModel {
    internal: PrefixSet,
    policy: Box<dyn RoutePolicy>,
    routers: Vec<BorderRouter>,
    sampling_rate: u64,
    /// Trace handle (inert until [`IspModel::set_tracer`]).
    tracer: ah_trace::Tracer,
}

impl IspModel {
    /// Build the ISP: one border router per configured id.
    pub fn new(cfg: IspConfig) -> IspModel {
        IspModel {
            internal: cfg.internal,
            policy: cfg.policy,
            routers: cfg
                .routers
                .into_iter()
                .map(|id| BorderRouter::new(id, cfg.sampling_rate))
                .collect(),
            sampling_rate: cfg.sampling_rate,
            tracer: ah_trace::Tracer::noop(),
        }
    }

    fn route(&self, external: Ipv4Addr4, internal: Ipv4Addr4) -> RouterId {
        self.policy.route(external, internal)
    }

    fn router_mut(&mut self, id: RouterId) -> Option<&mut BorderRouter> {
        self.routers.iter_mut().find(|r| r.id == id)
    }

    /// Attach live telemetry instruments (`ah_flow_sampler_*` per router
    /// and `ah_flow_cache_*` for every router's flow cache).
    /// Observation-only: routing, sampling and export are unchanged.
    pub fn set_recorder(&mut self, rec: &ah_obs::Recorder) {
        // Instruments are interned in the recorder, which outlives any
        // run — charge them to Obs, not the run-scoped Flow tag.
        let _mem = MemScope::enter(Tag::Obs);
        for r in &mut self.routers {
            r.set_recorder(rec);
        }
    }

    /// Attach a tracer: sampled packet journeys get an
    /// `ah_flow_router_observe` instant as they cross a border router.
    /// Observation-only: routing, sampling and export are unchanged.
    pub fn set_tracer(&mut self, tracer: &ah_trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Where this packet would go — a pure function of the address plan
    /// and routing policy, with no side effects on the model.
    pub fn disposition(&self, pkt: &PacketMeta) -> Disposition {
        let src_in = self.internal.contains(pkt.src);
        let dst_in = self.internal.contains(pkt.dst);
        match (src_in, dst_in) {
            (false, true) => Disposition::Border(self.route(pkt.src, pkt.dst), Direction::Ingress),
            (true, false) => Disposition::Border(self.route(pkt.dst, pkt.src), Direction::Egress),
            (true, true) => Disposition::Internal,
            (false, false) => Disposition::Transit,
        }
    }

    /// Process one packet through the ISP.
    pub fn observe(&mut self, pkt: &PacketMeta) -> Disposition {
        // Deliberately NO memory scope on this per-packet path; the
        // engine's tagged consume path brackets the call with
        // `ah_mem::tag_swap` when accounting is on (see
        // `ah_telescope::Telescope::observe` for the rationale).
        let disposition = self.disposition(pkt);
        if let Disposition::Border(id, dir) = disposition {
            let journey = self.tracer.journey_id(pkt.src.to_u32());
            if journey != 0 {
                self.tracer.journey_instant("ah_flow_router_observe", journey);
            }
            if let Some(r) = self.router_mut(id) {
                r.observe(pkt, dir);
            }
        }
        disposition
    }

    /// Flow-cache input-fate counters aggregated over all border routers.
    /// Read before [`IspModel::finish`] consumes the model.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.routers {
            total.merge(&r.cache.stats());
        }
        total
    }

    /// End the measurement: flush all caches into a dataset.
    pub fn finish(mut self) -> FlowDataset {
        let _mem = MemScope::enter(Tag::Flow);
        let mut records = Vec::new();
        let mut router_days = HashMap::new();
        for r in &mut self.routers {
            records.extend(r.cache.flush());
            for (&day, &n) in &r.day_counters {
                router_days.insert((r.id, day), n);
            }
        }
        // HashMap drain order must never leak into the dataset: `FlowRecord`'s
        // order is total over record content, so per-shard datasets merge
        // into the bitwise-identical serial result.
        records.sort();
        FlowDataset { records, sampling_rate: self.sampling_rate, router_days }
    }
}

/// A completed flow-measurement campaign: every exported record plus the
/// ground-truth per-router-day totals.
#[derive(Debug, Clone)]
pub struct FlowDataset {
    /// Every record exported by any router, in [`FlowRecord`]'s order.
    pub records: Vec<FlowRecord>,
    /// The 1:N sampling rate the routers ran at.
    pub sampling_rate: u64,
    /// Ground truth (router, day) → packets the router processed.
    pub router_days: HashMap<(RouterId, u64), u64>,
}

impl FlowDataset {
    /// Ground-truth packets a router processed in a day.
    pub fn router_day_packets(&self, router: RouterId, day: u64) -> u64 {
        self.router_days.get(&(router, day)).copied().unwrap_or(0)
    }

    /// Estimated wire packets for a sampled count.
    pub fn estimate(&self, sampled: u64) -> u64 {
        sampled * self.sampling_rate
    }

    /// Distinct (router, day) pairs present, sorted.
    pub fn router_day_keys(&self) -> Vec<(RouterId, u64)> {
        let mut keys: Vec<_> = self.router_days.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_net::time::Ts;

    fn isp() -> IspModel {
        IspModel::new(IspConfig::with_prefix_routes(
            PrefixSet::from_prefixes(vec!["10.0.0.0/8".parse().unwrap()]),
            vec![("100.0.0.0/8".parse().unwrap(), 1), ("200.0.0.0/8".parse().unwrap(), 2)],
            3,
            vec![1, 2, 3],
            10,
        ))
    }

    fn pkt(src: Ipv4Addr4, dst: Ipv4Addr4, t: u64) -> PacketMeta {
        PacketMeta::tcp_syn(Ts::from_secs(t), src, dst, 40000, 80)
    }

    const USER: Ipv4Addr4 = Ipv4Addr4::new(10, 1, 2, 3);
    const CACHE: Ipv4Addr4 = Ipv4Addr4::new(10, 250, 0, 1);
    const EU_SCANNER: Ipv4Addr4 = Ipv4Addr4::new(100, 50, 0, 9);
    const US_HOST: Ipv4Addr4 = Ipv4Addr4::new(200, 1, 1, 1);
    const ELSEWHERE: Ipv4Addr4 = Ipv4Addr4::new(55, 4, 3, 2);

    #[test]
    fn sampler_phase_is_unchanged_over_the_shared_mixer() {
        // Values of the written-out splitmix64 body this function had
        // before it called `ah_net::hash::mix64`. A moved phase moves
        // which packets every sampler selects.
        for (router, src, want) in [
            (1, 0x0a00_0001, 0x40c6_be2d_ef1c_fff4),
            (2, 0x0a00_0001, 0x4aad_1b41_fad6_aa66),
            (1, 0xc633_6407, 0xb15a_d9f6_b9fa_71eb),
            (3, 0xffff_ffff, 0xa81d_dde0_9fff_594c),
            (255, 0, 0x338c_5071_4628_3fb4),
        ] {
            assert_eq!(sampler_phase(router, Ipv4Addr4(src)), want, "({router}, {src:#x})");
        }
    }

    #[test]
    fn ingress_routes_by_source_prefix() {
        let mut m = isp();
        assert_eq!(
            m.observe(&pkt(EU_SCANNER, USER, 0)),
            Disposition::Border(1, Direction::Ingress)
        );
        assert_eq!(m.observe(&pkt(US_HOST, USER, 0)), Disposition::Border(2, Direction::Ingress));
        assert_eq!(m.observe(&pkt(ELSEWHERE, USER, 0)), Disposition::Border(3, Direction::Ingress));
    }

    #[test]
    fn egress_routes_by_destination_prefix() {
        let mut m = isp();
        assert_eq!(m.observe(&pkt(USER, EU_SCANNER, 0)), Disposition::Border(1, Direction::Egress));
    }

    #[test]
    fn internal_traffic_bypasses_border() {
        let mut m = isp();
        assert_eq!(m.observe(&pkt(USER, CACHE, 0)), Disposition::Internal);
        let ds = m.finish();
        assert_eq!(ds.router_day_packets(1, 0), 0);
        assert!(ds.records.is_empty());
    }

    #[test]
    fn transit_traffic_is_ignored() {
        let mut m = isp();
        assert_eq!(m.observe(&pkt(EU_SCANNER, US_HOST, 0)), Disposition::Transit);
    }

    #[test]
    fn truth_counters_count_everything_sampled_or_not() {
        let mut m = isp();
        for i in 0..95 {
            m.observe(&pkt(EU_SCANNER, USER, i / 10));
        }
        let ds = m.finish();
        let total: u64 = (0..10).map(|d| ds.router_day_packets(1, d)).sum();
        assert_eq!(total, 95);
        // Sampled flows carry ~1/10 of the packets.
        let sampled: u64 = ds.records.iter().map(|r| r.packets).sum();
        assert!((8..=10).contains(&sampled), "sampled {sampled}");
        assert_eq!(ds.estimate(sampled), sampled * 10);
    }

    #[test]
    fn flows_carry_router_and_direction() {
        let mut m = IspModel::new(IspConfig::with_prefix_routes(
            PrefixSet::from_prefixes(vec!["10.0.0.0/8".parse().unwrap()]),
            vec![],
            1,
            vec![1],
            1,
        ));
        m.observe(&pkt(EU_SCANNER, USER, 0));
        m.observe(&pkt(USER, EU_SCANNER, 1));
        let ds = m.finish();
        assert_eq!(ds.records.len(), 2);
        assert!(ds.records.iter().any(|r| r.direction == Direction::Ingress));
        assert!(ds.records.iter().any(|r| r.direction == Direction::Egress));
        assert!(ds.records.iter().all(|r| r.router == 1));
    }

    #[test]
    fn day_counters_split_by_day() {
        let mut m = isp();
        m.observe(&pkt(EU_SCANNER, USER, 10));
        m.observe(&pkt(EU_SCANNER, USER, 86_400 + 10));
        let ds = m.finish();
        assert_eq!(ds.router_day_packets(1, 0), 1);
        assert_eq!(ds.router_day_packets(1, 1), 1);
        assert_eq!(ds.router_day_packets(1, 2), 0);
    }

    #[test]
    fn router_day_keys_sorted() {
        let mut m = isp();
        m.observe(&pkt(US_HOST, USER, 86_400));
        m.observe(&pkt(EU_SCANNER, USER, 0));
        let ds = m.finish();
        assert_eq!(ds.router_day_keys(), vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn cache_stats_aggregate_across_routers() {
        let mut m = IspModel::new(IspConfig::with_prefix_routes(
            PrefixSet::from_prefixes(vec!["10.0.0.0/8".parse().unwrap()]),
            vec![("100.0.0.0/8".parse().unwrap(), 1), ("200.0.0.0/8".parse().unwrap(), 2)],
            1,
            vec![1, 2],
            1, // unsampled: every border packet reaches a cache
        ));
        let a = pkt(EU_SCANNER, USER, 0);
        let b = pkt(US_HOST, USER, 0);
        m.observe(&a);
        m.observe(&a); // duplicate at router 1
        m.observe(&b);
        let s = m.cache_stats();
        assert_eq!(s.received, 3);
        assert_eq!(s.duplicates_suppressed, 1);
        assert!(s.conserves());
        assert_eq!(m.routers[0].cache.stats().duplicates_suppressed, 1);
        assert_eq!(m.routers[1].cache.stats().received, 1);
    }

    #[test]
    fn sweep_flushes_idle_flows_to_records() {
        let mut m = IspModel::new(IspConfig::with_prefix_routes(
            PrefixSet::from_prefixes(vec!["10.0.0.0/8".parse().unwrap()]),
            vec![],
            1,
            vec![1],
            1,
        ));
        let rec = ah_obs::Recorder::new();
        m.set_recorder(&rec);
        m.observe(&pkt(EU_SCANNER, USER, 0));
        // No caller sweeps an ISP model: five minutes on, a packet of
        // another flow moves the cache's watermark and the cache expires
        // the idle flow itself.
        m.observe(&pkt(US_HOST, USER, 300));
        let evicted = rec
            .snapshot()
            .samples
            .into_iter()
            .find(|s| s.name == "ah_flow_cache_records_evicted_total")
            .map(|s| s.value);
        assert_eq!(evicted, Some(ah_obs::Value::Counter(1)));
        let ds = m.finish();
        assert_eq!(ds.records.len(), 2);
        let idle = &ds.records[0];
        assert_eq!(
            (idle.key.src, idle.packets, idle.first, idle.last),
            (EU_SCANNER, 1, Ts::ZERO, Ts::ZERO)
        );
    }
}
