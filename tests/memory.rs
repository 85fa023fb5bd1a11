//! Memory-accounting determinism and leak-gate checks.
//!
//! The contract under test (`ARCHITECTURE.md` §13): tagged-allocator
//! accounting is observation-only. Flipping [`ah_mem::set_accounting`]
//! on — every allocation charged to a per-subsystem account via the
//! scope stack — must leave [`RunOutput::fingerprint`] bitwise
//! identical on every cell of the shared matrix (`tests/common`: inline
//! and 8 shards, clean or faulted, in memory, journaled or replayed) and
//! across a suspend/resume at 1 and 8 shards. On top of that, the
//! run-scoped tags (mux, telescope, flow, wal, merge, detectors) must
//! drain back to ~zero live bytes once the run's output is dropped —
//! the leak gate `tests/cli.rs` enforces on the shipped binary. The
//! generator must not allocate while draining: no actor per packet, and
//! no mux window past the buffers `Scenario::build` reserves
//! (`ARCHITECTURE.md` §7). And the end-of-run flush must order its
//! events through a 12-byte index per event, not a second copy of them
//! (`ARCHITECTURE.md` §4).
//!
//! Accounting state is process-global, so every test here serializes
//! on one mutex; integration tests are their own binary, which makes
//! that intra-file lock sufficient.

mod common;

use aggressive_scanners::net::fingerprint::ZMAP_IP_ID;
use aggressive_scanners::net::ipv4::Ipv4Addr4;
use aggressive_scanners::net::packet::{PacketMeta, ScanClass};
use aggressive_scanners::net::time::{Dur, Ts};
use aggressive_scanners::pipeline::{self, Log, Telemetry, WalOutcome, WalRun};
use aggressive_scanners::simnet::mux::BATCH;
use aggressive_scanners::simnet::scenario::{Scenario, ScenarioConfig, Year};
use aggressive_scanners::telescope::event::{DarknetEvent, EventAggregator, EventKey};
use ah_mem::{MemScope, Tag};
use common::{opts, run_logged, run_with, scenario};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Slack for state that legitimately outlives a run while charged to a
/// run tag (e.g. a span name interned before its owner re-tagged it).
const EPSILON_BYTES: i64 = 16 * 1024;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panicked test poisons the mutex but leaves accounting usable;
    // keep serializing instead of cascading failures.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    common::temp_dir(&format!("mem-{tag}"))
}

// --- Determinism --------------------------------------------------------

#[test]
fn accounting_does_not_perturb_output() {
    let _g = lock();
    ah_mem::set_accounting(false);
    // Accounting is switched on right before each observed run and off
    // right after it, so every baseline runs unaccounted.
    common::assert_observation_only(
        "mem-det",
        || {
            ah_mem::set_accounting(true);
            // A tight pulse interval so the periodic refresh path runs
            // many times inside even this tiny scenario.
            Telemetry::disabled().with_mem(64)
        },
        |cell, _tel, accounted| {
            ah_mem::set_accounting(false);
            assert!(cell.baseline.mem.is_none(), "accounting off must not attach a memory report");
            let report = accounted.mem.as_ref().expect("accounted run attaches a memory report");
            assert!(report.global.peak_bytes > 0, "global peak not tracked");
            assert!(report.peak_rss_bytes() > 0, "peak RSS not resolved");
            for tag in [Tag::Mux, Tag::Telescope, Tag::Flow, Tag::Detectors] {
                let s = report.tags().find(|(t, _)| *t == tag).expect("tag in report").1;
                assert!(
                    s.total_bytes > 0,
                    "tag {} never charged at threads={:?} faulted={} path={:?}",
                    tag.name(),
                    cell.threads,
                    cell.faulted,
                    cell.path
                );
            }
        },
    );
}

#[test]
fn accounting_is_invariant_on_durable_paths() {
    let _g = lock();
    ah_mem::set_accounting(false);
    let plain = pipeline::run(scenario(), opts(true)).fingerprint();

    ah_mem::set_accounting(true);
    for shards in [1, 8] {
        let threads = Some(shards);
        // Live durable run == plain run, and its log replays identically.
        let dir = temp_dir(&format!("wal-t{shards}"));
        let mut tel = Telemetry::disabled().with_mem(64);
        let live = run_logged(&mut tel, threads, true, Log::Fresh(&WalRun::new(&dir)));
        assert_eq!(live.fingerprint(), plain, "accounted wal live diverged, {shards} shards");
        let wal_report = live.mem.as_ref().expect("durable run attaches a memory report");
        let wal_stats =
            wal_report.tags().find(|(t, _)| *t == Tag::Wal).expect("wal tag in report").1;
        assert!(wal_stats.total_bytes > 0, "wal tag never charged on the durable path");

        let replayed = run_logged(&mut tel, threads, true, Log::Replay(&dir));
        assert_eq!(replayed.fingerprint(), plain, "accounted replay diverged, {shards} shards");

        // Suspend mid-stream, then resume to completion == uninterrupted.
        let dir2 = temp_dir(&format!("wal-s{shards}"));
        let cut = live.capture.total_packets.max(8) / 2;
        let wal = WalRun::new(&dir2).suspend_after(cut);
        match pipeline::run_with_log(scenario(), opts(true), threads, Log::Fresh(&wal), &mut tel) {
            Ok(WalOutcome::Suspended { delivered, .. }) => {
                assert_eq!(delivered, cut, "suspension point honored")
            }
            Ok(WalOutcome::Completed(_)) => panic!("run finished before suspension point"),
            Err(e) => panic!("suspend run failed: {e}"),
        }
        let resumed = run_logged(&mut tel, threads, true, Log::Resume(&WalRun::new(&dir2)));
        assert_eq!(resumed.fingerprint(), plain, "accounted resumed run diverged, {shards} shards");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
    ah_mem::set_accounting(false);
}

// --- Generator allocation gate --------------------------------------------

/// `Actor::emit` and the mux's windows allocate nothing while
/// draining. An optimized build can elide a short-lived per-packet `Vec`
/// on its own, so it is the unoptimized `cargo test` run that catches
/// one.
#[test]
fn generator_does_not_allocate_per_packet() {
    let _g = lock();
    ah_mem::set_accounting(true);
    let mut sc = Scenario::build(ScenarioConfig::darknet(Year::Y2022, 1, 42));
    let built = ah_mem::tag_stats(Tag::Mux).total_allocs;
    let mut packets = 0u64;
    while sc.mux.next_packet().is_some() {
        packets += 1;
    }
    let drained = ah_mem::tag_stats(Tag::Mux).total_allocs;
    ah_mem::set_accounting(false);
    // The gate can see: building the scenario is charged to Mux, and
    // the drain ran under the same tag over a real day of traffic.
    assert!(built > 0, "Scenario::build charged nothing to the mux tag");
    assert!(packets > 100_000, "only {packets} packets drained");
    assert_eq!(
        drained - built,
        0,
        "actors and the mux window buffers allocated {} times while emitting {packets} packets",
        drained - built
    );
}

/// Every window the mux fills fits the buffers `Scenario::build`
/// reserved (`ARCHITECTURE.md` §7), on the other scenario shapes too:
/// benign-heavy `flows` (one day, about 60 million packets; the largest
/// window over seeds 1–8 held 8,299) and `tiny`'s small world over eight
/// days (11,468), two seeds each. A window that outgrew the reserve
/// would allocate under `Tag::Mux`.
#[test]
fn mux_windows_fit_their_reserve_on_every_scenario_shape() {
    let _g = lock();
    ah_mem::set_accounting(true);
    for seed in [6, 42] {
        for cfg in [ScenarioConfig::flows(1, seed), ScenarioConfig::tiny(8, seed)] {
            let label = format!("{} seed {seed}", cfg.label);
            let mut batch = Vec::with_capacity(BATCH);
            let mut sc = Scenario::build(cfg);
            let built = ah_mem::tag_stats(Tag::Mux).total_allocs;
            let mut packets = 0u64;
            while sc.mux.next_batch(&mut batch, BATCH) > 0 {
                packets += batch.len() as u64;
                batch.clear();
            }
            let drained = ah_mem::tag_stats(Tag::Mux).total_allocs;
            assert!(sc.mux.windows() > 100, "{label}: only {} windows", sc.mux.windows());
            assert_eq!(
                drained - built,
                0,
                "{label}: the mux allocated {} times over {packets} packets in {} windows",
                drained - built,
                sc.mux.windows()
            );
        }
    }
    ah_mem::set_accounting(false);
}

// --- Flush transient ------------------------------------------------------

/// `EventAggregator::flush` orders its events through one 12-byte
/// `(key, position)` index entry per event, never a second copy of the
/// 28-byte events (`ARCHITECTURE.md` §4): while it runs, the telescope
/// tag rises at most one index above what it holds before and after.
#[test]
fn flush_orders_events_through_an_index_not_a_copy() {
    let _g = lock();
    ah_mem::set_accounting(true);
    let scope = MemScope::enter(Tag::Telescope);

    // 1,000 sources on two ports, eight bursts 700 s apart on day 0.
    // That is past the 600 s idle timeout, so every burst is its own
    // event, closed by the gap before the key's next burst; a key that
    // sits a burst out is idle 1,400 s, and a sweep (timeout plus the
    // 300 s reorder window) closes it instead. Each burst is one packet
    // shorter than the last, so a key's events differ in content and
    // only close order puts them right. `made` lists the events burst
    // by burst: within each key, the order they close in.
    let mut agg = EventAggregator::new(1 << 16, Dur::from_mins(10));
    let mut made = Vec::new();
    let mut feed = |agg: &mut EventAggregator, burst: u64, keys: &[(u32, u16)], packets: u32| {
        for i in 0..packets {
            for &(src, port) in keys {
                let mut p = PacketMeta::tcp_syn(
                    Ts::from_secs(burst * 700 + u64::from(i)),
                    Ipv4Addr4(0x0a00_0000 + src),
                    Ipv4Addr4(0xc000_0000 + i),
                    40000,
                    port,
                );
                p.ip_id = ZMAP_IP_ID;
                agg.observe(&p, ScanClass::TcpSyn, (src * 7 + i) % (1 << 16));
            }
        }
        made.extend(keys.iter().map(|&(src, port)| DarknetEvent {
            key: EventKey {
                src: Ipv4Addr4(0x0a00_0000 + src),
                dst_port: port,
                class: ScanClass::TcpSyn,
            },
            start_day: 0,
            end_day: 0,
            packets,
            unique_dsts: packets,
            zmap: packets,
            masscan: 0,
        }));
    };
    for burst in 0..8u32 {
        let keys: Vec<(u32, u16)> = (0..1000u32)
            .filter(|src| (src + burst) % 3 != 0)
            .flat_map(|src| [(src, 23), (src, 80)])
            .collect();
        feed(&mut agg, u64::from(burst), &keys, 8 - burst);
    }
    // A last packet long after the rest: its sweep closes every event
    // the bursts left open, and it stays the one active event.
    feed(&mut agg, 10, &[(5000, 23)], 1);
    let n = made.len();
    assert_eq!(agg.stats().closed, n as u64 - 1, "every burst's event closed before the flush");

    ah_mem::reset_window();
    let before = ah_mem::tag_stats(Tag::Telescope).live_bytes;
    let events = agg.flush();
    let after = ah_mem::tag_stats(Tag::Telescope);
    drop(scope);
    ah_mem::set_accounting(false);

    let transient = after.peak_bytes - before.max(after.live_bytes);
    let bound = 12 * n as i64 + 4096;
    assert!(
        transient <= bound,
        "flush of {n} events rose {transient} bytes above its resting level (bound {bound}: one 12-byte index entry per event)"
    );
    made.sort_by_key(|e| e.key);
    assert_eq!(events, made);
}

// --- Leak gate ----------------------------------------------------------

#[test]
fn run_scoped_tags_drain_when_output_drops() {
    let _g = lock();
    ah_mem::set_accounting(true);
    // Delta-based: whatever earlier tests left charged (bounded by
    // their own drains) is the baseline, not part of this run.
    let base: Vec<i64> = Tag::RUN_SCOPED.iter().map(|&t| ah_mem::tag_stats(t).live_bytes).collect();

    let out = run_with(&mut Telemetry::disabled().with_mem(64), Some(8), true);
    let report = out.mem.clone().expect("memory report");
    drop(out);

    ah_mem::set_accounting(false);
    for (i, &tag) in Tag::RUN_SCOPED.iter().enumerate() {
        let now = ah_mem::tag_stats(tag).live_bytes;
        assert!(
            now - base[i] <= EPSILON_BYTES,
            "tag {} leaked {} live bytes after the run's output dropped (was {}, now {now})",
            tag.name(),
            now - base[i],
            base[i],
        );
    }
    // The run itself was real: its peaks dwarf the leak epsilon.
    assert!(
        report.global.peak_bytes > EPSILON_BYTES,
        "global peak {} suspiciously small",
        report.global.peak_bytes
    );
}

#[test]
fn leak_check_helper_agrees_with_drained_state() {
    let _g = lock();
    ah_mem::set_accounting(true);
    let out = run_with(&mut Telemetry::disabled(), None, false);
    drop(out);
    ah_mem::set_accounting(false);
    // Absolute check with a budget generous enough to cover residue
    // from every earlier test in this binary — its purpose is to pin
    // that leak_check reports per-tag live bytes, not cumulative ones.
    let leaks = ah_mem::leak_check(1 << 20);
    assert!(leaks.is_empty(), "unexpected live residue: {leaks:?}");
}
