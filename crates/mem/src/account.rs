//! Cache-padded per-tag atomic accounts.
//!
//! One [`Account`] per [`Tag`](crate::Tag) plus a process-global
//! aggregate, each on its own 64-byte cache line so concurrent shard
//! threads charging different subsystems never false-share. All
//! updates come from the allocator shim (`alloc.rs`), so every
//! function here must be allocation-free and panic-free: plain atomic
//! arithmetic only.
//
// ORDERING: accounts are observation-only monotone aggregates — nothing
// derives inter-thread ordering from them, they are read only at
// snapshot/report time, and `Relaxed` keeps the allocator hot path to
// uncontended RMWs.

use crate::{TagStats, TAG_COUNT};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Index of the process-global aggregate account in [`ACCOUNTS`].
pub(crate) const GLOBAL: usize = TAG_COUNT;

/// One subsystem's counters, padded to a cache line.
#[repr(align(64))]
struct Account {
    /// Bytes currently outstanding. Signed: concurrent charge/debit
    /// interleavings may transiently dip a reader's view below zero.
    live_bytes: AtomicI64,
    /// Blocks currently outstanding.
    live_allocs: AtomicI64,
    /// High-water mark of `live_bytes` (maintained with `fetch_max`).
    peak_bytes: AtomicI64,
    /// Cumulative bytes ever charged.
    total_bytes: AtomicU64,
    /// Cumulative blocks ever charged.
    total_allocs: AtomicU64,
}

impl Account {
    const fn new() -> Account {
        Account {
            live_bytes: AtomicI64::new(0),
            live_allocs: AtomicI64::new(0),
            peak_bytes: AtomicI64::new(0),
            total_bytes: AtomicU64::new(0),
            total_allocs: AtomicU64::new(0),
        }
    }
}

/// `TAG_COUNT` per-tag accounts followed by the global aggregate.
static ACCOUNTS: [Account; TAG_COUNT + 1] = [
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
    Account::new(),
];

/// Credit `size` bytes to account `idx` and the global aggregate.
pub(crate) fn charge(idx: u8, size: usize) {
    for acct in [&ACCOUNTS[idx as usize % (TAG_COUNT + 1)], &ACCOUNTS[GLOBAL]] {
        let live = acct.live_bytes.fetch_add(size as i64, Relaxed) + size as i64;
        acct.peak_bytes.fetch_max(live, Relaxed);
        acct.live_allocs.fetch_add(1, Relaxed);
        acct.total_bytes.fetch_add(size as u64, Relaxed);
        acct.total_allocs.fetch_add(1, Relaxed);
    }
}

/// Debit `size` bytes from account `idx` and the global aggregate.
pub(crate) fn discharge(idx: u8, size: usize) {
    for acct in [&ACCOUNTS[idx as usize % (TAG_COUNT + 1)], &ACCOUNTS[GLOBAL]] {
        acct.live_bytes.fetch_sub(size as i64, Relaxed);
        acct.live_allocs.fetch_sub(1, Relaxed);
    }
}

/// Move a charged block from `old` to `new` bytes under its original
/// tag (a `realloc` that kept the charge).
pub(crate) fn adjust(idx: u8, old: usize, new: usize) {
    let delta = new as i64 - old as i64;
    for acct in [&ACCOUNTS[idx as usize % (TAG_COUNT + 1)], &ACCOUNTS[GLOBAL]] {
        let live = acct.live_bytes.fetch_add(delta, Relaxed) + delta;
        acct.peak_bytes.fetch_max(live, Relaxed);
        acct.total_bytes.fetch_add(new as u64, Relaxed);
        acct.total_allocs.fetch_add(1, Relaxed);
    }
}

/// Copy account `idx` into a [`TagStats`] snapshot.
pub(crate) fn snapshot(idx: usize) -> TagStats {
    let acct = &ACCOUNTS[idx % (TAG_COUNT + 1)];
    TagStats {
        live_bytes: acct.live_bytes.load(Relaxed),
        live_allocs: acct.live_allocs.load(Relaxed),
        peak_bytes: acct.peak_bytes.load(Relaxed),
        total_bytes: acct.total_bytes.load(Relaxed),
        total_allocs: acct.total_allocs.load(Relaxed),
    }
}

/// Reset every account's peak to its current live level and zero the
/// cumulative counters (fresh measurement window for benches).
pub(crate) fn reset_window() {
    for acct in &ACCOUNTS {
        acct.peak_bytes.store(acct.live_bytes.load(Relaxed), Relaxed);
        acct.total_bytes.store(0, Relaxed);
        acct.total_allocs.store(0, Relaxed);
    }
}
