//! Tagged-allocator memory observability (the third observability
//! pillar, next to ah-obs metrics and ah-trace spans).
//!
//! The paper's longitudinal story — years of telescope traffic,
//! millions of tracked sources — is ultimately a *memory* story:
//! ROADMAP item "An event has one owner" (bounded-memory detection)
//! cannot be judged without knowing where bytes live. This crate
//! answers that with three small pieces:
//!
//! * [`TaggedSystem`] — a [`GlobalAlloc`](std::alloc::GlobalAlloc)
//!   wrapper over the system allocator. Every allocation gets a small
//!   header recording which subsystem [`Tag`] was active on the
//!   allocating thread; frees consult the header, so bytes are always
//!   returned to the account that was charged, no matter which thread
//!   or scope frees them.
//! * [`MemScope`] — a thread-local RAII tag scope. `MemScope::enter(
//!   Tag::Telescope)` routes every allocation on the current thread to
//!   the telescope account until the guard drops (scopes nest; the
//!   previous tag is restored).
//! * per-tag **accounts** — cache-padded atomic counters (live bytes /
//!   live allocations, cumulative bytes / allocations, peak live
//!   bytes) plus a process-global account whose peak is the portable
//!   fallback when `/proc/self/status` `VmHWM` is unavailable.
//!
//! # Determinism and cost contract
//!
//! Accounting is **observation-only**: nothing in the pipeline reads
//! these counters back into control flow, so a run's
//! `RunOutput::fingerprint` is bitwise identical with accounting on or
//! off (enforced by `tests/memory.rs` in the workspace root). The shim
//! is runtime no-op-able via [`set_accounting`]: when off, the only
//! per-allocation cost is one relaxed atomic load and an 8-byte header
//! write, and [`MemScope::enter`] is a single relaxed load — measured
//! ≤1% on the end-to-end pipeline (see `EXPERIMENTS.md`).
//!
//! # Exactness
//!
//! The header carries a *charged* bit: an account is only ever
//! debited for a block that was credited, so toggling accounting
//! mid-run can never drive an account negative. `realloc` moves the
//! charge to the new size under the block's original tag.
//!
//! # Example
//!
//! ```
//! use ah_mem::{MemScope, Tag};
//!
//! ah_mem::set_accounting(true);
//! {
//!     let _scope = MemScope::enter(Tag::Telescope);
//!     // allocations here are charged to the telescope account
//!     // (when the embedding binary installs `ah_mem::TaggedSystem`
//!     // as its #[global_allocator])
//! }
//! let report = ah_mem::report();
//! assert!(report.peak_rss_bytes() < u64::MAX);
//! ah_mem::set_accounting(false);
//! ```
//!
//! `unsafe` is confined to the allocator shim (the private `alloc`
//! module behind [`TaggedSystem`]) with per-site SAFETY arguments.

#![warn(missing_docs)]

mod account;
mod alloc;

pub use alloc::TaggedSystem;

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// Subsystem tags: one per pipeline layer plus `Other` for anything
/// allocated outside an explicit scope (test harness, CLI parsing,
/// process setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Tag {
    /// Simnet substrate: world build, mux event queue, fault injector,
    /// SPSC fan-out rings.
    Mux = 0,
    /// Telescope capture: aggregation tables, event buffers, source
    /// filters.
    Telescope = 1,
    /// Flow pipeline: flow caches, NetFlow v9 encode/decode, ISP
    /// routers.
    Flow = 2,
    /// Write-ahead log: writer frames, group-commit buffers, recovery
    /// scans.
    Wal = 3,
    /// Parallel-engine merge: shard results and collected shard state.
    Merge = 4,
    /// Detector passes: aggressive-scanner classification, GreyNoise
    /// replica state, report assembly.
    Detectors = 5,
    /// ah-trace internals: per-thread span buffers, name interning.
    Trace = 6,
    /// ah-obs internals: instrument registration, exporter buffers.
    Obs = 7,
    /// Anything allocated with no scope active.
    Other = 8,
}

/// Number of [`Tag`] variants (accounts are a fixed array this size).
pub(crate) const TAG_COUNT: usize = 9;

impl Tag {
    /// All tags, in account order.
    pub(crate) const ALL: [Tag; TAG_COUNT] = [
        Tag::Mux,
        Tag::Telescope,
        Tag::Flow,
        Tag::Wal,
        Tag::Merge,
        Tag::Detectors,
        Tag::Trace,
        Tag::Obs,
        Tag::Other,
    ];

    /// Tags whose allocations are owned by a single run and must drain
    /// to ~0 once its `RunOutput` is dropped — the leak-gate set.
    /// `Trace`/`Obs` are excluded (tracers and recorders outlive runs
    /// by design) and `Other` is ambient process state.
    pub const RUN_SCOPED: [Tag; 6] =
        [Tag::Mux, Tag::Telescope, Tag::Flow, Tag::Wal, Tag::Merge, Tag::Detectors];

    /// Stable lowercase label (used for metric label values and report
    /// rendering).
    pub fn name(self) -> &'static str {
        match self {
            Tag::Mux => "mux",
            Tag::Telescope => "telescope",
            Tag::Flow => "flow",
            Tag::Wal => "wal",
            Tag::Merge => "merge",
            Tag::Detectors => "detectors",
            Tag::Trace => "trace",
            Tag::Obs => "obs",
            Tag::Other => "other",
        }
    }
}

/// Master accounting switch. Off at process start.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable allocation accounting process-wide.
///
/// Already-charged blocks keep draining their accounts when freed even
/// while accounting is off (the charged bit in each block header, not
/// this switch, decides debits), so toggling never skews live counts
/// negative. Intended to be flipped once, before the measured region.
pub fn set_accounting(on: bool) {
    // ORDERING: `Relaxed` — the switch gates *whether* new blocks are
    // charged, never the correctness of debits (those follow the
    // per-block header). No other memory operation is ordered by it.
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when allocation accounting is currently enabled.
///
/// `#[inline]`: this is the accounting-off fast path — it must fold
/// into callers in other crates (every [`MemScope::enter`] and every
/// allocator hook) for the ≤1% disabled-overhead contract to hold.
#[inline]
pub fn accounting_enabled() -> bool {
    // ORDERING: `Relaxed` — advisory read of a monotone-ish switch; see
    // `set_accounting`.
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// The tag charged for allocations on this thread. Const-initialized
    /// and `Copy` so the allocator itself can read it without ever
    /// allocating or running lazy initializers.
    static CURRENT_TAG: Cell<u8> = const { Cell::new(Tag::Other as u8) };
}

/// Sentinel for "scope recorded nothing" (accounting was off at entry,
/// or thread-local storage was unavailable).
const NO_PREV: u8 = u8::MAX;

#[inline]
pub(crate) fn current_tag_index() -> u8 {
    // During thread teardown the TLS slot may already be gone; those
    // stragglers are ambient process state and belong to `Other`.
    CURRENT_TAG.try_with(Cell::get).unwrap_or(Tag::Other as u8)
}

/// RAII tag scope: allocations on the current thread are charged to
/// `tag` until the guard drops, which restores the previous tag.
///
/// Entering is a no-op (and Drop restores nothing) while accounting is
/// disabled, so scattered scopes cost one relaxed load each when the
/// feature is off. The guard is `!Send`: it must drop on the thread
/// that entered it.
#[derive(Debug)]
pub struct MemScope {
    prev: u8,
    _not_send: PhantomData<*const ()>,
}

impl MemScope {
    /// Enter `tag` on the current thread, returning the restoring guard.
    ///
    /// `#[inline]`: scopes sit on per-packet paths in other crates;
    /// inlining reduces the disabled case to the one relaxed load.
    #[inline]
    pub fn enter(tag: Tag) -> MemScope {
        if !accounting_enabled() {
            return MemScope { prev: NO_PREV, _not_send: PhantomData };
        }
        let prev = CURRENT_TAG.try_with(|c| c.replace(tag as u8)).unwrap_or(NO_PREV);
        MemScope { prev, _not_send: PhantomData }
    }
}

impl Drop for MemScope {
    #[inline]
    fn drop(&mut self) {
        if self.prev != NO_PREV {
            let _ = CURRENT_TAG.try_with(|c| c.set(self.prev));
        }
    }
}

/// Manual, non-RAII variant of [`MemScope`] for per-packet hot paths:
/// returns an opaque token to hand back to [`tag_restore`].
///
/// A guard with a `Drop` impl inside a function that runs per packet
/// costs far more than its loads: the live guard adds drop glue to
/// every exit path, unwind landing pads around every call it spans,
/// and register pressure — measured at several percent of end-to-end
/// pipeline throughput even with accounting *off* (see `EXPERIMENTS.md`).
/// The manual pair keeps the disabled case to one relaxed load and
/// leaves the enclosing function free of cleanup paths. The price: if
/// the region between swap and restore panics, the restore is skipped
/// and the unwinding thread keeps the entered tag. That can only
/// misattribute later allocations on that dying thread — it cannot
/// unbalance charge/debit pairing, because debits follow each block's
/// header, not the thread tag. Cold paths should keep using
/// [`MemScope`].
#[inline]
pub fn tag_swap(tag: Tag) -> u8 {
    if !accounting_enabled() {
        return NO_PREV;
    }
    CURRENT_TAG.try_with(|c| c.replace(tag as u8)).unwrap_or(NO_PREV)
}

/// Restore the tag saved by [`tag_swap`]. No-op on the token a
/// disabled swap returned.
#[inline]
pub fn tag_restore(prev: u8) {
    if prev != NO_PREV {
        let _ = CURRENT_TAG.try_with(|c| c.set(prev));
    }
}

/// A point-in-time copy of one account's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Bytes currently allocated and not yet freed under this tag.
    pub live_bytes: i64,
    /// Blocks currently allocated and not yet freed under this tag.
    pub live_allocs: i64,
    /// High-water mark of `live_bytes` since process start (or the
    /// last [`reset_window`]).
    pub peak_bytes: i64,
    /// Cumulative bytes ever charged to this tag.
    pub total_bytes: u64,
    /// Cumulative allocations ever charged to this tag.
    pub total_allocs: u64,
}

/// Snapshot one tag's account.
pub fn tag_stats(tag: Tag) -> TagStats {
    account::snapshot(tag as usize)
}

/// Snapshot the process-global account (all tags combined; its
/// `peak_bytes` is the portable RSS-pressure fallback).
pub fn global_stats() -> TagStats {
    account::snapshot(account::GLOBAL)
}

/// Structured end-of-run memory report: every tag's stats, the global
/// account, and the kernel's `VmHWM` when available.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Per-tag snapshots, in `Tag` declaration order.
    tags: [TagStats; TAG_COUNT],
    /// All-tags-combined account.
    pub global: TagStats,
    /// `/proc/self/status` `VmHWM` in bytes, when the platform exposes
    /// it.
    pub vm_hwm_bytes: Option<u64>,
}

impl MemReport {
    /// Iterate `(tag, stats)` pairs in account order.
    pub fn tags(&self) -> impl Iterator<Item = (Tag, &TagStats)> {
        Tag::ALL.iter().copied().zip(self.tags.iter())
    }

    /// Peak RSS in bytes: kernel `VmHWM` when available, otherwise the
    /// tracked global peak of accounted live bytes (a lower bound —
    /// it excludes allocator slack and non-heap memory).
    pub fn peak_rss_bytes(&self) -> u64 {
        self.vm_hwm_bytes.unwrap_or(self.global.peak_bytes.max(0) as u64)
    }

    /// Render the report as an aligned text table (one row per tag,
    /// then the global account and the RSS line).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>14} {:>14} {:>12}\n",
            "tag", "live-bytes", "live-allocs", "peak-bytes", "cum-bytes", "cum-allocs"
        ));
        for (tag, st) in self.tags() {
            out.push_str(&format!(
                "{:<10} {:>14} {:>12} {:>14} {:>14} {:>12}\n",
                tag.name(),
                st.live_bytes,
                st.live_allocs,
                st.peak_bytes,
                st.total_bytes,
                st.total_allocs
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>14} {:>14} {:>12}\n",
            "global",
            self.global.live_bytes,
            self.global.live_allocs,
            self.global.peak_bytes,
            self.global.total_bytes,
            self.global.total_allocs
        ));
        match self.vm_hwm_bytes {
            Some(v) => out.push_str(&format!("peak rss (VmHWM): {v} bytes\n")),
            None => out.push_str(&format!(
                "peak rss: VmHWM unavailable; tracked peak {} bytes\n",
                self.global.peak_bytes.max(0)
            )),
        }
        out
    }
}

/// Take a full memory report now.
pub fn report() -> MemReport {
    let mut tags = [TagStats::default(); TAG_COUNT];
    for (i, slot) in tags.iter_mut().enumerate() {
        *slot = account::snapshot(i);
    }
    MemReport { tags, global: account::snapshot(account::GLOBAL), vm_hwm_bytes: vm_hwm_bytes() }
}

/// Parse `VmHWM` (peak resident set size) from `/proc/self/status`.
/// Returns `None` off Linux or when the file is unreadable — callers
/// fall back to the tracked global peak.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Leak gate: return every run-scoped tag (see [`Tag::RUN_SCOPED`])
/// whose live bytes exceed `epsilon_bytes`, with its live count.
/// After a run's `RunOutput` is dropped the expected answer is empty —
/// a small epsilon absorbs long-lived stragglers like interned span
/// names charged while a stage scope was active.
pub fn leak_check(epsilon_bytes: i64) -> Vec<(Tag, i64)> {
    Tag::RUN_SCOPED
        .iter()
        .copied()
        .filter_map(|tag| {
            let live = tag_stats(tag).live_bytes;
            (live > epsilon_bytes).then_some((tag, live))
        })
        .collect()
}

/// Start a fresh measurement window: reset every account's peak to its
/// current live level and zero the cumulative counters. The benchmark
/// (`cargo run --release -p ah-perf -- all`) calls this before an
/// accounted run so per-workload peaks are comparable.
/// Live counts are never touched (they track real outstanding blocks).
pub fn reset_window() {
    account::reset_window();
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests exercise only the scope/report plumbing; the
    // allocator itself is covered by `tests/accounting.rs`, which
    // installs `TaggedSystem` as the test binary's global allocator.

    #[test]
    fn scope_restores_previous_tag() {
        set_accounting(true);
        assert_eq!(current_tag_index(), Tag::Other as u8);
        {
            let _a = MemScope::enter(Tag::Mux);
            assert_eq!(current_tag_index(), Tag::Mux as u8);
            {
                let _b = MemScope::enter(Tag::Wal);
                assert_eq!(current_tag_index(), Tag::Wal as u8);
            }
            assert_eq!(current_tag_index(), Tag::Mux as u8);
        }
        assert_eq!(current_tag_index(), Tag::Other as u8);
        set_accounting(false);
    }

    #[test]
    fn disabled_scope_is_inert() {
        set_accounting(false);
        let _a = MemScope::enter(Tag::Telescope);
        assert_eq!(current_tag_index(), Tag::Other as u8);
    }

    #[test]
    fn tag_names_and_run_scope() {
        for tag in Tag::ALL {
            assert!(!tag.name().is_empty());
        }
        assert_eq!(Tag::RUN_SCOPED.len(), 6);
        assert!(!Tag::RUN_SCOPED.contains(&Tag::Trace));
        assert!(!Tag::RUN_SCOPED.contains(&Tag::Obs));
        assert!(!Tag::RUN_SCOPED.contains(&Tag::Other));
    }

    #[test]
    fn report_renders_every_tag() {
        let rendered = report().render();
        for tag in Tag::ALL {
            assert!(rendered.contains(tag.name()), "missing {} row", tag.name());
        }
        assert!(rendered.contains("global"));
        assert!(rendered.contains("peak rss"));
    }

    #[test]
    fn vm_hwm_parses_on_linux() {
        // On Linux the file exists and VmHWM must parse to a sane
        // nonzero figure; elsewhere `None` is the contract.
        if std::path::Path::new("/proc/self/status").exists() {
            let hwm = vm_hwm_bytes().expect("VmHWM parses");
            assert!(hwm > 0);
        } else {
            assert_eq!(vm_hwm_bytes(), None);
        }
    }
}
