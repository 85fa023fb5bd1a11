//! The allocator shim: a [`GlobalAlloc`] wrapper over [`System`] that
//! tags every block with the subsystem charged for it.
//!
//! # Layout
//!
//! Every allocation is padded with a front header region of
//! `offset = max(align, 8)` bytes; the user pointer is `base + offset`
//! and the last 8 bytes of the header region (at `user - 8`) hold a
//! `u64`:
//!
//! ```text
//! [63..32] magic "ahme"   — debug-mode corruption tripwire
//! [8]      charged bit    — block is credited to an account
//! [7..0]   tag index      — which account (only meaningful if charged)
//! ```
//!
//! Because `offset` is a multiple of the alignment, the user pointer
//! keeps the requested alignment, and because the offset is derived
//! purely from the layout, `dealloc`/`realloc` recover the base
//! pointer without trusting the header. The header's *charged bit* —
//! not the global switch — decides debits, so a block charged while
//! accounting was on still drains its account if freed after the
//! switch is flipped off, and accounts can never go negative from
//! toggling.
//!
//! All functions here are called from inside the global allocator, so
//! they must never allocate or panic: accounting is plain relaxed
//! atomics ([`account`](crate::account)) and the thread-local tag is a
//! const-initialized `Cell` read with `try_with`.

#![allow(
    unsafe_code,
    reason = "this module IS the allocator shim; every unsafe block carries a SAFETY comment, and the public scope/account API is safe"
)]

use crate::account;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr;

/// Bytes reserved immediately below the user pointer for the header
/// word.
const HEADER: usize = 8;
/// "ahme" — spotted in the high half of every header word.
const MAGIC_HI: u64 = 0x6168_6d65;
/// Header bit: this block is credited to the account in the low byte.
const CHARGED: u64 = 1 << 8;

/// Header offset for an alignment: a multiple of `align` that leaves
/// at least [`HEADER`] bytes below the user pointer.
#[inline]
fn offset_for(align: usize) -> usize {
    align.max(HEADER)
}

/// The padded layout actually passed to the system allocator, plus the
/// user-pointer offset. `None` when padding would overflow the layout
/// rules (the caller then reports allocation failure).
#[inline]
fn padded(layout: Layout) -> Option<(usize, Layout)> {
    let offset = offset_for(layout.align());
    let size = layout.size().checked_add(offset)?;
    let padded = Layout::from_size_align(size, layout.align()).ok()?;
    Some((offset, padded))
}

/// Abort (no panic machinery, which could allocate re-entrantly) on a
/// corrupt header in debug builds; release builds skip the check.
#[inline]
fn check_magic(hdr: u64) {
    if cfg!(debug_assertions) && (hdr >> 32) != MAGIC_HI {
        std::process::abort();
    }
}

/// Compose the header word written at `user - 8`, charging the account
/// when accounting is enabled. Returns the header and whether it
/// charged `size` bytes.
#[inline]
fn header_for_new_block(size: usize) -> u64 {
    if crate::accounting_enabled() {
        let tag = crate::current_tag_index();
        account::charge(tag, size);
        (MAGIC_HI << 32) | CHARGED | tag as u64
    } else {
        (MAGIC_HI << 32) | crate::Tag::Other as u64
    }
}

/// Tag-accounting wrapper over the system allocator. Install it as the
/// program's allocator to activate per-subsystem accounting:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ah_mem::TaggedSystem = ah_mem::TaggedSystem::new();
/// ```
///
/// Until [`set_accounting(true)`](crate::set_accounting) is called the
/// wrapper only pads each block and writes the 8-byte header.
#[derive(Debug, Default, Clone, Copy)]
pub struct TaggedSystem;

impl TaggedSystem {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> TaggedSystem {
        TaggedSystem
    }
}

// SAFETY: the wrapper delegates every allocation to `System` with a
// layout padded by `offset = max(align, 8)`: same alignment, size
// grown by a multiple of the alignment, so `base + offset` satisfies
// the caller's layout and leaves the header word inside the block.
// `dealloc`/`realloc` recompute the identical offset from the caller's
// layout (the GlobalAlloc contract guarantees it matches the original
// `alloc`) to recover the exact base pointer and padded layout handed
// to `System`. Accounting is relaxed atomics and a const-init TLS read
// — no allocation, no panic — so the shim cannot re-enter itself.
unsafe impl GlobalAlloc for TaggedSystem {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some((offset, padded)) = padded(layout) else {
            return ptr::null_mut();
        };
        // SAFETY: `padded` is a valid nonzero-size layout (user size
        // plus a nonzero header offset, overflow-checked above).
        let base = unsafe { System.alloc(padded) };
        if base.is_null() {
            return base;
        }
        // SAFETY: `base` points at `padded.size() >= offset + size`
        // bytes we own; `user = base + offset` stays in-bounds, and the
        // header word at `user - HEADER` lies within the padding
        // (`offset >= HEADER`). `write_unaligned` because the header
        // slot is only 8-aligned when the block is.
        unsafe {
            let user = base.add(offset);
            let hdr = header_for_new_block(layout.size());
            user.sub(HEADER).cast::<u64>().write_unaligned(hdr);
            user
        }
    }

    // SAFETY: caller upholds the GlobalAlloc contract (valid layout);
    // delegation and header placement are identical to `alloc`.
    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some((offset, padded)) = padded(layout) else {
            return ptr::null_mut();
        };
        // SAFETY: as in `alloc`; the user region past the header stays
        // zeroed because the header write touches only the padding.
        unsafe {
            let base = System.alloc_zeroed(padded);
            if base.is_null() {
                return base;
            }
            let user = base.add(offset);
            let hdr = header_for_new_block(layout.size());
            user.sub(HEADER).cast::<u64>().write_unaligned(hdr);
            user
        }
    }

    // SAFETY: caller passes the pointer and layout from a prior `alloc`
    // on this allocator, per the GlobalAlloc contract.
    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let offset = offset_for(layout.align());
        // SAFETY: a live block exists with this layout (GlobalAlloc
        // contract), so the identical padded size/align pair already
        // passed `Layout` validation in `alloc`; recomputing it
        // unchecked avoids re-validating on the free hot path.
        let padded =
            unsafe { Layout::from_size_align_unchecked(layout.size() + offset, layout.align()) };
        // SAFETY: `ptr` came from our `alloc` with this layout, so the
        // header word sits at `ptr - HEADER` inside the block and the
        // base pointer handed to `System` is `ptr - offset` with the
        // identical recomputed `padded` layout.
        unsafe {
            let hdr = ptr.sub(HEADER).cast::<u64>().read_unaligned();
            check_magic(hdr);
            if hdr & CHARGED != 0 {
                account::discharge((hdr & 0xff) as u8, layout.size());
            }
            System.dealloc(ptr.sub(offset), padded);
        }
    }

    // SAFETY: caller passes a live block's pointer and layout, per the
    // GlobalAlloc contract; the new size is overflow-checked below.
    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some((offset, old_padded)) = padded(layout) else {
            return ptr::null_mut();
        };
        let Some(new_padded_size) = new_size.checked_add(offset) else {
            return ptr::null_mut();
        };
        if Layout::from_size_align(new_padded_size, layout.align()).is_err() {
            return ptr::null_mut();
        }
        // SAFETY: `ptr - offset`/`old_padded` reconstruct the original
        // system allocation (same deterministic padding), and the new
        // padded size is layout-valid for this alignment (checked
        // above). On failure the old block is untouched, so accounts
        // stay accurate by doing nothing.
        let new_base = unsafe { System.realloc(ptr.sub(offset), old_padded, new_padded_size) };
        if new_base.is_null() {
            return new_base;
        }
        // SAFETY: the system allocator preserved the leading
        // `min(old, new)` bytes, which include our header region
        // (alignment, and hence `offset`, is unchanged), so the header
        // word at `user - HEADER` is the original block's.
        unsafe {
            let user = new_base.add(offset);
            let hdr_slot = user.sub(HEADER).cast::<u64>();
            let hdr = hdr_slot.read_unaligned();
            check_magic(hdr);
            if hdr & CHARGED != 0 {
                // Keep the charge under the block's original tag.
                account::adjust((hdr & 0xff) as u8, layout.size(), new_size);
            } else if crate::accounting_enabled() {
                // Block predates accounting: start charging it now, at
                // its new size, under the current scope.
                let tag = crate::current_tag_index();
                account::charge(tag, new_size);
                hdr_slot.write_unaligned((MAGIC_HI << 32) | CHARGED | tag as u64);
            }
            user
        }
    }
}
