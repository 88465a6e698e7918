//! The workspace's one counting allocator: every allocation gate and
//! byte-level test reads its numbers from here.
//!
//! [`Counting`] forwards every call unchanged to [`System`] and counts:
//!
//! * allocation events, process-wide ([`allocs`]): `alloc`,
//!   `alloc_zeroed` and `realloc`;
//! * bytes allocated by the calling thread ([`allocated_bytes`]); a
//!   `realloc` adds its new size;
//! * bytes freed by the calling thread ([`freed_bytes`]); a `realloc`
//!   adds its old size.
//!
//! So the bytes a thread holds live are `allocated_bytes() -
//! freed_bytes()`, a `realloc` moving them by `new - old`. The per-thread
//! counts leave other threads' work out of a delta; the event counts
//! take in every thread, for a census of a whole process.
//!
//! A binary or test installs it with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static A: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! This crate is the one place the workspace's `unsafe_code = "deny"` is
//! lifted: `GlobalAlloc` is an `unsafe` trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator; install it as the `#[global_allocator]`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // (allocated, freed) bytes. Const-initialised and without a
    // destructor: touching it inside the allocator neither allocates nor
    // registers anything.
    static BYTES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn tally(allocated: usize, freed: usize) {
    // A thread being torn down may allocate or free after its slot is
    // gone: that work goes uncounted.
    let _ = BYTES.try_with(|bytes| {
        let (a, f) = bytes.get();
        bytes.set((a + allocated as u64, f + freed as u64));
    });
}

fn bytes() -> (u64, u64) {
    BYTES.try_with(Cell::get).unwrap_or_default()
}

/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) in the whole
/// process so far.
#[must_use]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes the calling thread has allocated so far; a `realloc` counts its
/// new size.
#[must_use]
pub fn allocated_bytes() -> u64 {
    bytes().0
}

/// Bytes the calling thread has freed so far; a `realloc` counts its old
/// size.
#[must_use]
pub fn freed_bytes() -> u64 {
    bytes().1
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        tally(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        tally(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        tally(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, layout.size());
        System.dealloc(ptr, layout)
    }
}
