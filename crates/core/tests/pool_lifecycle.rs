//! Ownership between a `BufferPool` and its buffers, measured in bytes:
//! a buffer finds its way home without keeping the pool alive, and the
//! pool retains free buffers without keeping itself alive — so whichever
//! goes last, nothing is left allocated.

use infopipes::{BufferPool, PayloadBytes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tallies, per thread, the bytes allocated and not yet freed, then
/// delegates to [`System`]. Per thread, so the harness and other tests
/// do not show in a test's delta.
struct LiveBytes;

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor registers anything.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn tally(delta: isize) {
    // A thread being torn down may free after its slot is gone.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches no
// allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

const CLASS: usize = 4096;

fn sealed(pool: &BufferPool, fill: u8) -> PayloadBytes {
    let mut buf = pool.acquire(1000);
    buf.buf_mut().resize(1000, fill);
    buf.seal()
}

/// The pool goes first: its free buffers are freed with it, live views
/// stay readable, and their buffers are freed as they drop.
#[test]
fn views_outlive_the_pool_and_nothing_stays_behind() {
    let before = live_bytes();
    let pool = BufferPool::with_classes(&[CLASS], 8);
    let mut views: Vec<PayloadBytes> = (0..8).map(|i| sealed(&pool, i)).collect();
    let held = views.split_off(4);
    drop(views);
    let stats = pool.stats();
    assert_eq!((stats.outstanding, stats.pooled), (4, 8));
    let with_pool = live_bytes();
    assert!(with_pool - before >= 8 * CLASS as isize);

    drop(pool.clone()); // not the last handle: nothing moves
    assert_eq!(live_bytes(), with_pool);
    drop(pool);
    let without_pool = live_bytes();
    assert!(
        with_pool - without_pool >= 4 * CLASS as isize,
        "the free list must die with the last handle, freed {} B",
        with_pool - without_pool
    );
    for (view, fill) in held.iter().zip(4u8..) {
        assert_eq!(view.len(), 1000);
        assert!(view.iter().all(|&b| b == fill), "view {fill} changed");
    }

    drop(held);
    assert_eq!(
        live_bytes(),
        before,
        "buffers of a dead pool must be freed, not parked"
    );
}

/// The views go first: the pool retains up to `per_class` of their
/// buffers, and frees every one of them when its last handle drops.
#[test]
fn the_pool_outlives_its_views_and_frees_what_it_retained() {
    let before = live_bytes();
    let pool = BufferPool::with_classes(&[CLASS], 4);
    let views: Vec<PayloadBytes> = (0..6).map(|i| sealed(&pool, i)).collect();
    let peak = live_bytes();
    drop(views);
    let stats = pool.stats();
    assert_eq!((stats.outstanding, stats.pooled), (0, 4));
    assert!(
        peak - live_bytes() >= 2 * CLASS as isize,
        "buffers beyond per_class are freed on the way home"
    );
    assert!(live_bytes() - before >= 4 * CLASS as isize);
    drop(pool);
    assert_eq!(live_bytes(), before, "a pool must not keep itself alive");
}
