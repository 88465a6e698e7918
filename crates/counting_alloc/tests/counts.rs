//! The counters, checked against allocations whose sizes are known.
//!
//! The event counts are process-wide, so the checks run in sequence in
//! one test: a second test running beside it would move them.

use counting_alloc::{allocated_bytes, allocs, freed_bytes};
use std::hint::black_box;
use std::sync::Barrier;
use std::thread;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

/// Bytes this thread holds: allocated minus freed.
fn live_bytes() -> i64 {
    allocated_bytes() as i64 - freed_bytes() as i64
}

/// A snapshot of all three counters, as seen from this thread.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Counts {
    allocs: u64,
    allocated: u64,
    live: i64,
}

fn counts() -> Counts {
    Counts {
        allocs: allocs(),
        allocated: allocated_bytes(),
        live: live_bytes(),
    }
}

/// The moves from `before` to now.
fn since(before: Counts) -> Counts {
    let now = counts();
    Counts {
        allocs: now.allocs - before.allocs,
        allocated: now.allocated - before.allocated,
        live: now.live - before.live,
    }
}

#[test]
fn each_counter_moves_by_what_the_allocation_asked_for() {
    // Allocate: one event, 1000 bytes on this thread, 1000 live.
    let start = counts();
    let mut v: Vec<u8> = Vec::with_capacity(1000);
    black_box(&mut v);
    let moved = since(start);
    assert_eq!(
        moved,
        Counts {
            allocs: 1,
            allocated: 1000,
            live: 1000
        },
        "with_capacity(1000)"
    );

    // Grow by `realloc`: one more event and the new size allocated, the
    // old size freed, so live bytes move by new - old.
    let before = counts();
    v.reserve_exact(3000);
    assert_eq!(v.capacity(), 3000);
    black_box(&mut v);
    let moved = since(before);
    assert_eq!(
        moved,
        Counts {
            allocs: 1,
            allocated: 3000,
            live: 2000
        },
        "realloc 1000 -> 3000"
    );

    // Drop: no allocation event, and live bytes are back where they
    // started.
    let before = counts();
    drop(v);
    let moved = since(before);
    assert_eq!((moved.allocs, moved.allocated), (0, 0));
    assert_eq!(live_bytes(), start.live, "dropping frees everything");

    // Another thread's allocation moves the process-wide events, and
    // that thread's bytes, but not this thread's bytes.
    let (go, done) = (Barrier::new(2), Barrier::new(2));
    thread::scope(|s| {
        let other = s.spawn(|| {
            go.wait();
            let before = allocated_bytes();
            let v: Vec<u8> = Vec::with_capacity(4096);
            black_box(&v);
            let on_that_thread = allocated_bytes() - before;
            done.wait();
            on_that_thread
        });
        let before = counts();
        go.wait();
        done.wait();
        let moved = since(before);
        assert!(moved.allocs >= 1, "the other thread allocated: {moved:?}");
        assert_eq!(
            (moved.allocated, moved.live),
            (0, 0),
            "not this thread's bytes"
        );
        assert_eq!(other.join().unwrap(), 4096, "that thread's bytes");
    });
}
