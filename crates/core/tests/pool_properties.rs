//! Property tests for the buffer pool: size-class selection must hand
//! back the smallest fitting class, the hit/miss/outstanding counters
//! must account for every acquisition at every step, and buffers must
//! recycle exactly when their last reference drops — a hit whenever a
//! buffer of the class is free, the very allocation that went home.

use infopipes::{BufferPool, PayloadBytes};
use proptest::prelude::*;

/// The pool's default size-class ladder (kept in sync with `pool.rs`;
/// asserted against real capacities below, so drift fails the test).
const CLASSES: [usize; 7] = [
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
];

/// The smallest class that fits `n`, or `None` when `n` is oversize.
fn expected_class(n: usize) -> Option<usize> {
    CLASSES.iter().copied().find(|&c| c >= n)
}

fn request_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..(2 << 20), 1..32)
}

proptest! {
    /// An acquired buffer always has at least the requested capacity,
    /// and lands in the smallest size class that fits the request.
    #[test]
    fn size_class_selection_is_smallest_fit(sizes in request_sizes()) {
        let pool = BufferPool::new();
        for n in sizes {
            let buf = pool.acquire(n);
            prop_assert!(buf.capacity() >= n, "capacity {} < request {n}", buf.capacity());
            if let Some(class) = expected_class(n) {
                prop_assert_eq!(buf.capacity(), class, "request {} classed wrongly", n);
            }
        }
    }

    /// Counter accounting: every acquisition is exactly one hit or one
    /// miss, oversize requests are counted and never the pool's, and
    /// `outstanding` is exact after every seal and every drop.
    #[test]
    fn counters_account_for_every_acquisition(sizes in request_sizes()) {
        let pool = BufferPool::new();
        let mut live = Vec::new();
        let mut expect_oversize = 0u64;
        let mut classed = 0;
        for &n in &sizes {
            match expected_class(n) {
                Some(_) => classed += 1,
                None => expect_oversize += 1,
            }
            live.push((pool.acquire(n).seal(), n));
            let stats = pool.stats();
            prop_assert_eq!(stats.outstanding, classed);
            prop_assert_eq!(stats.pooled, classed, "nothing is free yet");
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, sizes.len() as u64);
        prop_assert_eq!(stats.misses, sizes.len() as u64, "nothing came home yet");
        prop_assert_eq!(stats.oversize, expect_oversize);

        // Each dropped payload hands its classed buffer back — fewer
        // than `per_class` per class here, so the pool keeps them all.
        let pooled = classed;
        for (payload, n) in live {
            drop(payload);
            if expected_class(n).is_some() {
                classed -= 1;
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.outstanding, classed);
            prop_assert_eq!(stats.pooled, pooled);
        }
        prop_assert_eq!(pool.stats().outstanding, 0);
    }

    /// The free list against a model, one class, a shallow `per_class`:
    /// an acquire is a hit iff a buffer is free, and then hands out an
    /// allocation that went home; clones keep a buffer out until the
    /// last one drops; `outstanding` and `pooled` (= free + outstanding)
    /// are exact after every step; at most `per_class` stay free.
    #[test]
    fn stats_follow_the_free_list_model(
        ops in proptest::collection::vec((0usize..4, 0usize..64), 1..96),
        per_class in 1usize..5,
    ) {
        let pool = BufferPool::with_classes(&[128], per_class);
        // Checked-out buffers by address, with every live alias.
        let mut out: Vec<(*const u8, Vec<PayloadBytes>)> = Vec::new();
        let mut free: Vec<*const u8> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (op, pick) in ops {
            match op {
                // Acquire, write, seal.
                0 | 1 => {
                    let mut buf = pool.acquire(100);
                    prop_assert!(buf.buf_mut().is_empty());
                    buf.buf_mut().push(pick as u8);
                    let sealed = buf.seal();
                    if free.is_empty() {
                        misses += 1;
                    } else {
                        hits += 1;
                        let at = free.iter().position(|&p| p == sealed.as_ptr());
                        prop_assert!(at.is_some(), "a hit must reuse a buffer that came home");
                        free.swap_remove(at.unwrap());
                    }
                    prop_assert!(out.iter().all(|(p, _)| *p != sealed.as_ptr()),
                        "a checked-out buffer was handed out again");
                    out.push((sealed.as_ptr(), vec![sealed]));
                }
                // Alias a live buffer once more.
                2 if !out.is_empty() => {
                    let at = pick % out.len();
                    let views = &mut out[at].1;
                    let alias = views[0].slice(..);
                    views.push(alias);
                }
                // Drop one alias; the last one sends the buffer home.
                3 if !out.is_empty() => {
                    let at = pick % out.len();
                    out[at].1.pop();
                    if out[at].1.is_empty() {
                        let (ptr, _) = out.swap_remove(at);
                        if free.len() < per_class {
                            free.push(ptr);
                        }
                    }
                }
                _ => {}
            }
            for (ptr, views) in &out {
                prop_assert!(views.iter().all(|v| v.as_ptr() == *ptr && v.len() == 1));
            }
            let stats = pool.stats();
            prop_assert_eq!((stats.hits, stats.misses), (hits, misses));
            prop_assert_eq!(stats.outstanding, out.len());
            prop_assert_eq!(stats.pooled, out.len() + free.len());
        }
    }

    /// Recycle-on-last-drop: once a sealed payload's final reference
    /// drops, re-acquiring the same class is a pool hit, and the hit
    /// buffer never shows stale bytes.
    #[test]
    fn released_buffers_recycle_as_hits(n in 0usize..(1 << 20), fill in any::<u8>()) {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(n);
        buf.buf_mut().resize(n.min(64), fill);
        let sealed = buf.seal();
        let held = sealed.clone();
        drop(sealed);
        // A still-live clone blocks recycling: the next acquire misses.
        drop(pool.acquire(n));
        prop_assert_eq!(pool.stats().hits, 0, "aliased buffer must not be reissued");
        drop(held);
        let mut again = pool.acquire(n);
        prop_assert_eq!(pool.stats().hits, 1, "released buffer must recycle");
        prop_assert!(again.buf_mut().is_empty(), "recycled buffers come back cleared");
    }
}
