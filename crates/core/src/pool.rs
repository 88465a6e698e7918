//! `BufferPool`: fixed-size-class recycled buffers for the sealing step
//! of the payload path.
//!
//! [`PayloadBytes`] made sealing the *only copy* on the data path; this
//! module makes it the only *allocation* too. A pool hands out writable
//! [`PoolBuffer`]s drawn from per-size-class free lists; sealing one
//! yields an ordinary [`PayloadBytes`] that is shared, sliced, and
//! transmitted exactly like a heap-sealed buffer — downstream layers
//! cannot tell the difference.
//!
//! # The recycle-on-last-drop contract
//!
//! A pooled buffer is reusable only when **the last `PayloadBytes`
//! referring to it is dropped** — never earlier:
//!
//! * Sealing hands the caller the buffer's only reference; clones and
//!   slices take further references, as usual. The pool keeps none: a
//!   buffer that is checked out is known to the pool only as a count.
//! * The view that finds itself the buffer's sole owner as it drops
//!   pushes the whole buffer — the bytes and their refcount box together
//!   — onto its size class's free list. While any alias — a clone held by
//!   a producer, a slice parked in a transport queue — is alive, nobody
//!   is the sole owner, so an alias can never observe its bytes change
//!   underneath it (the immutability invariant of [`PayloadBytes`] holds
//!   for pooled backings too; the transport conformance suite asserts it
//!   across every backend). Two threads that drop the last two views at
//!   the same instant may each see the other's reference: the buffer is
//!   then freed instead of recycled — at most once home, never early.
//! * There is no explicit release call and nothing to leak: dropping the
//!   last alias *is* the return to the pool. A buffer finds its way home
//!   through a `Weak` handle, so the pool and its buffers never keep each
//!   other alive: dropping the last [`BufferPool`] handle frees the free
//!   lists at once, and buffers still checked out are freed as their
//!   aliases die.
//!
//! [`BufferPool::acquire`] is one lock and one pop: a hit whenever any
//! buffer of the class is free, and a hit performs **zero heap
//! allocations** — the pop, the clear, the serializer's writes into
//! retained capacity, and the seal are all allocation-free
//! (`crates/bench/tests/alloc_gates.rs` gates a warmed pooled inproc
//! lane at exactly 0 allocations per frame). A miss means the pool had to
//! allocate. The pool buys zero allocations, not speed: a pooled buffer
//! costs two uncontended lock round trips and a `Weak` upgrade, more than
//! the two thread-cache `malloc`/`free` pairs of sealing a fresh `Vec`.
//!
//! A view of a few bytes pins its whole buffer until it drops. That
//! holds for slices and equally for fields decoded as views out of a
//! received buffer ([`PayloadBytes::decode_with`]): a consumer that
//! parks decoded payloads keeps the receive pool's buffers checked out.
//! [`PayloadBytes::to_vec`] detaches when that matters.
//!
//! # Tuning knobs
//!
//! * **Size classes** ([`BufferPool::with_classes`]): an acquire is
//!   served from the smallest class ≥ the requested capacity; requests
//!   above the largest class fall back to plain unpooled allocations
//!   (counted in [`PoolStats::oversize`]).
//! * **Per-class budget** (`budget`, in bytes): a class keeps at most
//!   ⌊budget / class size⌋ *free* buffers. Any number may be checked out
//!   at once; a buffer that comes home to a full free list is freed. The
//!   free list grows on demand, and only buffers that were live at the
//!   same time can come home, so it never outgrows the class's
//!   high-water mark of live buffers: retention keeps memory the stream
//!   already held at its peak. A bigger budget rides out deeper bursts
//!   without allocating; each retained buffer pins its class's bytes.

use crate::payload::PayloadBytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Default size classes: 256 B … 1 MiB in 4x steps, covering control
/// messages through video frames.
const DEFAULT_CLASSES: [usize; 7] = [
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
];

/// Default per-class budget of free bytes: 512 of the 4 KiB buffers a
/// 1 KiB packet plus its header seals into.
const DEFAULT_BUDGET: usize = 2 << 20;

/// The backing memory of one pooled buffer, and its way home.
#[derive(Debug)]
pub(crate) struct PooledMem {
    data: Vec<u8>,
    /// The pool to return to. Weak, so a buffer never keeps its pool
    /// alive (nor, from a free list, itself); dangling for oversize
    /// buffers, which have no home.
    home: Weak<PoolShared>,
    /// Index of the size class this buffer belongs to.
    class: usize,
}

impl Drop for PooledMem {
    fn drop(&mut self) {
        // Freed, not recycled: the class has one buffer fewer. (No
        // upgrade while the pool itself is going down — nobody is left
        // to read the count.)
        if let Some(pool) = self.home.upgrade() {
            pool.classes[self.class].state.lock().live -= 1;
        }
    }
}

/// One reference to a pooled buffer: what a [`PayloadBytes`] view (or an
/// unsealed [`PoolBuffer`]) holds. The reference that drops as the sole
/// owner takes the buffer home.
#[derive(Clone, Debug)]
pub(crate) struct PooledRef(
    /// `None` only inside `drop`, which moves the `Arc` out.
    Option<Arc<PooledMem>>,
);

impl PooledRef {
    fn mem(&self) -> &Arc<PooledMem> {
        self.0.as_ref().expect("present until dropped")
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.mem().data
    }

    pub(crate) fn ptr_eq(&self, other: &PooledRef) -> bool {
        Arc::ptr_eq(self.mem(), other.mem())
    }

    pub(crate) fn ref_count(&self) -> usize {
        Arc::strong_count(self.mem())
    }
}

impl Drop for PooledRef {
    fn drop(&mut self) {
        let Some(mut mem) = self.0.take() else { return };
        // Sole owner: nobody can see the bytes any more, take them home.
        // `get_mut` is the test — it also orders us after every other
        // view's last read — and the plain count before it spares the
        // many drops that are obviously not the last its exclusive check.
        if Arc::strong_count(&mem) != 1 || Arc::get_mut(&mut mem).is_none() {
            return;
        }
        let Some(pool) = mem.home.upgrade() else {
            return;
        };
        let class = &pool.classes[mem.class];
        let mut state = class.state.lock();
        if state.free.len() < class.keep {
            state.free.push(mem);
        } else {
            // Free list full: let the buffer go, outside the lock its
            // own drop takes.
            drop(state);
            drop(mem);
        }
    }
}

struct ClassState {
    /// Buffers nobody refers to, each the only reference to its memory.
    free: Vec<Arc<PooledMem>>,
    /// Buffers of this class in existence: free or checked out.
    live: usize,
}

struct SizeClass {
    size: usize,
    /// The most free buffers the class keeps: its budget over its size.
    keep: usize,
    state: Mutex<ClassState>,
}

struct PoolShared {
    classes: Vec<SizeClass>,
    hits: AtomicU64,
    misses: AtomicU64,
    oversize: AtomicU64,
}

/// A snapshot of pool counters (see [`BufferPool::stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Acquires served by recycling a previously used buffer.
    pub hits: u64,
    /// Acquires that had to allocate (includes `oversize`).
    pub misses: u64,
    /// Misses whose request exceeded the largest size class (served by a
    /// plain unpooled allocation).
    pub oversize: u64,
    /// Classed buffers currently checked out: being written, or sealed
    /// with a view still alive somewhere.
    pub outstanding: usize,
    /// Total classed buffers in existence (free + outstanding).
    pub pooled: usize,
}

impl PoolStats {
    /// The fraction of acquires that allocated, 0.0–1.0 — the
    /// memory-pressure signal feedback controllers consume (0.0 when
    /// nothing was acquired yet).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A pool of recycled byte buffers that seal into [`PayloadBytes`]. See
/// the module docs for the recycle-on-last-drop contract.
///
/// Cheap to clone (a shared handle); every clone draws from and recycles
/// into the same free lists.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// A pool with the default size classes (256 B – 1 MiB in 4x steps)
    /// and per-class budget (2 MiB of free buffers).
    #[must_use]
    pub fn new() -> BufferPool {
        BufferPool::with_classes(&DEFAULT_CLASSES, DEFAULT_BUDGET)
    }

    /// A pool with custom size classes, each keeping at most
    /// ⌊`budget` / class size⌋ free buffers (`budget` in bytes; a class
    /// larger than the budget keeps none). Classes are sorted and
    /// deduplicated; zero-sized classes are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no positive class size remains or `budget` is zero.
    #[must_use]
    pub fn with_classes(sizes: &[usize], budget: usize) -> BufferPool {
        let mut sizes: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert!(!sizes.is_empty(), "a pool needs at least one size class");
        assert!(budget > 0, "per-class budget must be positive");
        BufferPool {
            shared: Arc::new(PoolShared {
                classes: sizes
                    .into_iter()
                    .map(|size| SizeClass {
                        size,
                        keep: budget / size,
                        state: Mutex::new(ClassState {
                            free: Vec::new(),
                            live: 0,
                        }),
                    })
                    .collect(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                oversize: AtomicU64::new(0),
            }),
        }
    }

    /// Acquires a writable buffer with at least `min_capacity` bytes of
    /// capacity, recycled from the smallest fitting size class when one
    /// of its buffers is free (no live aliases), freshly allocated
    /// otherwise. The buffer starts empty.
    #[must_use]
    pub fn acquire(&self, min_capacity: usize) -> PoolBuffer {
        let shared = &self.shared;
        let Some(ci) = shared.classes.iter().position(|c| c.size >= min_capacity) else {
            // Above the largest class: a plain allocation with no way
            // home, freed normally when its last alias drops.
            shared.oversize.fetch_add(1, Ordering::Relaxed);
            shared.misses.fetch_add(1, Ordering::Relaxed);
            return PoolBuffer::new(PooledMem {
                data: Vec::with_capacity(min_capacity),
                home: Weak::new(),
                class: 0,
            });
        };
        let class = &shared.classes[ci];
        let recycled = {
            let mut state = class.state.lock();
            let recycled = state.free.pop();
            if recycled.is_none() {
                state.live += 1;
            }
            recycled
        };
        if let Some(mut mem) = recycled {
            Arc::get_mut(&mut mem)
                .expect("a free buffer has no other reference")
                .data
                .clear();
            shared.hits.fetch_add(1, Ordering::Relaxed);
            return PoolBuffer {
                mem: PooledRef(Some(mem)),
            };
        }
        shared.misses.fetch_add(1, Ordering::Relaxed);
        PoolBuffer::new(PooledMem {
            data: Vec::with_capacity(class.size),
            home: Arc::downgrade(shared),
            class: ci,
        })
    }

    /// A snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let mut free = 0;
        let mut pooled = 0;
        for class in &self.shared.classes {
            let state = class.state.lock();
            free += state.free.len();
            pooled += state.live;
        }
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            oversize: self.shared.oversize.load(Ordering::Relaxed),
            outstanding: pooled - free,
            pooled,
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("classes", &self.shared.classes.len())
            .field("stats", &stats)
            .finish()
    }
}

/// A writable buffer checked out of a [`BufferPool`]. Fill it through
/// [`PoolBuffer::buf_mut`], then [`PoolBuffer::seal`] it into an
/// immutable [`PayloadBytes`]. Dropping an unsealed buffer returns it to
/// the pool unused.
pub struct PoolBuffer {
    /// The only reference until sealed, so `buf_mut` hands out `&mut`
    /// soundly; dropped unsealed, it takes the buffer home like any last
    /// view.
    mem: PooledRef,
}

impl PoolBuffer {
    fn new(mem: PooledMem) -> PoolBuffer {
        PoolBuffer {
            mem: PooledRef(Some(Arc::new(mem))),
        }
    }

    /// The writable bytes (empty at acquire). Growing past the buffer's
    /// capacity works but allocates; the grown capacity is what gets
    /// recycled.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        let mem = self.mem.0.as_mut().expect("present until dropped");
        &mut Arc::get_mut(mem)
            .expect("writer holds the only reference")
            .data
    }

    /// Current capacity of the underlying buffer.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mem.mem().data.capacity()
    }

    /// Seals the written bytes into an immutable shared [`PayloadBytes`];
    /// the buffer goes home once every alias of the returned payload is
    /// gone. Allocation-free.
    #[must_use]
    pub fn seal(self) -> PayloadBytes {
        let len = self.mem.bytes().len();
        PayloadBytes::pooled(self.mem, len)
    }
}

impl std::fmt::Debug for PoolBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuffer")
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(outstanding, pooled)`, the two gauges most tests step through.
    fn gauges(pool: &BufferPool) -> (usize, usize) {
        let stats = pool.stats();
        (stats.outstanding, stats.pooled)
    }

    #[test]
    fn sealed_buffers_recycle_on_last_drop() {
        let pool = BufferPool::with_classes(&[64], 4 * 64);
        assert_eq!(gauges(&pool), (0, 0));
        let mut b = pool.acquire(16);
        assert_eq!(gauges(&pool), (1, 1), "a buffer being written is out");
        b.buf_mut().extend_from_slice(&[1, 2, 3]);
        let sealed = b.seal();
        let ptr = sealed.as_ptr();
        assert_eq!(&sealed[..], &[1, 2, 3]);
        assert_eq!(gauges(&pool), (1, 1));

        // While the payload is alive the buffer must not be reused.
        let mut other = pool.acquire(16);
        other.buf_mut().extend_from_slice(&[9; 3]);
        let poison = other.seal();
        assert_ne!(poison.as_ptr(), ptr, "live alias must not be reused");
        assert_eq!(&sealed[..], &[1, 2, 3], "alias unchanged");
        assert_eq!(gauges(&pool), (2, 2));

        // Dropping the last alias returns the buffer; the next acquire
        // reuses the same allocation.
        drop(sealed);
        assert_eq!(gauges(&pool), (1, 2), "home: free, still pooled");
        let mut again = pool.acquire(16);
        assert_eq!(gauges(&pool), (2, 2));
        again.buf_mut().extend_from_slice(&[7]);
        let resealed = again.seal();
        assert_eq!(resealed.as_ptr(), ptr, "recycled the same backing");
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        drop((resealed, poison));
        assert_eq!(gauges(&pool), (0, 2));
    }

    #[test]
    fn clones_and_slices_keep_the_buffer_checked_out() {
        let pool = BufferPool::with_classes(&[64], 4 * 64);
        let mut b = pool.acquire(8);
        b.buf_mut().extend_from_slice(&[5; 8]);
        let sealed = b.seal();
        let ptr = sealed.as_ptr();
        let slice = sealed.slice(2..6);
        let clone = sealed.clone();
        drop(sealed);
        assert_eq!(gauges(&pool), (1, 1), "two aliases, one buffer");
        drop(clone);
        // The slice still aliases the allocation: no reuse.
        let p2 = pool.acquire(8).seal();
        assert_ne!(p2.as_ptr(), ptr);
        assert_eq!(&slice[..], &[5; 4]);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(gauges(&pool), (2, 2));
        let ptr2 = p2.as_ptr();
        drop(slice);
        assert_eq!(gauges(&pool), (1, 2));
        drop(p2);
        assert_eq!(gauges(&pool), (0, 2));
        // Everything released: both allocations recycle, and nothing
        // else is handed out in their place.
        let (mut x, mut y) = (pool.acquire(8), pool.acquire(8));
        x.buf_mut().push(1);
        y.buf_mut().push(1);
        let mut got = [x.seal().as_ptr(), y.seal().as_ptr()];
        got.sort_unstable();
        let mut want = [ptr, ptr2];
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn size_class_selection_and_oversize() {
        let pool = BufferPool::with_classes(&[16, 64, 256], 2 * 256);
        assert!(pool.acquire(10).capacity() >= 10);
        assert_eq!(pool.acquire(16).capacity(), 16);
        assert_eq!(pool.acquire(17).capacity(), 64);
        assert_eq!(pool.acquire(256).capacity(), 256);
        // Above the largest class: served unpooled and counted.
        let big = pool.acquire(1000);
        assert!(big.capacity() >= 1000);
        assert_eq!(pool.stats().oversize, 1);
        assert_eq!(
            gauges(&pool),
            (0, 3),
            "an oversize buffer is not the pool's"
        );
        // Oversize buffers are never retained: dropping one adds nothing
        // to a free list, and the next oversize acquire is another miss,
        // never a hit. (Address inequality would be the obvious check,
        // but the system allocator may hand the freed block straight
        // back.)
        drop(big.seal());
        let before = pool.stats();
        drop(pool.acquire(1000).seal());
        let after = pool.stats();
        assert_eq!(after.oversize, 2);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.pooled, before.pooled);
        assert_eq!(after.outstanding, 0);
    }

    #[test]
    fn per_class_depth_bounds_retention() {
        // ⌊95 / 32⌋: two free buffers, the remainder buys nothing.
        let pool = BufferPool::with_classes(&[32], 95);
        let a = pool.acquire(8).seal();
        let b = pool.acquire(8).seal();
        let c = pool.acquire(8).seal();
        assert_eq!(gauges(&pool), (3, 3), "any number may be out at once");
        drop(a);
        assert_eq!(gauges(&pool), (2, 3));
        drop(b);
        assert_eq!(gauges(&pool), (1, 3));
        drop(c);
        assert_eq!(gauges(&pool), (0, 2), "free list capped by the budget");
    }

    /// The budget bounds the free buffers kept, not the buffers known:
    /// with that many sealed buffers alive, one more that comes home
    /// must still serve the next acquire.
    #[test]
    fn a_free_buffer_is_a_hit_however_many_are_out() {
        const KEEP: usize = 4;
        let pool = BufferPool::with_classes(&[32], KEEP * 32);
        let held: Vec<PayloadBytes> = (0..KEEP).map(|_| pool.acquire(8).seal()).collect();
        let extra = pool.acquire(8).seal();
        let ptr = extra.as_ptr();
        drop(extra);
        assert_eq!(gauges(&pool), (KEEP, KEEP + 1));
        let hits = pool.stats().hits;
        let mut again = pool.acquire(8);
        again.buf_mut().push(1);
        assert_eq!(pool.stats().hits, hits + 1, "a free buffer must be found");
        assert_eq!(again.seal().as_ptr(), ptr);
        drop(held);
        assert_eq!(gauges(&pool), (0, KEEP));
    }

    #[test]
    fn unsealed_drop_recycles() {
        let pool = BufferPool::with_classes(&[32], 4 * 32);
        let ptr = {
            let mut b = pool.acquire(8);
            b.buf_mut().push(1);
            b.buf_mut().as_ptr()
        };
        assert_eq!(gauges(&pool), (0, 1));
        let mut b = pool.acquire(8);
        assert_eq!(pool.stats().hits, 1);
        assert!(b.buf_mut().is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.buf_mut().as_ptr(), ptr);
    }

    #[test]
    fn miss_rate_reflects_pressure() {
        let pool = BufferPool::with_classes(&[32], 8 * 32);
        assert_eq!(pool.stats().miss_rate(), 0.0);
        // Hold everything: every acquire misses.
        let held: Vec<PayloadBytes> = (0..4).map(|_| pool.acquire(8).seal()).collect();
        assert_eq!(pool.stats().miss_rate(), 1.0);
        drop(held);
        for _ in 0..4 {
            let _ = pool.acquire(8).seal();
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 4);
        assert!(stats.miss_rate() < 0.6);
    }

    /// The default pool keeps a stream's packets in flight: a burst of
    /// 500 held packet buffers (1 KiB plus a header, so the 4 KiB class)
    /// all come home, and an identical second burst allocates nothing.
    /// A burst above the 2 MiB budget leaves exactly 512 free.
    #[test]
    fn the_default_budget_keeps_a_burst_in_flight() {
        const PACKET: usize = 1024 + 16;
        let pool = BufferPool::new();
        let burst = |n: usize| -> Vec<PayloadBytes> {
            (0..n)
                .map(|_| {
                    let mut b = pool.acquire(PACKET);
                    b.buf_mut().resize(PACKET, 0xA5);
                    b.seal()
                })
                .collect()
        };
        drop(burst(500));
        assert_eq!(gauges(&pool), (0, 500));
        let misses = pool.stats().misses;
        let again = burst(500);
        assert_eq!(pool.stats().misses, misses, "the second burst missed");
        drop(again);

        drop(burst(600));
        assert_eq!(gauges(&pool), (0, 512), "free list capped at 2 MiB / 4 KiB");
    }

    /// Two threads drop the last two views of one buffer at the same
    /// instant. Whoever is last takes it home — or, when each saw the
    /// other's reference, nobody does and it is freed: at most once
    /// home, never while a view lives, and the gauges stay exact.
    #[test]
    fn racing_last_drops_recycle_at_most_once() {
        use std::sync::atomic::AtomicU32;
        let pool = BufferPool::with_classes(&[64], 4 * 64);
        for round in 0..2000u32 {
            let bytes = round.to_le_bytes();
            let mut b = pool.acquire(8);
            b.buf_mut().extend_from_slice(&bytes);
            let sealed = b.seal();
            let views = [sealed.slice(..2), sealed.slice(2..)];
            drop(sealed);
            // A spin barrier: both racers leave it within a few cycles
            // of each other, which a sleeping barrier cannot promise.
            let arrived = AtomicU32::new(0);
            std::thread::scope(|s| {
                for (view, want) in views.into_iter().zip([&bytes[..2], &bytes[2..]]) {
                    let arrived = &arrived;
                    s.spawn(move || {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            std::hint::spin_loop();
                        }
                        assert_eq!(&view[..], want, "bytes moved under a live view");
                        drop(view);
                    });
                }
            });
            let (outstanding, pooled) = gauges(&pool);
            assert_eq!(outstanding, 0, "round {round}");
            assert!(pooled <= 1, "round {round}: {pooled} buffers, one was made");
        }
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
    }
}
