//! Buffers: the passive boundary components that decouple sections.
//!
//! A buffer has two passive ends (§2.2): upstream sections push into it,
//! downstream sections pull from it, and neither side ever runs inside the
//! other's thread. Buffers absorb rate fluctuations (the jitter buffer of
//! Fig. 1) and define where a pipeline is cut into independently scheduled
//! sections.
//!
//! The buffer itself is pure state under a mutex; *waking* blocked peers is
//! message-based: every mutation returns the set of notifications the
//! caller must send, so the synchronization stays inside the kernel's
//! message discipline (and blocked threads remain receptive to control
//! events).
//!
//! A buffer with several in-edges is the paper's order-of-arrival **merge
//! tee**; one with several out-edges realizes the *activity-routing switch*
//! of §3.3 (each pull takes the next available item, both out-ports
//! passive).

use crate::events::tags;
use crate::item::Item;
use mbthread::{Message, ThreadId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use typespec::{OnEmpty, OnFull};

/// Configuration for a buffer node.
#[derive(Clone, Debug)]
pub struct BufferSpec {
    /// Maximum number of stored items.
    pub capacity: usize,
    /// Behaviour of pushes into a full buffer.
    pub on_full: OnFull,
    /// Behaviour of pulls from an empty buffer.
    pub on_empty: OnEmpty,
}

impl BufferSpec {
    /// A blocking buffer of the given capacity (both policies `Block`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn bounded(capacity: usize) -> BufferSpec {
        assert!(capacity > 0, "buffer capacity must be at least 1");
        BufferSpec {
            capacity,
            on_full: OnFull::Block,
            on_empty: OnEmpty::Block,
        }
    }

    /// Sets the full-buffer policy.
    #[must_use]
    pub fn on_full(mut self, policy: OnFull) -> BufferSpec {
        self.on_full = policy;
        self
    }

    /// Sets the empty-buffer policy.
    #[must_use]
    pub fn on_empty(mut self, policy: OnEmpty) -> BufferSpec {
        self.on_empty = policy;
        self
    }
}

/// Statistics of one buffer, for feedback sensors and experiments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Items accepted.
    pub puts: u64,
    /// Items handed out.
    pub takes: u64,
    /// Items lost to a drop policy.
    pub drops: u64,
    /// Current fill level.
    pub fill: usize,
    /// Capacity.
    pub capacity: usize,
}

pub(crate) struct BufState {
    q: VecDeque<Item>,
    spec: BufferSpec,
    eos: bool,
    /// Writers that have not yet signalled end of stream; the buffer is
    /// at EOS only when all of them have (merge tees have several).
    remaining_writers: usize,
    /// Threads blocked pushing (Block policy), to be woken on space.
    put_waiters: Vec<ThreadId>,
    /// Threads blocked pulling, to be woken on arrival.
    get_waiters: Vec<ThreadId>,
    /// Downstream owner threads that asked to be notified of the next
    /// arrival (pumps parked `OnArrival`).
    arrival_watchers: Vec<ThreadId>,
    puts: u64,
    takes: u64,
    drops: u64,
}

/// What a caller must do after a successful buffer mutation: send an
/// `ARRIVAL` or `SPACE` message to each listed thread.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Wakeups {
    pub(crate) arrivals: Vec<ThreadId>,
    pub(crate) space: Vec<ThreadId>,
}

impl Wakeups {
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.space.is_empty()
    }

    /// Sends every notification through `post` — a kernel thread's
    /// context, or the external port of a sender outside the kernel.
    pub(crate) fn post(self, mut post: impl FnMut(ThreadId, Message)) {
        for t in self.arrivals {
            post(t, Message::signal(tags::ARRIVAL));
        }
        for t in self.space {
            post(t, Message::signal(tags::SPACE));
        }
    }
}

/// Result of a non-blocking put attempt.
#[derive(Debug)]
pub(crate) enum PutOutcome {
    /// Item stored.
    Stored(Wakeups),
    /// Item (or the oldest item) dropped per policy; the flow continues.
    Dropped(Wakeups),
    /// Buffer full and policy is Block: the caller must wait for space
    /// (the item is handed back).
    MustWait(Item),
}

/// Result of a non-blocking take attempt.
#[derive(Debug)]
pub(crate) enum TakeOutcome {
    /// An item was removed.
    Taken(Item, Wakeups),
    /// Buffer empty and the policy is non-blocking.
    Empty,
    /// Buffer empty and policy is Block: the caller is registered and
    /// must wait for arrival.
    MustWait,
    /// Buffer drained and the upstream reported end of stream.
    Eos,
}

/// A shared handle on a buffer's state. Cloning shares the buffer.
#[derive(Clone)]
pub(crate) struct BufHandle {
    name: Arc<str>,
    state: Arc<Mutex<BufState>>,
    /// Set on inbox buffers: an external sender counts as one writer.
    external_writer: Arc<std::sync::atomic::AtomicBool>,
}

impl BufHandle {
    pub(crate) fn new(name: &str, spec: BufferSpec) -> BufHandle {
        BufHandle {
            name: Arc::from(name),
            external_writer: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            state: Arc::new(Mutex::new(BufState {
                q: VecDeque::with_capacity(spec.capacity.min(1024)),
                spec,
                eos: false,
                remaining_writers: 1,
                put_waiters: Vec::new(),
                get_waiters: Vec::new(),
                arrival_watchers: Vec::new(),
                puts: 0,
                takes: 0,
                drops: 0,
            })),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Marks this buffer as fed by an external sender (an inbox).
    pub(crate) fn mark_external_writer(&self) {
        self.external_writer
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether an external sender feeds this buffer.
    pub(crate) fn has_external_writer(&self) -> bool {
        self.external_writer
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Attempts to store an item without blocking.
    pub(crate) fn try_put(&self, item: Item) -> PutOutcome {
        let mut s = self.state.lock();
        if s.q.len() >= s.spec.capacity {
            match s.spec.on_full {
                OnFull::Block => return PutOutcome::MustWait(item),
                OnFull::DropNewest => {
                    s.drops += 1;
                    return PutOutcome::Dropped(Wakeups::default());
                }
                OnFull::DropOldest => {
                    s.q.pop_front();
                    s.drops += 1;
                    s.q.push_back(item);
                    s.puts += 1;
                    // The fill level did not go 0→1, so no arrival
                    // notification is needed; takers were not blocked.
                    return PutOutcome::Dropped(Wakeups::default());
                }
            }
        }
        let was_empty = s.q.is_empty();
        s.q.push_back(item);
        s.puts += 1;
        let mut wake = Wakeups::default();
        wake.arrivals.append(&mut s.get_waiters);
        if was_empty {
            wake.arrivals.append(&mut s.arrival_watchers);
        }
        PutOutcome::Stored(wake)
    }

    /// Attempts to remove an item without blocking. On
    /// [`TakeOutcome::MustWait`], `me` has been registered for the next
    /// arrival under the same lock that found the buffer empty, so a put
    /// landing right after this call cannot miss the waiter.
    pub(crate) fn take_or_wait(&self, me: ThreadId) -> TakeOutcome {
        let mut s = self.state.lock();
        match s.q.pop_front() {
            Some(item) => {
                s.takes += 1;
                let mut wake = Wakeups::default();
                wake.space.append(&mut s.put_waiters);
                TakeOutcome::Taken(item, wake)
            }
            None if s.eos => TakeOutcome::Eos,
            None if s.spec.on_empty == OnEmpty::ReturnNone => TakeOutcome::Empty,
            None => {
                if !s.get_waiters.contains(&me) {
                    s.get_waiters.push(me);
                }
                TakeOutcome::MustWait
            }
        }
    }

    /// Registers the calling thread to be woken when space frees up.
    pub(crate) fn wait_for_space(&self, me: ThreadId) {
        let mut s = self.state.lock();
        if !s.put_waiters.contains(&me) {
            s.put_waiters.push(me);
        }
    }

    /// Registers a pump thread for a one-shot empty→non-empty
    /// notification.
    pub(crate) fn watch_arrival(&self, me: ThreadId) -> bool {
        let mut s = self.state.lock();
        if !s.q.is_empty() || s.eos {
            // Already has content (or is finished): no need to park.
            return false;
        }
        if !s.arrival_watchers.contains(&me) {
            s.arrival_watchers.push(me);
        }
        true
    }

    /// Declares how many independent writers feed this buffer (in-edges
    /// plus any external inbox sender). End of stream is reached only when
    /// every one of them has signalled it.
    pub(crate) fn set_writer_count(&self, writers: usize) {
        let mut s = self.state.lock();
        s.remaining_writers = writers.max(1);
    }

    /// Marks one upstream flow finished; once all writers have, the
    /// buffer is at end of stream and the returned takers are woken so
    /// they can observe it.
    pub(crate) fn mark_eos(&self) -> Wakeups {
        let mut s = self.state.lock();
        s.remaining_writers = s.remaining_writers.saturating_sub(1);
        if s.remaining_writers > 0 {
            return Wakeups::default();
        }
        s.eos = true;
        let mut wake = Wakeups::default();
        wake.arrivals.append(&mut s.get_waiters);
        wake.arrivals.append(&mut s.arrival_watchers);
        wake.space.append(&mut s.put_waiters);
        wake
    }

    /// A statistics snapshot.
    pub(crate) fn stats(&self) -> BufferStats {
        let s = self.state.lock();
        BufferStats {
            puts: s.puts,
            takes: s.takes,
            drops: s.drops,
            fill: s.q.len(),
            capacity: s.spec.capacity,
        }
    }
}

impl fmt::Debug for BufHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Buffer")
            .field("name", &self.name)
            .field("fill", &stats.fill)
            .field("capacity", &stats.capacity)
            .field("drops", &stats.drops)
            .finish()
    }
}

/// A read-only probe on a buffer, for feedback sensors: exposes fill level
/// and drop counts without any ability to mutate the flow.
#[derive(Clone, Debug)]
pub struct BufferProbe {
    pub(crate) handle: BufHandle,
}

impl BufferProbe {
    /// The buffer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.handle.name()
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.handle.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(n: u32) -> Item {
        Item::new(n).with_seq(u64::from(n))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let b = BufHandle::new("b", BufferSpec::bounded(4));
        for n in 0..4 {
            assert!(matches!(b.try_put(item(n)), PutOutcome::Stored(_)));
        }
        for n in 0..4 {
            match b.take_or_wait(me()) {
                TakeOutcome::Taken(it, _) => assert_eq!(it.expect::<u32>(), n),
                other => panic!("expected item, got {other:?}"),
            }
        }
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::MustWait));
    }

    #[test]
    fn block_policy_reports_must_wait_when_full() {
        let b = BufHandle::new("b", BufferSpec::bounded(1));
        assert!(matches!(b.try_put(item(0)), PutOutcome::Stored(_)));
        match b.try_put(item(1)) {
            PutOutcome::MustWait(returned) => assert_eq!(returned.expect::<u32>(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(b.stats().fill, 1);
    }

    #[test]
    fn drop_newest_discards_incoming() {
        let b = BufHandle::new("b", BufferSpec::bounded(1).on_full(OnFull::DropNewest));
        assert!(matches!(b.try_put(item(0)), PutOutcome::Stored(_)));
        assert!(matches!(b.try_put(item(1)), PutOutcome::Dropped(_)));
        match b.take_or_wait(me()) {
            TakeOutcome::Taken(it, _) => assert_eq!(it.expect::<u32>(), 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(b.stats().drops, 1);
    }

    #[test]
    fn drop_oldest_keeps_freshest() {
        let b = BufHandle::new("b", BufferSpec::bounded(2).on_full(OnFull::DropOldest));
        for n in 0..3 {
            let _ = b.try_put(item(n));
        }
        match b.take_or_wait(me()) {
            TakeOutcome::Taken(it, _) => assert_eq!(it.expect::<u32>(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(b.stats().drops, 1);
        assert_eq!(b.stats().puts, 3);
    }

    #[test]
    fn return_none_policy_reports_empty() {
        let b = BufHandle::new("b", BufferSpec::bounded(1).on_empty(OnEmpty::ReturnNone));
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::Empty));
    }

    #[test]
    fn eos_drains_then_reports() {
        let b = BufHandle::new("b", BufferSpec::bounded(4));
        let _ = b.try_put(item(0));
        let wake = b.mark_eos();
        assert!(wake.is_empty());
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::Taken(_, _)));
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::Eos));
    }

    #[test]
    fn waiters_are_woken_exactly_once() {
        let b = BufHandle::new("b", BufferSpec::bounded(1));
        let t1 = dummy_thread(1);
        assert!(matches!(b.take_or_wait(t1), TakeOutcome::MustWait));
        // Duplicate registration collapses.
        assert!(matches!(b.take_or_wait(t1), TakeOutcome::MustWait));
        match b.try_put(item(0)) {
            PutOutcome::Stored(wake) => assert_eq!(wake.arrivals, vec![t1]),
            other => panic!("unexpected {other:?}"),
        }
        // Second put has nobody to wake (and the buffer is full).
        assert!(matches!(b.try_put(item(1)), PutOutcome::MustWait(_)));
        let t2 = dummy_thread(2);
        b.wait_for_space(t2);
        match b.take_or_wait(me()) {
            TakeOutcome::Taken(_, wake) => assert_eq!(wake.space, vec![t2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The lost wake-up: a put landing between an empty take and a
    /// separate registration call used to see no waiter. The empty take
    /// itself now registers, so the very next put must name the taker.
    #[test]
    fn empty_blocking_take_registers_the_taker_for_the_next_put() {
        let b = BufHandle::new("b", BufferSpec::bounded(4));
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::MustWait));
        match b.try_put(item(0)) {
            PutOutcome::Stored(wake) => assert_eq!(wake.arrivals, vec![me()]),
            other => panic!("unexpected {other:?}"),
        }
        // Takes that do not block leave nobody registered.
        let b = BufHandle::new("b", BufferSpec::bounded(4).on_empty(OnEmpty::ReturnNone));
        assert!(matches!(b.take_or_wait(me()), TakeOutcome::Empty));
        match b.try_put(item(0)) {
            PutOutcome::Stored(wake) => assert!(wake.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrival_watchers_fire_on_empty_to_nonempty() {
        let b = BufHandle::new("b", BufferSpec::bounded(4));
        let t = dummy_thread(3);
        assert!(b.watch_arrival(t));
        match b.try_put(item(0)) {
            PutOutcome::Stored(wake) => assert_eq!(wake.arrivals, vec![t]),
            other => panic!("unexpected {other:?}"),
        }
        // Non-empty buffer: watch_arrival declines to park the pump.
        assert!(!b.watch_arrival(t));
    }

    #[test]
    fn probe_reports_fill_fraction() {
        let b = BufHandle::new("jitter", BufferSpec::bounded(4));
        let _ = b.try_put(item(0));
        let probe = BufferProbe { handle: b.clone() };
        assert_eq!(probe.name(), "jitter");
        let s = probe.stats();
        assert_eq!((s.fill, s.capacity, s.puts), (1, 4, 1));
    }

    /// Fabricates a ThreadId for waiter-list tests (never dereferenced).
    fn dummy_thread(n: u64) -> ThreadId {
        ThreadId::from_raw(n)
    }

    /// The taking thread in tests that do not care who takes.
    fn me() -> ThreadId {
        dummy_thread(0)
    }
}
