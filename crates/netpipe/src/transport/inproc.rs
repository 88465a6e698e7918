//! The in-process transport: a lock-free bounded ring per direction.
//!
//! `inproc` links connect pipelines running in the same process (e.g.
//! two kernels in one test, or co-located producer/consumer nodes)
//! without sockets or simulation. The data lane is a lock-free Vyukov
//! MPMC ring — full-queue sends are *dropped* (and counted), making the
//! backend behave like a bounded lossy network rather than an infinite
//! pipe, so backpressure experiments behave the same as on `sim`. The
//! control lane is a small mutex-guarded deque (rare traffic, must never
//! be dropped).

use super::rendezvous::{self, Registry};
use super::{
    Frame, Link, LinkStats, PeerIdentity, ReceiverSlot, RecvOutcome, SendStatus, SharedStats,
    Transport, TransportError,
};
use crate::marshal::WireBytes;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Lock-free bounded MPMC ring (Vyukov's array queue)
// ---------------------------------------------------------------------

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer queue; `push` never blocks
/// and fails when full, `pop` never blocks and fails when empty.
pub(crate) struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue: AtomicUsize,
    dequeue: AtomicUsize,
}

unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Ring<T> {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            enqueue: AtomicUsize::new(0),
            dequeue: AtomicUsize::new(0),
        }
    }

    fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    match self.enqueue.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // The slot is ours: write, then publish.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return Err(value), // full
                _ => pos = self.enqueue.load(Ordering::Relaxed),
            }
        }
    }

    fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - (pos.wrapping_add(1)) as isize {
                0 => {
                    match self.dequeue.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.seq.store(
                                pos.wrapping_add(self.mask).wrapping_add(1),
                                Ordering::Release,
                            );
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.dequeue.load(Ordering::Relaxed),
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

// ---------------------------------------------------------------------
// Directions and links
// ---------------------------------------------------------------------

/// One direction of an inproc connection.
// Not a `lanes::LaneQueue`: the data lane is the lock-free ring, so the
// lane order is restated in `try_recv` (with `Fin` a flag, not a frame).
struct Direction {
    data: Ring<WireBytes>,
    /// Events and factory messages only; `Fin` is the flag below.
    ctrl: Mutex<VecDeque<Frame>>,
    /// Length of `ctrl`, stored under its lock by whoever changed it, so
    /// a receive locks `ctrl` only when a control frame is waiting (the
    /// common case is none). `Release` store, `Acquire` load: a receiver
    /// that sees the count sees the frame. It is no part of the wake-up:
    /// a sender still goes through `waiter` after publishing, and a
    /// receiver still re-checks the lanes after registering there.
    ctrl_queued: AtomicUsize,
    /// Parked receiver to unpark on arrival (one receiver at a time).
    /// Taken on every send; an atomic "someone is waiting" flag in front
    /// of it was measured and cost more than it saved.
    waiter: Mutex<Option<Thread>>,
    /// Sender posted a `Fin`.
    fin: AtomicBool,
    /// Sender handle dropped without `Fin`.
    closed: AtomicBool,
    stats: Arc<SharedStats>,
    /// High-water mark: `Saturated` above this many queued data frames.
    high_water: usize,
}

impl Direction {
    fn new(capacity: usize) -> Direction {
        Direction {
            data: Ring::new(capacity),
            ctrl: Mutex::new(VecDeque::new()),
            ctrl_queued: AtomicUsize::new(0),
            waiter: Mutex::new(None),
            fin: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            stats: Arc::new(SharedStats::default()),
            high_water: capacity.next_power_of_two().max(2) * 3 / 4,
        }
    }

    fn wake_receiver(&self) {
        if let Some(t) = self.waiter.lock().take() {
            t.unpark();
        }
    }

    fn queued_data(&self) -> usize {
        let enq = self.data.enqueue.load(Ordering::Relaxed);
        let deq = self.data.dequeue.load(Ordering::Relaxed);
        enq.wrapping_sub(deq)
    }

    fn send(&self, frame: Frame) -> SendStatus {
        if self.fin.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return SendStatus::Closed;
        }
        let status = match frame {
            Frame::Data(bytes) => {
                let len = bytes.len() as u64;
                match self.data.push(bytes) {
                    Ok(()) => {
                        self.stats.sent.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_sent.fetch_add(len, Ordering::Relaxed);
                        if self.queued_data() >= self.high_water {
                            SendStatus::Saturated
                        } else {
                            SendStatus::Sent
                        }
                    }
                    Err(_) => {
                        // `sent` counts every frame handed to the link,
                        // dropped or not (matching the sim backend).
                        self.stats.sent.fetch_add(1, Ordering::Relaxed);
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        SendStatus::Dropped
                    }
                }
            }
            Frame::Fin => {
                self.fin.store(true, Ordering::Release);
                SendStatus::Sent
            }
            ctrl_frame => {
                let mut ctrl = self.ctrl.lock();
                ctrl.push_back(ctrl_frame);
                self.ctrl_queued.store(ctrl.len(), Ordering::Release);
                SendStatus::Sent
            }
        };
        self.wake_receiver();
        status
    }

    /// Pops the next frame. Events and control messages overtake queued
    /// data; `Fin` only ends the stream once the data lane is drained.
    fn try_recv(&self) -> Option<RecvOutcome> {
        // Read the end marks before the lanes: whatever the sender
        // published ahead of its `Fin` (or of vanishing) is visible to
        // the pops that follow these loads.
        let ended = if self.fin.load(Ordering::Acquire) {
            Some(RecvOutcome::Fin)
        } else if self.closed.load(Ordering::Acquire) {
            Some(RecvOutcome::Closed)
        } else {
            None
        };
        if self.ctrl_queued.load(Ordering::Acquire) > 0 {
            let mut ctrl = self.ctrl.lock();
            if let Some(frame) = ctrl.pop_front() {
                self.ctrl_queued.store(ctrl.len(), Ordering::Release);
                return Some(RecvOutcome::Frame(frame));
            }
        }
        if let Some(bytes) = self.data.pop() {
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            return Some(RecvOutcome::Frame(Frame::Data(bytes)));
        }
        ended
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        // Try before reading the clock: a frame that is already there,
        // or a poll (`Duration::ZERO`), never needs the time.
        if let Some(out) = self.try_recv() {
            return out;
        }
        if timeout.is_zero() {
            return RecvOutcome::TimedOut;
        }
        let mut now = Instant::now();
        let deadline = now + timeout;
        while now < deadline {
            *self.waiter.lock() = Some(std::thread::current());
            // Re-check after registering, then park for the remainder.
            let early = self.try_recv();
            if early.is_none() {
                std::thread::park_timeout(deadline - now);
            }
            self.waiter.lock().take();
            if let Some(out) = early.or_else(|| self.try_recv()) {
                return out;
            }
            now = Instant::now();
        }
        RecvOutcome::TimedOut
    }
}

struct LinkShared {
    peer: PeerIdentity,
    /// Outbound direction (this end sends here).
    out: Arc<Direction>,
    /// Inbound direction (this end receives here).
    inn: Arc<Direction>,
    receiver: ReceiverSlot,
}

impl Drop for LinkShared {
    fn drop(&mut self) {
        // A vanished end closes its outbound direction so the peer's
        // receiver does not wait forever.
        self.out.closed.store(true, Ordering::Release);
        self.out.wake_receiver();
    }
}

/// One end of an in-process connection (cheap to clone).
#[derive(Clone)]
pub struct InProcLink {
    shared: Arc<LinkShared>,
}

impl Link for InProcLink {
    fn peer(&self) -> PeerIdentity {
        self.shared.peer.clone()
    }

    fn send(&self, frame: Frame) -> SendStatus {
        self.shared.out.send(frame)
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        self.shared.inn.recv(timeout)
    }

    fn bind_receiver(
        &self,
        inbox: Option<infopipes::InboxSender>,
        on_event: impl Fn(infopipes::ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        // Refusals are credited to the inbound direction's stats, which
        // the peer's `stats()` reads as its outbound counters.
        let rx_stats = Arc::clone(&self.shared.inn.stats);
        self.shared
            .receiver
            .bind(self.clone(), inbox, on_event, rx_stats, |link| {
                Arc::strong_count(&link.shared) == 1
            })
    }

    fn stats(&self) -> LinkStats {
        // The outbound direction's counters: the peer's receive side
        // credits `delivered`/`refused` into the same shared direction,
        // so a producer-side probe sees what its traffic achieved.
        self.shared.out.stats.snapshot()
    }
}

impl std::fmt::Debug for InProcLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcLink")
            .field("peer", &self.shared.peer.to_string())
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Transport and acceptor
// ---------------------------------------------------------------------

/// The in-process transport. Clones share one rendezvous namespace, so
/// the connecting side uses a clone of the listening side's value.
#[derive(Clone)]
pub struct InProcTransport {
    registry: Registry<InProcLink>,
    capacity: usize,
    conn_counter: Arc<AtomicUsize>,
}

impl InProcTransport {
    /// A transport with the default per-direction data capacity (1024
    /// frames).
    #[must_use]
    pub fn new() -> InProcTransport {
        InProcTransport::with_capacity(1024)
    }

    /// A transport whose data lane rings hold `capacity` frames (rounded
    /// up to a power of two) before dropping.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> InProcTransport {
        InProcTransport {
            registry: rendezvous::new_registry(),
            capacity,
            conn_counter: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl Default for InProcTransport {
    fn default() -> Self {
        InProcTransport::new()
    }
}

impl Transport for InProcTransport {
    type Link = InProcLink;
    type Acceptor = InProcAcceptor;

    fn scheme(&self) -> &'static str {
        "inproc"
    }

    fn listen(&self, addr: &str) -> Result<InProcAcceptor, TransportError> {
        rendezvous::listen(&self.registry, addr)
    }

    fn connect(&self, addr: &str) -> Result<InProcLink, TransportError> {
        let endpoint = rendezvous::claim(&self.registry, addr)?;
        let n = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        let a_to_b = Arc::new(Direction::new(self.capacity));
        let b_to_a = Arc::new(Direction::new(self.capacity));
        let client = InProcLink {
            shared: Arc::new(LinkShared {
                peer: PeerIdentity::new("inproc", addr),
                out: Arc::clone(&a_to_b),
                inn: Arc::clone(&b_to_a),
                receiver: ReceiverSlot::default(),
            }),
        };
        let server = InProcLink {
            shared: Arc::new(LinkShared {
                peer: PeerIdentity::new("inproc", format!("{addr}#client-{n}")),
                out: b_to_a,
                inn: a_to_b,
                receiver: ReceiverSlot::default(),
            }),
        };
        endpoint.offer(server);
        Ok(client)
    }
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport")
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// A bound in-process listening endpoint.
pub type InProcAcceptor = rendezvous::Bound<InProcLink>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring: Ring<WireBytes> = Ring::new(4);
        for i in 0..4u8 {
            ring.push(WireBytes::from(vec![i])).unwrap();
        }
        assert!(
            ring.push(WireBytes::from(vec![9])).is_err(),
            "full ring refuses"
        );
        for i in 0..4u8 {
            assert_eq!(ring.pop().unwrap(), vec![i]);
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn ring_passes_buffers_through_without_copying() {
        let ring: Ring<WireBytes> = Ring::new(4);
        let buf = WireBytes::from(vec![1, 2, 3]);
        let ptr = buf.as_ptr();
        ring.push(buf).unwrap();
        assert_eq!(
            ring.pop().unwrap().as_ptr(),
            ptr,
            "the ring must move the shared buffer, not copy it"
        );
    }

    #[test]
    fn ring_survives_concurrent_producers() {
        let ring: Arc<Ring<WireBytes>> = Arc::new(Ring::new(1024));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u8 {
                    while ring.push(WireBytes::from(vec![t, i])).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut seen = 0;
        while seen < 800 {
            if ring.pop().is_some() {
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ring.pop().is_none());
    }

    const GUARD: Duration = Duration::from_secs(20);

    fn data(seq: u32) -> Frame {
        Frame::Data(WireBytes::from(seq.to_le_bytes().to_vec()))
    }

    fn event(n: u32) -> Frame {
        Frame::Event(crate::proto::WireEvent::SetRate(f64::from(n)))
    }

    fn expect_frame(out: RecvOutcome) -> Frame {
        match out {
            RecvOutcome::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn a_waiting_control_frame_overtakes_queued_data() {
        // Data queued first, then control; and control first, then data.
        for control_first in [false, true] {
            let dir = Direction::new(8);
            if control_first {
                dir.send(event(7));
                dir.send(data(1));
            } else {
                dir.send(data(1));
                dir.send(event(7));
            }
            assert_eq!(expect_frame(dir.recv(Duration::ZERO)), event(7));
            assert_eq!(dir.ctrl_queued.load(Ordering::Acquire), 0);
            assert_eq!(expect_frame(dir.recv(Duration::ZERO)), data(1));
        }
    }

    #[test]
    fn polling_receiver_loses_neither_data_nor_control() {
        const DATA: u32 = 10_000;
        const EVENTS: u32 = 1_000;
        let dir = Direction::new(256);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seq in 0..DATA {
                    // The data lane is lossy when full: offer again.
                    while dir.send(data(seq)) == SendStatus::Dropped {
                        std::thread::yield_now();
                    }
                    if seq % (DATA / EVENTS) == 0 {
                        dir.send(event(seq / (DATA / EVENTS)));
                    }
                }
            });
            let (mut next_data, mut next_event) = (0, 0);
            let started = Instant::now();
            while next_data < DATA || next_event < EVENTS {
                match dir.recv(Duration::ZERO) {
                    RecvOutcome::Frame(frame @ Frame::Data(_)) => {
                        assert_eq!(frame, data(next_data));
                        next_data += 1;
                    }
                    RecvOutcome::Frame(frame) => {
                        assert_eq!(frame, event(next_event));
                        next_event += 1;
                    }
                    RecvOutcome::TimedOut => {
                        assert!(started.elapsed() < GUARD, "stalled at {next_data}");
                        std::thread::yield_now();
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        });
        assert_eq!(dir.ctrl_queued.load(Ordering::Acquire), 0);
        assert!(matches!(dir.recv(Duration::ZERO), RecvOutcome::TimedOut));
    }

    #[test]
    fn a_poll_times_out_when_empty_and_ends_after_the_data() {
        let dir = Direction::new(8);
        assert!(matches!(dir.recv(Duration::ZERO), RecvOutcome::TimedOut));
        dir.send(data(1));
        dir.send(Frame::Fin);
        assert_eq!(expect_frame(dir.recv(Duration::ZERO)), data(1));
        assert!(matches!(dir.recv(Duration::ZERO), RecvOutcome::Fin));
    }

    #[test]
    fn a_parked_receiver_wakes_on_data_and_on_control() {
        for frame in [data(3), event(3)] {
            let dir = Direction::new(8);
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| {
                    let started = Instant::now();
                    (dir.recv(Duration::from_secs(1)), started.elapsed())
                });
                // Send only once the receiver has registered to be woken.
                let started = Instant::now();
                while dir.waiter.lock().is_none() {
                    assert!(started.elapsed() < GUARD, "receiver never parked");
                    std::thread::yield_now();
                }
                dir.send(frame.clone());
                let (out, waited) = receiver.join().expect("receiver");
                assert_eq!(expect_frame(out), frame);
                assert!(
                    waited < Duration::from_millis(900),
                    "woken by the send, not by the timeout: {waited:?}"
                );
            });
        }
    }
}
