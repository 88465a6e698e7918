//! The in-process transport: a lock-free bounded ring per direction.
//!
//! `inproc` links connect pipelines running in the same process (e.g.
//! two kernels in one test, or co-located producer/consumer nodes)
//! without sockets or simulation.
//!
//! A polled direction ([`Link::recv`]: the factory protocol, the serving
//! tier's sessions) queues. Its data lane is a lock-free Vyukov MPMC
//! ring — full-queue sends are *dropped* (and counted), making the
//! backend behave like a bounded lossy network rather than an infinite
//! pipe, so backpressure experiments behave the same as on `sim`. Its
//! control lane is a small mutex-guarded deque (rare traffic, must never
//! be dropped).
//!
//! A bound direction ([`Link::bind_receiver`]) queues nothing. With no
//! network to cross, the sending thread itself delivers each frame into
//! the binding: data to the inbox, events to the callback, and `Fin` —
//! or the sending end's drop — to the inbox's end. No receive thread
//! sits between the two pipelines.

use super::rendezvous::{self, Registry};
use super::{
    Bound, Frame, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, SharedStats, Transport,
    TransportError,
};
use crate::marshal::WireBytes;
use parking_lot::{Mutex, MutexGuard};
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

/// Who hears a direction's arrivals.
enum Receiver {
    /// Polled through `recv`: the parked poller to unpark on arrival (one
    /// receiver at a time).
    Polled(Option<Thread>),
    /// Bound by `bind_receiver`: each send delivers into it, on the
    /// sending thread.
    Bound(Bound),
    /// Was bound, and its stream has ended (`Fin`, or the sending end
    /// dropped): the binding has been let go.
    Ended,
}

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
    /// a sender publishes under `rx` and wakes the poller registered
    /// there, and a poller still re-checks the lanes after registering.
    ctrl_queued: AtomicUsize,
    /// The one lock a send takes: it queues and wakes the parked poller,
    /// or delivers into the binding, under it. So `bind_receiver` can
    /// flush the queues into a new binding with no frame slipping past.
    /// An atomic "someone is waiting" flag in front of it was measured
    /// and cost more than it saved.
    rx: Mutex<Receiver>,
    /// `rx` has left `Polled`: lets a poll that finds nothing answer
    /// `Closed` without taking the lock.
    bound: AtomicBool,
    /// Sender posted a `Fin` to a polled direction.
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
            rx: Mutex::new(Receiver::Polled(None)),
            bound: AtomicBool::new(false),
            fin: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            stats: Arc::new(SharedStats::default()),
            high_water: capacity.next_power_of_two().max(2) * 3 / 4,
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
        let mut rx = self.rx.lock();
        match &mut *rx {
            Receiver::Polled(waiter) => {
                let status = self.enqueue(frame);
                let waiter = waiter.take();
                drop(rx);
                if let Some(t) = waiter {
                    t.unpark();
                }
                status
            }
            Receiver::Bound(bound) => {
                if let Frame::Data(bytes) = &frame {
                    self.stats.sent.fetch_add(1, Ordering::Relaxed);
                    let len = bytes.len() as u64;
                    self.stats.bytes_sent.fetch_add(len, Ordering::Relaxed);
                }
                if matches!(frame, Frame::Fin) {
                    self.end(rx);
                } else {
                    bound.accept(None, frame, &self.stats);
                }
                SendStatus::Sent
            }
            Receiver::Ended => SendStatus::Closed,
        }
    }

    /// Ends a bound stream. `Ended` goes in under the lock, so no later
    /// send reaches the binding; the binding hears `Fin` and is dropped
    /// after it, so its callback's captures never drop under the lock.
    fn end(&self, mut rx: MutexGuard<'_, Receiver>) {
        if let Receiver::Bound(bound) = std::mem::replace(&mut *rx, Receiver::Ended) {
            drop(rx);
            bound.accept(None, Frame::Fin, &self.stats);
        }
    }

    /// The sending end is gone without a `Fin`: a poller reads `Closed`
    /// once the lanes drain, and a binding's inbox ends.
    fn close(&self) {
        let mut rx = self.rx.lock();
        self.closed.store(true, Ordering::Release);
        match &mut *rx {
            Receiver::Polled(waiter) => {
                if let Some(t) = waiter.take() {
                    t.unpark();
                }
            }
            Receiver::Bound(_) => self.end(rx),
            Receiver::Ended => {}
        }
    }

    /// Binds the receive side. Under the lock every send takes, the
    /// queued backlog goes into the binding first, in lane order; every
    /// later send delivers itself.
    fn bind(&self, bound: Bound) -> Result<(), TransportError> {
        let mut rx = self.rx.lock();
        if !matches!(*rx, Receiver::Polled(_)) {
            return Err(TransportError::ReceiverTaken);
        }
        self.bound.store(true, Ordering::Release);
        loop {
            match self.try_recv() {
                Some(RecvOutcome::Frame(frame)) => bound.accept(None, frame, &self.stats),
                // `Fin`, or the sender vanished: the stream is already over.
                Some(_) => {
                    *rx = Receiver::Ended;
                    drop(rx);
                    bound.accept(None, Frame::Fin, &self.stats);
                    return Ok(());
                }
                None => break,
            }
        }
        *rx = Receiver::Bound(bound);
        Ok(())
    }

    /// Queues a frame for polls, in its lane. Called under `rx`.
    fn enqueue(&self, frame: Frame) -> SendStatus {
        match frame {
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
        }
    }

    /// Pops the next frame. Events and control messages overtake queued
    /// data; `Fin` only ends the stream once the data lane is drained.
    /// Whoever takes a data frame counts its delivery.
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
        // A bound direction queues nothing, so there is nothing to wait
        // for.
        if self.bound.load(Ordering::Acquire) {
            return RecvOutcome::Closed;
        }
        if timeout.is_zero() {
            return RecvOutcome::TimedOut;
        }
        let mut now = Instant::now();
        let deadline = now + timeout;
        while now < deadline {
            match &mut *self.rx.lock() {
                Receiver::Polled(waiter) => *waiter = Some(std::thread::current()),
                _ => return RecvOutcome::Closed,
            }
            // Re-check after registering, then park for the remainder.
            let early = self.try_recv();
            if early.is_none() {
                std::thread::park_timeout(deadline - now);
            }
            if let Receiver::Polled(waiter) = &mut *self.rx.lock() {
                waiter.take();
            }
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
}

impl Drop for LinkShared {
    fn drop(&mut self) {
        // A vanished end closes its outbound direction so the peer's
        // receiver does not wait forever.
        self.out.close();
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
        let inn = &self.shared.inn;
        inn.stats.count_delivery(inn.recv(timeout))
    }

    fn bind_receiver(
        &self,
        inbox: Option<infopipes::InboxSender>,
        on_event: impl Fn(infopipes::ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        // Deliveries and refusals are credited to the inbound direction's
        // stats, which the peer's `stats()` reads as its outbound counters.
        self.shared.inn.bind(Bound::new(inbox, on_event))
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
            }),
        };
        let server = InProcLink {
            shared: Arc::new(LinkShared {
                peer: PeerIdentity::new("inproc", format!("{addr}#client-{n}")),
                out: b_to_a,
                inn: a_to_b,
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
                while matches!(*dir.rx.lock(), Receiver::Polled(None)) {
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

    // -----------------------------------------------------------------
    // Bound directions: the sender delivers
    // -----------------------------------------------------------------

    use crate::transport::Acceptor;
    use infopipes::helpers::CollectSink;
    use infopipes::{BufferSpec, ControlEvent, FreePump, InboxSender, Pipeline, RunningPipeline};
    use mbthread::{Kernel, KernelConfig};

    fn pair() -> (InProcLink, InProcLink) {
        let transport = InProcTransport::new();
        let acceptor = transport.listen("bound").unwrap();
        let client = transport.connect("bound").unwrap();
        (client, acceptor.accept().unwrap())
    }

    fn wire(seq: u32) -> Frame {
        Frame::Data(crate::wire::to_payload(&seq).unwrap())
    }

    /// `inbox >> pump >> unmarshal >> sink` on `kernel`, not yet started.
    fn consumer(kernel: &Kernel, inbox: usize) -> (Pipeline, InboxSender, Arc<Mutex<Vec<u32>>>) {
        let pipeline = Pipeline::new(kernel, "consumer");
        let (node, sender) = pipeline.add_inbox("net-in", BufferSpec::bounded(inbox));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let unmarshal = pipeline.add_function("unmarshal", crate::Unmarshal::<u32>::new("u"));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = node >> pump >> unmarshal >> sink;
        (pipeline, sender, out)
    }

    /// Waits for the pipeline's end of stream, then returns what it got.
    fn collect_until_eos(running: &RunningPipeline, out: &Mutex<Vec<u32>>) -> Vec<u32> {
        let events = running.subscribe();
        running.start_flow().unwrap();
        let started = Instant::now();
        while events.recv_timeout(Duration::from_millis(50)) != Some(ControlEvent::Eos) {
            assert!(started.elapsed() < GUARD, "no end of stream");
        }
        out.lock().clone()
    }

    #[test]
    fn a_backlog_reaches_the_binding_in_order_at_bind_time() {
        let kernel = Kernel::new(KernelConfig::default());
        let (client, server) = pair();
        for seq in 0..5 {
            client.send(wire(seq));
        }
        client.send(event(1));
        for seq in 5..10 {
            client.send(wire(seq));
        }
        client.send(Frame::Fin);

        let (pipeline, inbox, out) = consumer(&kernel, 64);
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&heard);
        server
            .bind_receiver(Some(inbox), move |ev| log.lock().push(ev))
            .unwrap();
        // All of it was handed over before `bind_receiver` returned.
        assert_eq!(*heard.lock(), vec![ControlEvent::SetRate(1.0)]);
        assert_eq!(client.stats().delivered, 10);
        assert_eq!(client.send(wire(99)), SendStatus::Closed);

        let running = pipeline.start().unwrap();
        assert_eq!(
            collect_until_eos(&running, &out),
            (0..10).collect::<Vec<u32>>()
        );
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(out.lock().len(), 10, "nothing arrives twice");
        assert_eq!(heard.lock().len(), 1, "nothing arrives twice");
        let stats = client.stats();
        assert_eq!((stats.sent, stats.delivered, stats.refused), (10, 10, 0));
        drop(running);
        kernel.shutdown();
    }

    #[test]
    fn binding_mid_stream_loses_and_repeats_nothing() {
        const FRAMES: u32 = 10_000;
        let kernel = Kernel::new(KernelConfig::default());
        let (client, server) = pair();
        // Deep enough that the inbox never refuses: a refusal is a loss
        // this test would blame on the binding.
        let (pipeline, inbox, out) = consumer(&kernel, FRAMES as usize);
        let sent = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seq in 0..FRAMES {
                    // The ring is lossy while unbound: offer again.
                    while client.send(wire(seq)) == SendStatus::Dropped {
                        std::thread::yield_now();
                    }
                    sent.store(seq as usize + 1, Ordering::Release);
                }
                client.send(Frame::Fin);
            });
            // Bind once a backlog exists and while the stream still runs.
            let started = Instant::now();
            while sent.load(Ordering::Acquire) < 500 {
                assert!(started.elapsed() < GUARD, "sender stalled");
                std::thread::yield_now();
            }
            server.bind_receiver(Some(inbox), |_| {}).unwrap();
        });
        let running = pipeline.start().unwrap();
        assert_eq!(
            collect_until_eos(&running, &out),
            (0..FRAMES).collect::<Vec<u32>>()
        );
        let stats = client.stats();
        assert_eq!((stats.delivered, stats.refused), (u64::from(FRAMES), 0));
        drop(running);
        kernel.shutdown();
    }

    #[test]
    fn a_bound_link_polls_closed_and_binds_once() {
        let (client, server) = pair();
        server.bind_receiver(None, |_| {}).unwrap();
        assert!(matches!(server.recv(Duration::ZERO), RecvOutcome::Closed));
        assert!(matches!(
            server.recv(Duration::from_millis(10)),
            RecvOutcome::Closed
        ));
        assert!(matches!(
            server.bind_receiver(None, |_| {}),
            Err(TransportError::ReceiverTaken)
        ));
        // Still taken once the stream has ended.
        client.send(Frame::Fin);
        assert!(matches!(
            server.bind_receiver(None, |_| {}),
            Err(TransportError::ReceiverTaken)
        ));
        assert!(matches!(server.recv(Duration::ZERO), RecvOutcome::Closed));
    }
}
