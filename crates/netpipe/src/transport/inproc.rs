//! The in-process transport: one two-lane queue per direction.
//!
//! `inproc` links connect pipelines running in the same process (e.g.
//! two kernels in one test, or co-located producer/consumer nodes)
//! without sockets or simulation.
//!
//! Each direction is a [`LaneQueue`] the sending thread arrives into.
//! A polled direction ([`Link::recv`]: the factory protocol, the serving
//! tier's sessions) queues: a send that finds the data lane full is
//! *dropped* (and counted), making the backend behave like a bounded
//! lossy network rather than an infinite pipe, so backpressure
//! experiments behave the same as on `sim`; control frames are never
//! dropped.
//!
//! A bound direction ([`Link::bind_receiver`]) queues nothing. With no
//! network to cross, the sending thread itself delivers each frame into
//! the binding: data to the inbox, events to the callback, and `Fin` —
//! or the sending end's drop — to the inbox's end. No receive thread
//! sits between the two pipelines.

use super::lanes::{Arrival, LaneQueue};
use super::rendezvous::{self, Registry};
use super::{
    Frame, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, SharedStats, Transport,
    TransportError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One direction of an inproc connection.
struct Direction {
    /// The one lock a send takes: it queues and wakes a poller, or
    /// delivers into the binding, under it.
    queue: LaneQueue,
    stats: SharedStats,
    /// High-water mark: `Saturated` at this many queued data frames.
    high_water: usize,
}

impl Direction {
    fn new(capacity: usize) -> Direction {
        Direction {
            queue: LaneQueue::new(capacity),
            stats: SharedStats::default(),
            high_water: (capacity * 3 / 4).max(1),
        }
    }

    fn send(&self, frame: Frame) -> SendStatus {
        let len = match &frame {
            Frame::Data(bytes) => Some(bytes.len() as u64),
            _ => None,
        };
        let arrival = self.queue.arrive(None, frame, &self.stats);
        if arrival == Arrival::Ended {
            return SendStatus::Closed;
        }
        let Some(len) = len else {
            return SendStatus::Sent;
        };
        // `sent` counts every frame handed to the link, dropped or not
        // (matching the sim backend).
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        if arrival == Arrival::Shed {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return SendStatus::Dropped;
        }
        self.stats.bytes_sent.fetch_add(len, Ordering::Relaxed);
        match arrival {
            Arrival::Queued(queued) if queued >= self.high_water => SendStatus::Saturated,
            _ => SendStatus::Sent,
        }
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
        self.out.queue.close(None);
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
        inn.queue.recv(timeout, &inn.stats)
    }

    fn bind_receiver(
        &self,
        inbox: Option<infopipes::InboxSender>,
        on_event: impl Fn(infopipes::ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        // Deliveries and refusals are credited to the inbound direction's
        // stats, which the peer's `stats()` reads as its outbound counters.
        let inn = &self.shared.inn;
        inn.queue.bind(inbox, on_event, &inn.stats)
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

    /// A transport whose directions' data lanes hold `capacity` frames
    /// before dropping.
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
    use crate::marshal::WireBytes;
    use parking_lot::Mutex;
    use std::time::Instant;

    const GUARD: Duration = Duration::from_secs(20);

    fn data(seq: u32) -> Frame {
        Frame::Data(WireBytes::from(seq.to_le_bytes().to_vec()))
    }

    fn event(n: u32) -> Frame {
        Frame::Event(infopipes::ControlEvent::SetRate(f64::from(n)))
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
            assert_eq!(
                expect_frame(dir.queue.recv(Duration::ZERO, &dir.stats)),
                event(7)
            );
            assert_eq!(
                expect_frame(dir.queue.recv(Duration::ZERO, &dir.stats)),
                data(1)
            );
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
                match dir.queue.recv(Duration::ZERO, &dir.stats) {
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
        assert!(matches!(
            dir.queue.recv(Duration::ZERO, &dir.stats),
            RecvOutcome::TimedOut
        ));
    }

    #[test]
    fn a_poll_times_out_when_empty_and_ends_after_the_data() {
        let dir = Direction::new(8);
        assert!(matches!(
            dir.queue.recv(Duration::ZERO, &dir.stats),
            RecvOutcome::TimedOut
        ));
        dir.send(data(1));
        dir.send(Frame::Fin);
        assert_eq!(
            expect_frame(dir.queue.recv(Duration::ZERO, &dir.stats)),
            data(1)
        );
        assert!(matches!(
            dir.queue.recv(Duration::ZERO, &dir.stats),
            RecvOutcome::Fin
        ));
    }

    #[test]
    fn a_parked_receiver_wakes_on_data_and_on_control() {
        for frame in [data(3), event(3)] {
            let dir = Direction::new(8);
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| {
                    let started = Instant::now();
                    (
                        dir.queue.recv(Duration::from_secs(1), &dir.stats),
                        started.elapsed(),
                    )
                });
                // Send only once the receiver has registered to be woken.
                let started = Instant::now();
                while dir.queue.sleepers() == 0 {
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
                    // The data lane is lossy while unbound: offer again.
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
