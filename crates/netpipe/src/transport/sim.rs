//! The simulated-network transport, running inside a kernel.
//!
//! Each direction of a `sim` connection is a message-based kernel
//! thread: the sending end posts frames to it; the thread models
//! serialization delay (bandwidth), propagation latency, jitter, and a
//! bounded byte queue that drops on overflow — the "arbitrary dropping
//! in the network" of Fig. 1 — and delivers arrivals to the receiving
//! end via kernel timers. Under a virtual-time kernel the whole network
//! is deterministic.
//!
//! Control-lane frames (events, factory messages, `Fin`) skip the
//! bandwidth model and the bounded queue: they experience propagation
//! latency only, which is how the out-of-band priority of control
//! events (§2.2) shows up in a simulated network.
//!
//! With `jitter > 0` the per-packet delay varies, and — as on a real
//! datagram network — data frames may be **reordered**. The in-order
//! conformance property applies to the jitter-free configuration;
//! jittered links are for experiments whose consumers (defragmenters,
//! jitter buffers) are built to tolerate reordering. `Fin` is never
//! reordered ahead of data: it waits for every in-flight frame to land.

use super::lanes::LaneQueue;
use super::rendezvous::{self, Registry};
use super::{
    Frame, KernelPost, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, SharedStats,
    Transport, TransportError,
};
use crate::marshal::WireBytes;
use infopipes::{ControlEvent, InboxSender, Item};
use mbthread::{Ctx, Envelope, ExternalPort, Flow, Kernel, Message, Tag, ThreadId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Send end → direction thread: a data frame to transmit.
const NET_DATA: Tag = Tag(0x4E50_0001);
/// Send end → direction thread: a control-lane frame (latency only).
const NET_CTRL: Tag = Tag(0x4E50_0002);
/// Direction thread → itself (timer): a data frame arrives now.
const NET_DELIVER_DATA: Tag = Tag(0x4E50_0003);
/// Direction thread → itself (timer): a control frame arrives now.
const NET_DELIVER_CTRL: Tag = Tag(0x4E50_0004);

/// Link parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Propagation latency.
    pub latency: Duration,
    /// Uniform random extra delay in `[0, jitter]` per packet.
    pub jitter: Duration,
    /// Link bandwidth in bytes/second (`None` = infinite).
    pub bandwidth_bps: Option<f64>,
    /// Bytes the link will queue before dropping (congestion).
    pub queue_bytes: usize,
    /// Seed for the jitter source.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: Duration::from_millis(5),
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            queue_bytes: 1 << 20,
            seed: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Receiving side state
// ---------------------------------------------------------------------

type EventCallback = Box<dyn Fn(ControlEvent) + Send>;

/// A pipeline binding: arrivals flow straight into it.
struct Bound {
    inbox: Option<InboxSender>,
    on_event: EventCallback,
}

impl Bound {
    /// Hands one arrived frame to the pipeline — through `ctx` from the
    /// direction's kernel thread (deterministic delivery), without it
    /// for the backlog `bind_receiver` finds already queued.
    fn accept(&self, mut ctx: Option<&mut Ctx<'_>>, frame: Frame, stats: &SharedStats) {
        match (frame, &self.inbox) {
            (Frame::Data(bytes), Some(inbox)) => {
                let item = Item::bytes(bytes);
                let taken = match ctx.as_mut() {
                    Some(ctx) => inbox.put_via(ctx, item),
                    None => inbox.put(item),
                };
                let counter = if taken {
                    &stats.delivered
                } else {
                    &stats.refused
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            (Frame::Fin, Some(inbox)) => match ctx {
                Some(ctx) => inbox.finish_via(ctx),
                None => inbox.finish(),
            },
            (Frame::Event(ev), _) => (self.on_event)(ev.into()),
            _ => {}
        }
    }
}

struct RxShared {
    /// Frames awaiting external `recv` polls, until a binding exists.
    /// Its data lane is unbounded: the link's byte queue has already
    /// admitted whatever arrives here.
    queue: LaneQueue,
    bound: Mutex<Option<Bound>>,
}

impl RxShared {
    fn new() -> RxShared {
        RxShared {
            queue: LaneQueue::new(usize::MAX),
            bound: Mutex::new(None),
        }
    }
}

// ---------------------------------------------------------------------
// The per-direction kernel thread
// ---------------------------------------------------------------------

/// Data admitted to the bounded queue but not yet delivered. Frames
/// are tracked as well as bytes so end-of-stream gating holds even for
/// zero-length payloads.
#[derive(Default)]
struct InFlight {
    bytes: AtomicUsize,
    frames: AtomicUsize,
}

struct DirectionFn {
    cfg: SimConfig,
    rx: Arc<RxShared>,
    stats: Arc<SharedStats>,
    in_flight: Arc<InFlight>,
    busy_until_ns: u64,
    /// A `Fin` arrived while data frames were still in flight; deliver it
    /// once the last one lands.
    eos_pending: bool,
    rng: StdRng,
}

impl DirectionFn {
    fn arrival_time(&mut self, ctx: &Ctx<'_>, tx_ns: u64) -> mbthread::Time {
        let now_ns = ctx.now().as_nanos();
        let done_ns = self.busy_until_ns.max(now_ns) + tx_ns;
        if tx_ns > 0 {
            self.busy_until_ns = done_ns;
        }
        let jitter_ns = if self.cfg.jitter.is_zero() {
            0
        } else {
            self.rng
                .random_range(0..=u64::try_from(self.cfg.jitter.as_nanos()).unwrap_or(u64::MAX))
        };
        mbthread::Time::from_nanos(
            done_ns + u64::try_from(self.cfg.latency.as_nanos()).unwrap_or(u64::MAX) + jitter_ns,
        )
    }

    /// Hands an arrived frame to the receiving end, from the kernel
    /// thread: a binding gets direct (deterministic) delivery, otherwise
    /// the frame queues for external polls.
    fn deliver(&self, ctx: &mut Ctx<'_>, frame: Frame) {
        // Held across the enqueue so `bind_receiver` cannot take the
        // backlog and miss this frame.
        let bound = self.rx.bound.lock();
        match &*bound {
            Some(bound) => bound.accept(Some(ctx), frame, &self.stats),
            None => {
                self.rx.queue.arrive(frame);
            }
        }
    }
}

impl mbthread::CodeFn for DirectionFn {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, mut env: Envelope) -> Flow {
        match env.tag() {
            t if t == NET_DATA => {
                let Some(bytes) = env.message_mut().take_body::<WireBytes>() else {
                    return Flow::Continue;
                };
                let size = bytes.len();
                // Serialization delay: one packet at a time at the link's
                // bandwidth.
                let tx_ns = match self.cfg.bandwidth_bps {
                    Some(bw) if bw > 0.0 => (size as f64 / bw * 1e9) as u64,
                    _ => 0,
                };
                let arrival = self.arrival_time(ctx, tx_ns);
                let _ = ctx.set_timer(arrival, Message::new(NET_DELIVER_DATA, bytes), None);
            }
            t if t == NET_CTRL => {
                let Some(frame) = env.message_mut().take_body::<Frame>() else {
                    return Flow::Continue;
                };
                // Control lane: propagation latency only, no queueing.
                let arrival = mbthread::Time::from_nanos(
                    ctx.now().as_nanos()
                        + u64::try_from(self.cfg.latency.as_nanos()).unwrap_or(u64::MAX),
                );
                let _ = ctx.set_timer(arrival, Message::new(NET_DELIVER_CTRL, frame), None);
            }
            t if t == NET_DELIVER_DATA => {
                let Some(bytes) = env.message_mut().take_body::<WireBytes>() else {
                    return Flow::Continue;
                };
                self.in_flight
                    .bytes
                    .fetch_sub(bytes.len(), Ordering::AcqRel);
                self.in_flight.frames.fetch_sub(1, Ordering::AcqRel);
                // Delivery accounting for bound sinks happens in deliver();
                // external sinks count on the recv side.
                self.deliver(ctx, Frame::Data(bytes));
                if self.eos_pending && self.in_flight.frames.load(Ordering::Acquire) == 0 {
                    self.eos_pending = false;
                    self.deliver(ctx, Frame::Fin);
                }
            }
            t if t == NET_DELIVER_CTRL => {
                let Some(frame) = env.message_mut().take_body::<Frame>() else {
                    return Flow::Continue;
                };
                // End of stream waits for in-flight data to land.
                if matches!(frame, Frame::Fin) && self.in_flight.frames.load(Ordering::Acquire) > 0
                {
                    self.eos_pending = true;
                    return Flow::Continue;
                }
                self.deliver(ctx, frame);
            }
            _ => {}
        }
        Flow::Continue
    }
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

/// The sending half's view of one direction.
struct TxShared {
    thread: ThreadId,
    port: ExternalPort,
    stats: Arc<SharedStats>,
    in_flight: Arc<InFlight>,
    queue_bytes: usize,
    fin_sent: AtomicBool,
}

impl TxShared {
    /// The shared admission decision: the bounded queue is checked (and
    /// charged) at send time; the direction thread releases bytes on
    /// delivery. `sent` counts every data frame handed to the link,
    /// dropped or not, so `delivery_ratio` reflects offered load (same
    /// convention as the inproc backend).
    fn admit(&self, frame: Frame) -> Result<(Message, SendStatus), SendStatus> {
        if self.fin_sent.load(Ordering::Acquire) {
            return Err(SendStatus::Closed);
        }
        match frame {
            Frame::Data(bytes) => {
                let size = bytes.len();
                let occupied = self.in_flight.bytes.load(Ordering::Acquire);
                if occupied + size > self.queue_bytes {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    self.stats.sent.fetch_add(1, Ordering::Relaxed);
                    return Err(SendStatus::Dropped);
                }
                self.in_flight.bytes.fetch_add(size, Ordering::AcqRel);
                self.in_flight.frames.fetch_add(1, Ordering::AcqRel);
                self.stats.sent.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_sent
                    .fetch_add(size as u64, Ordering::Relaxed);
                let status = if (occupied + size) * 2 > self.queue_bytes {
                    SendStatus::Saturated
                } else {
                    SendStatus::Sent
                };
                Ok((Message::new(NET_DATA, bytes), status))
            }
            Frame::Fin => {
                self.fin_sent.store(true, Ordering::Release);
                Ok((Message::new(NET_CTRL, Frame::Fin), SendStatus::Sent))
            }
            ctrl_frame => Ok((Message::new(NET_CTRL, ctrl_frame), SendStatus::Sent)),
        }
    }
}

struct SimLinkShared {
    peer: PeerIdentity,
    tx: TxShared,
    rx: Arc<RxShared>,
    /// The inbound direction's stats: this end's receive bookkeeping
    /// (delivered/refused) is credited to the direction the peer sends
    /// on, so the peer's `stats()` shows what its traffic achieved.
    rx_stats: Arc<SharedStats>,
    /// The peer end's receive state, closed when this end vanishes.
    peer_rx: Arc<RxShared>,
}

impl Drop for SimLinkShared {
    fn drop(&mut self) {
        // A vanished end closes the peer's receive side so nothing polls
        // forever.
        self.peer_rx.queue.close();
    }
}

/// One end of a simulated connection (cheap to clone).
#[derive(Clone)]
pub struct SimLink {
    shared: Arc<SimLinkShared>,
}

impl Link for SimLink {
    fn peer(&self) -> PeerIdentity {
        self.shared.peer.clone()
    }

    fn send(&self, frame: Frame) -> SendStatus {
        let tx = &self.shared.tx;
        self.send_via(&mut |to, msg| tx.port.send(to, msg).is_ok(), frame)
    }

    fn send_via(&self, post: KernelPost<'_>, frame: Frame) -> SendStatus {
        // Posting through the caller's kernel context keeps virtual-time
        // kernels deterministic (no external wakeups mid-run).
        match self.shared.tx.admit(frame) {
            Ok((msg, status)) => {
                if post(self.shared.tx.thread, msg) {
                    status
                } else {
                    SendStatus::Closed
                }
            }
            Err(status) => status,
        }
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        let rx = &self.shared.rx;
        if rx.bound.lock().is_some() {
            return RecvOutcome::Closed;
        }
        self.shared.rx_stats.count_delivery(rx.queue.recv(timeout))
    }

    fn bind_receiver(
        &self,
        inbox: Option<InboxSender>,
        on_event: impl Fn(ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        let rx = &self.shared.rx;
        let mut slot = rx.bound.lock();
        if slot.is_some() {
            return Err(TransportError::ReceiverTaken);
        }
        let bound = Bound {
            inbox,
            on_event: Box::new(on_event),
        };
        // Flush frames that arrived before binding (external path).
        loop {
            match rx.queue.try_recv() {
                Some(RecvOutcome::Frame(frame)) => bound.accept(None, frame, &self.shared.rx_stats),
                Some(RecvOutcome::Fin) => {
                    bound.accept(None, Frame::Fin, &self.shared.rx_stats);
                    break;
                }
                _ => break,
            }
        }
        *slot = Some(bound);
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        // The outbound direction's counters: `delivered`/`refused` are
        // written by the receiving end into the same shared direction
        // stats, so a producer-side probe sees what its traffic achieved
        // (as the seed's `SimLink::stats` did).
        self.shared.tx.stats.snapshot()
    }
}

impl std::fmt::Debug for SimLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLink")
            .field("peer", &self.shared.peer.to_string())
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Transport and acceptor
// ---------------------------------------------------------------------

/// The simulated-network transport. Both ends must share (a clone of)
/// the same value, which carries the kernel and the link parameters.
#[derive(Clone)]
pub struct SimTransport {
    kernel: Kernel,
    cfg: SimConfig,
    registry: Registry<SimLink>,
    conn_counter: Arc<AtomicUsize>,
}

impl SimTransport {
    /// A transport whose connections model `cfg` in both directions,
    /// running on `kernel`.
    #[must_use]
    pub fn new(kernel: &Kernel, cfg: SimConfig) -> SimTransport {
        SimTransport {
            kernel: kernel.clone(),
            cfg,
            registry: rendezvous::new_registry(),
            conn_counter: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn spawn_direction(
        &self,
        label: &str,
        rx: Arc<RxShared>,
        stats: Arc<SharedStats>,
    ) -> Result<(ThreadId, Arc<InFlight>), TransportError> {
        let in_flight = Arc::new(InFlight::default());
        let seed = self.cfg.seed;
        let dir = DirectionFn {
            cfg: self.cfg.clone(),
            rx,
            stats,
            in_flight: Arc::clone(&in_flight),
            busy_until_ns: 0,
            eos_pending: false,
            rng: StdRng::seed_from_u64(seed),
        };
        let thread = self
            .kernel
            .spawn(label, dir)
            .map_err(|_| TransportError::Closed)?;
        Ok((thread, in_flight))
    }
}

impl Transport for SimTransport {
    type Link = SimLink;
    type Acceptor = SimAcceptor;

    fn scheme(&self) -> &'static str {
        "sim"
    }

    fn listen(&self, addr: &str) -> Result<SimAcceptor, TransportError> {
        rendezvous::listen(&self.registry, addr)
    }

    fn connect(&self, addr: &str) -> Result<SimLink, TransportError> {
        let endpoint = rendezvous::claim(&self.registry, addr)?;
        let n = self.conn_counter.fetch_add(1, Ordering::Relaxed);

        // Two modelled directions, each with its own kernel thread. The
        // `stats` of a direction are shared by its sender (sent/dropped)
        // and its receiver (delivered/refused).
        let a_rx = Arc::new(RxShared::new()); // client receives here (b→a)
        let b_rx = Arc::new(RxShared::new()); // server receives here (a→b)
        let a_to_b_stats = Arc::new(SharedStats::default());
        let b_to_a_stats = Arc::new(SharedStats::default());
        let (a_to_b_thread, a_to_b_bytes) = self.spawn_direction(
            &format!("sim-{addr}-{n}-up"),
            Arc::clone(&b_rx),
            Arc::clone(&a_to_b_stats),
        )?;
        let (b_to_a_thread, b_to_a_bytes) = self.spawn_direction(
            &format!("sim-{addr}-{n}-down"),
            Arc::clone(&a_rx),
            Arc::clone(&b_to_a_stats),
        )?;

        let client = SimLink {
            shared: Arc::new(SimLinkShared {
                peer: PeerIdentity::new("sim", addr),
                tx: TxShared {
                    thread: a_to_b_thread,
                    port: self.kernel.external(&format!("sim-{addr}-{n}-client")),
                    stats: Arc::clone(&a_to_b_stats),
                    in_flight: a_to_b_bytes,
                    queue_bytes: self.cfg.queue_bytes,
                    fin_sent: AtomicBool::new(false),
                },
                rx: Arc::clone(&a_rx),
                rx_stats: b_to_a_stats.clone(),
                peer_rx: Arc::clone(&b_rx),
            }),
        };
        let server = SimLink {
            shared: Arc::new(SimLinkShared {
                peer: PeerIdentity::new("sim", format!("{addr}#client-{n}")),
                tx: TxShared {
                    thread: b_to_a_thread,
                    port: self.kernel.external(&format!("sim-{addr}-{n}-server")),
                    stats: b_to_a_stats,
                    in_flight: b_to_a_bytes,
                    queue_bytes: self.cfg.queue_bytes,
                    fin_sent: AtomicBool::new(false),
                },
                rx: b_rx,
                rx_stats: a_to_b_stats,
                peer_rx: a_rx,
            }),
        };

        endpoint.offer(server);
        Ok(client)
    }
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// A bound simulated listening endpoint.
pub type SimAcceptor = rendezvous::Bound<SimLink>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Acceptor, PipelineTransportExt};
    use infopipes::helpers::{CollectSink, IterSource};
    use infopipes::{BufferSpec, FreePump, Pipeline};
    use mbthread::KernelConfig;

    /// Builds producer >> marshal >> link >> inbox >> unmarshal >> sink
    /// over one virtual-time kernel and runs it to completion.
    fn run_link(cfg: SimConfig, n: u32) -> (Vec<u32>, LinkStats, u64) {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let result = {
            let transport = SimTransport::new(&kernel, cfg);
            let acceptor = transport.listen("link").unwrap();
            let link = transport.connect("link").unwrap();
            let receiver_end = acceptor.accept().unwrap();

            // Consumer side.
            let consumer = Pipeline::new(&kernel, "consumer");
            let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(1024));
            let pump_in = consumer.add_pump("pump-in", FreePump::new());
            let un = consumer.add_function("unmarshal", crate::Unmarshal::<u32>::new("unmarshal"));
            let (sink, out) = CollectSink::<u32>::new("sink");
            let sink = consumer.add_consumer("sink", sink);
            let _ = inbox >> pump_in >> un >> sink;
            receiver_end
                .bind_receiver(Some(inbox_sender), |_| {})
                .unwrap();
            let running_consumer = consumer.start().unwrap();
            running_consumer.start_flow().unwrap();

            // Producer side.
            let producer = Pipeline::new(&kernel, "producer");
            let src = producer.add_producer("src", IterSource::new("src", 0..n));
            let pump_out = producer.add_pump("pump-out", FreePump::new());
            let m = producer.add_function("marshal", crate::Marshal::<u32>::new("marshal"));
            let send = producer.add_net_sink("send", &link);
            let _ = src >> pump_out >> m >> send;
            let running_producer = producer.start().unwrap();
            running_producer.start_flow().unwrap();

            kernel.wait_quiescent();
            let end_time = kernel.now().as_micros();
            let got = out.lock().clone();
            (got, link.stats(), end_time)
        };
        kernel.shutdown();
        result
    }

    #[test]
    fn lossless_link_delivers_everything_in_order() {
        let (got, stats, _) = run_link(SimConfig::default(), 20);
        assert_eq!(got, (0..20).collect::<Vec<u32>>());
        assert_eq!(stats.sent, 20);
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.dropped, 0);
        assert!((stats.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_delays_completion_in_virtual_time() {
        let fast = run_link(
            SimConfig {
                latency: Duration::from_millis(1),
                ..SimConfig::default()
            },
            5,
        )
        .2;
        let slow = run_link(
            SimConfig {
                latency: Duration::from_millis(500),
                ..SimConfig::default()
            },
            5,
        )
        .2;
        assert!(
            slow >= fast + 400_000,
            "500 ms latency must show up in virtual time: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn tiny_queue_drops_under_burst() {
        // The producer bursts all packets at t=0 (free pump), each 4 bytes
        // marshalled; an 8-byte queue holds only 2 in flight.
        let (got, stats, _) = run_link(
            SimConfig {
                latency: Duration::from_millis(50),
                queue_bytes: 8,
                bandwidth_bps: None,
                ..SimConfig::default()
            },
            20,
        );
        assert!(stats.dropped > 0, "{stats:?}");
        assert_eq!(stats.delivered as usize, got.len());
        assert!(got.len() < 20);
        // Survivors stay in order.
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
    }

    #[test]
    fn bandwidth_paces_the_flow() {
        // 5 packets of 4-byte payload → 4 bytes wire each (u32); at 4
        // bytes/sec each takes 1 s of serialization.
        let (_, stats, end_us) = run_link(
            SimConfig {
                latency: Duration::ZERO,
                bandwidth_bps: Some(4.0),
                queue_bytes: 1 << 20,
                ..SimConfig::default()
            },
            5,
        );
        assert_eq!(stats.delivered, 5);
        assert!(
            end_us >= 5_000_000,
            "5 packets at 1 s each need 5 virtual seconds, got {end_us} us"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = |seed| SimConfig {
            latency: Duration::from_millis(10),
            jitter: Duration::from_millis(20),
            seed,
            ..SimConfig::default()
        };
        let a = run_link(cfg(7), 10);
        let b = run_link(cfg(7), 10);
        let c = run_link(cfg(8), 10);
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2, "same seed, same virtual completion time");
        // A different seed almost surely lands on a different schedule.
        assert_ne!(a.2, c.2);
    }
}
