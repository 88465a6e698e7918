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
//! jitter buffers) are built to tolerate reordering. The end of the
//! stream is never reordered ahead of data: `Fin`, or word that the
//! sending end is gone without one, waits for every in-flight frame to
//! land.
//!
//! The receiving end of a direction is a [`LaneQueue`] its kernel thread
//! arrives into: polled, it queues for [`Link::recv`]; bound, the kernel
//! thread delivers into the binding, which keeps delivery deterministic
//! under virtual time.

use super::lanes::LaneQueue;
use super::rendezvous::{self, Registry};
use super::{
    Frame, KernelPost, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, SharedStats,
    Transport, TransportError,
};
use crate::marshal::WireBytes;
use infopipes::{ControlEvent, InboxSender};
use mbthread::{Ctx, Envelope, ExternalPort, Flow, Kernel, Message, Tag, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Send end → direction thread: a data frame to transmit.
const NET_DATA: Tag = Tag(0x4E50_0001);
/// Send end → direction thread: a [`Ctrl`] (latency only).
const NET_CTRL: Tag = Tag(0x4E50_0002);
/// Direction thread → itself (timer): a data frame arrives now.
const NET_DELIVER_DATA: Tag = Tag(0x4E50_0003);
/// Direction thread → itself (timer): a [`Ctrl`] arrives now.
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

/// What the control lane carries to the receiving end.
enum Ctrl {
    /// An event, a factory message, or `Fin`.
    Frame(Frame),
    /// The sending end is gone without `Fin`: the receiving end closes.
    Gone,
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
    /// The receiving end. Its data lane is unbounded: the link's byte
    /// queue has already admitted whatever arrives here.
    rx: Arc<LaneQueue>,
    stats: Arc<SharedStats>,
    in_flight: Arc<InFlight>,
    busy_until_ns: u64,
    /// The end of the stream arrived while data frames were still in
    /// flight; delivered once the last one lands.
    end_pending: Option<Ctrl>,
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

    /// Hands a control-lane arrival to the receiving end, from the
    /// kernel thread (deterministic under virtual time).
    fn deliver(&self, ctx: &mut Ctx<'_>, ctrl: Ctrl) {
        match ctrl {
            Ctrl::Frame(frame) => {
                self.rx.arrive(Some(ctx), frame, &self.stats);
            }
            Ctrl::Gone => self.rx.close(Some(ctx)),
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
                let Some(ctrl) = env.message_mut().take_body::<Ctrl>() else {
                    return Flow::Continue;
                };
                // Control lane: propagation latency only, no queueing.
                let arrival = mbthread::Time::from_nanos(
                    ctx.now().as_nanos()
                        + u64::try_from(self.cfg.latency.as_nanos()).unwrap_or(u64::MAX),
                );
                let _ = ctx.set_timer(arrival, Message::new(NET_DELIVER_CTRL, ctrl), None);
            }
            t if t == NET_DELIVER_DATA => {
                let Some(bytes) = env.message_mut().take_body::<WireBytes>() else {
                    return Flow::Continue;
                };
                self.in_flight
                    .bytes
                    .fetch_sub(bytes.len(), Ordering::AcqRel);
                self.in_flight.frames.fetch_sub(1, Ordering::AcqRel);
                // A binding counts its deliveries as it takes them; polls
                // count on the recv side.
                self.rx.arrive(Some(ctx), Frame::Data(bytes), &self.stats);
                if self.in_flight.frames.load(Ordering::Acquire) == 0 {
                    if let Some(end) = self.end_pending.take() {
                        self.deliver(ctx, end);
                    }
                }
            }
            t if t == NET_DELIVER_CTRL => {
                let Some(ctrl) = env.message_mut().take_body::<Ctrl>() else {
                    return Flow::Continue;
                };
                // End of stream waits for in-flight data to land.
                let ends = matches!(ctrl, Ctrl::Frame(Frame::Fin) | Ctrl::Gone);
                if ends && self.in_flight.frames.load(Ordering::Acquire) > 0 {
                    self.end_pending = Some(ctrl);
                    return Flow::Continue;
                }
                self.deliver(ctx, ctrl);
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
    /// `Fin` was posted: nothing follows it.
    finished: AtomicBool,
}

impl TxShared {
    /// The shared admission decision: the bounded queue is checked (and
    /// charged) at send time; the direction thread releases bytes on
    /// delivery. `sent` counts every data frame handed to the link,
    /// dropped or not, so `delivered / sent` reflects offered load (same
    /// convention as the inproc backend).
    fn admit(&self, frame: Frame) -> Result<(Message, SendStatus), SendStatus> {
        if self.finished.load(Ordering::Acquire) {
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
            ctrl_frame => {
                if matches!(ctrl_frame, Frame::Fin) {
                    self.finished.store(true, Ordering::Release);
                }
                let msg = Message::new(NET_CTRL, Ctrl::Frame(ctrl_frame));
                Ok((msg, SendStatus::Sent))
            }
        }
    }
}

struct SimLinkShared {
    peer: PeerIdentity,
    tx: TxShared,
    rx: Arc<LaneQueue>,
    /// The inbound direction's stats: this end's receive bookkeeping
    /// (delivered/refused) is credited to the direction the peer sends
    /// on, so the peer's `stats()` shows what its traffic achieved.
    rx_stats: Arc<SharedStats>,
    /// The peer end's receive queue, closed here when this end vanishes
    /// after its kernel is gone.
    peer_rx: Arc<LaneQueue>,
}

impl Drop for SimLinkShared {
    fn drop(&mut self) {
        // A vanished end closes the peer's receive side, so nothing waits
        // on it forever: through the direction thread, after the data
        // still in flight, unless a `Fin` already ends the stream there.
        let tx = &self.tx;
        if tx.finished.load(Ordering::Acquire) {
            return;
        }
        let gone = Message::new(NET_CTRL, Ctrl::Gone);
        if tx.port.send(tx.thread, gone).is_err() {
            // The kernel is shut down, and the direction thread with it.
            self.peer_rx.close(None);
        }
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
        let shared = &self.shared;
        shared.rx.recv(timeout, &shared.rx_stats)
    }

    fn bind_receiver(
        &self,
        inbox: Option<InboxSender>,
        on_event: impl Fn(ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        let shared = &self.shared;
        shared.rx.bind(inbox, on_event, &shared.rx_stats)
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
        rx: Arc<LaneQueue>,
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
            end_pending: None,
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
        let a_rx = Arc::new(LaneQueue::new(usize::MAX)); // client receives here (b→a)
        let b_rx = Arc::new(LaneQueue::new(usize::MAX)); // server receives here (a→b)
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
                    finished: AtomicBool::new(false),
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
                    finished: AtomicBool::new(false),
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

    /// A sending end dropped without `Fin` closes the peer's receive side
    /// only once its data in flight has landed: a poller reads every
    /// frame, then `Closed`.
    #[test]
    fn a_dropped_sender_closes_after_its_data_in_flight() {
        let kernel = Kernel::new(KernelConfig::default());
        {
            let cfg = SimConfig {
                latency: Duration::from_millis(20),
                ..SimConfig::default()
            };
            let transport = SimTransport::new(&kernel, cfg);
            let acceptor = transport.listen("gone").unwrap();
            let client = transport.connect("gone").unwrap();
            let server = acceptor.accept().unwrap();
            for i in 0..5u32 {
                let frame = Frame::Data(crate::wire::to_payload(&i).unwrap());
                assert!(client.send(frame).accepted());
            }
            drop(client);
            let mut got = Vec::new();
            loop {
                match server.recv(Duration::from_secs(20)) {
                    RecvOutcome::Frame(Frame::Data(bytes)) => {
                        got.push(crate::wire::from_bytes::<u32>(&bytes).unwrap());
                    }
                    RecvOutcome::Closed => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(got, (0..5).collect::<Vec<u32>>());
        }
        kernel.shutdown();
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
