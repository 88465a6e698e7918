//! Pluggable netpipe transports (§2.4).
//!
//! "Different transport protocols can be easily integrated into the
//! Infopipe framework as netpipes." This module makes that promise
//! concrete: one [`Transport`] trait with interchangeable backends, so a
//! remote pipeline is assembled identically whether it crosses a TCP
//! socket, the deterministic network simulator, or an in-process channel.
//!
//! # The model
//!
//! A [`Transport`] is a connector factory: [`Transport::listen`] binds an
//! [`Acceptor`], [`Transport::connect`] opens a [`Link`] to it. A link is
//! one bidirectional connection carrying [`Frame`]s on two lanes:
//!
//! * the **data lane** carries [`Frame::Data`] (marshalled items). It is
//!   bounded: [`Link::send`] reports backpressure through [`SendStatus`]
//!   — `Saturated` when the link is congested, `Dropped` when a lossy
//!   backend sheds the frame (the "arbitrary dropping in the network" of
//!   Fig. 1).
//! * the **control lane** carries [`Frame::Event`] (out-of-band control
//!   events), [`Frame::Control`] (factory-protocol messages), and
//!   [`Frame::Fin`]. It is unbounded and has priority: control frames
//!   overtake queued data, matching the paper's high-priority control
//!   events (§2.2).
//!
//! The receive side is either polled ([`Link::recv`], used by the remote
//! factory protocol) or bound to a pipeline ([`Link::bind_receiver`]):
//! data frames feed an [`InboxSender`], events invoke a callback, and
//! `Fin` finishes the inbox. [`NetSendEnd`] is the producer-side pipeline
//! stage — one generic implementation shared by every backend.
//!
//! Each link end keeps [`LinkStats`] ([`Link::stats`]) counting frames
//! sent, delivered, dropped and refused.
//!
//! # Built-in backends
//!
//! | backend | scheme | loss | timing |
//! |---------|--------|------|--------|
//! | [`InProcTransport`] | `inproc` | drops on a full data lane | immediate |
//! | [`SimTransport`] | `sim` | drops on queue overflow | modelled latency/bandwidth/jitter, deterministic under virtual time |
//! | [`TcpTransport`] | `tcp` | reliable (saturates, never drops) | real sockets |
//! | [`UdpTransport`] | `udp` | lossy datagrams (oversize or receive overflow shed; sends saturate) | real sockets |
//!
//! # Writing your own backend
//!
//! A new transport (UDP, QUIC, shared memory, …) is a single file:
//!
//! 1. Define the transport value (configuration + any rendezvous state)
//!    and implement [`Transport`] — `scheme`, `listen`, `connect`.
//! 2. Define the link type: a cheaply cloneable handle (backends wrap an
//!    `Arc`) implementing [`Link`]. You must provide [`Link::peer`]
//!    (drives the Typespec *location* rewrite in
//!    [`Unmarshal`](crate::Unmarshal)), [`Link::send`] (map the frame to
//!    your wire; report [`SendStatus`] honestly — backpressure is the
//!    feedback loops' signal), [`Link::recv`], and [`Link::stats`].
//! 3. Keep the two-lane contract: control frames must not wait behind
//!    data frames, and `Fin` must not overtake its own data. Do not write
//!    that ordering out again. A socket backend's send side is the private
//!    `lanes::Transmit`, which owns the `LaneQueue`, the oversized-frame
//!    shed, `send_ready`, the closing `Fin` and the one writer (started by
//!    the first send); the backend supplies only a drain that puts one
//!    batch on its wire (TCP's vectored write, UDP's datagram packer).
//!    The simulator's send side *is* its network model (byte-queue
//!    admission, posts that keep virtual time deterministic), and an
//!    inproc sender arrives straight in the peer's queue.
//! 4. Give the receive side the one arrival path: a `LaneQueue`, whose
//!    `recv` is your `recv` and whose `bind` is your `bind_receiver`.
//!    Whatever hands the receiver its frames `arrive`s them into the
//!    queue on its own thread — the sending thread (inproc), the
//!    direction's kernel thread, which keeps the simulator deterministic
//!    under virtual time (sim), or a socket reader (TCP, UDP), which
//!    `arrive_all`s each read's frames under one lock and with one inbox
//!    put. A bound queue delivers each arrival into the pipeline under
//!    its lock, and `bind` flushes the backlog in under the same lock, so
//!    nothing sent meanwhile is lost or reordered. A socket reader is
//!    started by the link's first `recv` or `bind_receiver`, so a link
//!    nobody reads runs none, and a data binding holds its link until the
//!    stream ends (`bind_holding`). Every thread your backend needs (a
//!    writer, a socket reader) is a `worker::Worker` — the crate spawns
//!    threads nowhere else, and CI greps for it.
//! 5. Run the conformance suite (`crates/netpipe/tests/
//!    transport_conformance.rs`) against the new backend: ordering,
//!    backpressure, control-event priority, and clean shutdown are the
//!    same four properties for everyone.
//!
//! For stream-oriented backends, [`crate::framing`] provides the
//! `Frame` ⇄ byte-stream codec used by the TCP backend.

mod inproc;
mod lanes;
mod sim;
mod tcp;
mod udp;

/// Connections announced to a listener and not yet accepted: the queue
/// an acceptor blocks on, whichever way its backend learns of a peer.
pub(crate) struct Pending<T> {
    queue: Mutex<VecDeque<T>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl<T> Pending<T> {
    pub(crate) fn new() -> Pending<T> {
        Pending {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Hands a new connection to the listener.
    pub(crate) fn offer(&self, conn: T) {
        self.queue.lock().push_back(conn);
        self.cv.notify_one();
    }

    /// The listener is gone: wakes every blocked accept.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The next connection, waiting at most `timeout` (`None`: for as
    /// long as it takes, so never `Ok(None)`).
    pub(crate) fn take(&self, timeout: Option<Duration>) -> Result<Option<T>, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut queue = self.queue.lock();
        loop {
            if let Some(conn) = queue.pop_front() {
                return Ok(Some(conn));
            }
            if self.is_closed() {
                return Err(TransportError::Closed);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.cv.wait(&mut queue),
                Some(Duration::ZERO) => return Ok(None),
                Some(left) => drop(self.cv.wait_for(&mut queue, left)),
            }
        }
    }
}

/// Shared in-process rendezvous plumbing for backends whose "network"
/// lives inside the process (sim, inproc): a named registry of
/// endpoints, each a [`Pending`] queue the acceptor blocks on. Generic
/// over the link type so every future in-process backend reuses it.
pub(crate) mod rendezvous {
    use super::{Acceptor, Link, Pending, TransportError};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    pub(crate) type Registry<L> = Arc<Mutex<HashMap<String, Arc<Pending<L>>>>>;

    pub(crate) fn new_registry<L>() -> Registry<L> {
        Arc::new(Mutex::new(HashMap::new()))
    }

    /// Binds `addr`; the returned handle unbinds on drop.
    pub(crate) fn listen<L>(
        registry: &Registry<L>,
        addr: &str,
    ) -> Result<Bound<L>, TransportError> {
        let mut reg = registry.lock();
        if reg.contains_key(addr) {
            return Err(TransportError::AddrInUse(addr.to_owned()));
        }
        let endpoint = Arc::new(Pending::new());
        reg.insert(addr.to_owned(), Arc::clone(&endpoint));
        Ok(Bound {
            addr: addr.to_owned(),
            endpoint,
            registry: Arc::clone(registry),
        })
    }

    /// Looks up a live listener for a connect attempt.
    pub(crate) fn claim<L>(
        registry: &Registry<L>,
        addr: &str,
    ) -> Result<Arc<Pending<L>>, TransportError> {
        let endpoint = registry
            .lock()
            .get(addr)
            .cloned()
            .ok_or_else(|| TransportError::NotFound(addr.to_owned()))?;
        if endpoint.is_closed() {
            return Err(TransportError::Closed);
        }
        Ok(endpoint)
    }

    /// A bound in-process listening endpoint: the acceptor half of the
    /// rendezvous, under the names
    /// [`InProcAcceptor`](crate::InProcAcceptor) and
    /// [`SimAcceptor`](crate::SimAcceptor).
    pub struct Bound<L> {
        addr: String,
        endpoint: Arc<Pending<L>>,
        registry: Registry<L>,
    }

    impl<L: Link> Acceptor for Bound<L> {
        type Link = L;

        fn local_addr(&self) -> String {
            self.addr.clone()
        }

        fn accept(&self) -> Result<L, TransportError> {
            let link = self.endpoint.take(None)?;
            Ok(link.expect("an untimed wait ends with a link or an error"))
        }

        fn accept_timeout(&self, timeout: Duration) -> Result<Option<L>, TransportError> {
            self.endpoint.take(Some(timeout))
        }
    }

    impl<L> std::fmt::Debug for Bound<L> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Acceptor")
                .field("addr", &self.addr)
                .finish()
        }
    }

    impl<L> Drop for Bound<L> {
        fn drop(&mut self) {
            self.endpoint.close();
            self.registry.lock().remove(&self.addr);
        }
    }
}

pub use inproc::{InProcAcceptor, InProcLink, InProcTransport};
pub use sim::{SimAcceptor, SimConfig, SimLink, SimTransport};
pub use tcp::{TcpAcceptor, TcpLink, TcpTransport};
pub use udp::{UdpAcceptor, UdpLink, UdpTransport};

use crate::marshal::WireBytes;
use infopipes::{
    Consumer, ControlEvent, EventCtx, InboxSender, Item, ItemType, Node, PayloadBytes, Pipeline,
    Stage, StageCtx,
};
use mbthread::{Message, ThreadId};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typespec::Typespec;

// ---------------------------------------------------------------------
// Vocabulary types
// ---------------------------------------------------------------------

/// One message travelling over a netpipe transport.
///
/// Data frames carry [`PayloadBytes`]: cloning a frame (or teeing it to
/// several links) shares the sealed buffer by refcount, so the transport
/// layer never copies a payload it did not itself read off a wire.
/// Event frames carry core's [`ControlEvent`] itself. Backends that put
/// frames on a wire (TCP, UDP) turn a frame into a
/// [`FrameKind`](crate::FrameKind) and bytes, and back, in one place:
/// [`framing`](crate::framing).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A marshalled data item (data lane).
    Data(PayloadBytes),
    /// An out-of-band control event (control lane, priority).
    Event(ControlEvent),
    /// A factory/query protocol message (control lane, priority).
    Control(Vec<u8>),
    /// Orderly end of stream (control lane).
    Fin,
}

/// The backpressure signal of a frame-level send.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendStatus {
    /// Accepted for transmission.
    Sent,
    /// Accepted, but the link is congested — senders should slow down or
    /// shed load (this is what feedback loops react to).
    Saturated,
    /// Refused: a lossy link's bounded queue was full; the frame was
    /// discarded and counted in [`LinkStats::dropped`].
    Dropped,
    /// The link is closed (peer gone or `Fin` already sent).
    Closed,
}

impl SendStatus {
    /// Whether the frame was accepted (sent or saturated).
    #[must_use]
    pub fn accepted(self) -> bool {
        matches!(self, SendStatus::Sent | SendStatus::Saturated)
    }
}

/// The outcome of a [`Link::recv`] poll.
#[derive(Debug)]
pub enum RecvOutcome {
    /// A frame arrived.
    Frame(Frame),
    /// The peer ended the stream in order (`Fin` received).
    Fin,
    /// The link died without a `Fin` (peer dropped, I/O error).
    Closed,
    /// Nothing arrived within the timeout.
    TimedOut,
}

/// Identity of the remote end of a link, e.g. `tcp://127.0.0.1:41234`.
///
/// This is what the marshalling filters stamp into the Typespec
/// *location* property when a flow crosses the netpipe
/// ([`Unmarshal::at_peer`](crate::Unmarshal::at_peer)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerIdentity {
    scheme: &'static str,
    addr: String,
}

impl PeerIdentity {
    /// Builds an identity from a transport scheme and address.
    #[must_use]
    pub fn new(scheme: &'static str, addr: impl Into<String>) -> PeerIdentity {
        PeerIdentity {
            scheme,
            addr: addr.into(),
        }
    }

    /// The transport scheme (`tcp`, `sim`, `inproc`, …).
    #[must_use]
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    /// The transport-specific address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl fmt::Display for PeerIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.addr)
    }
}

/// Counters kept by each end of a [`Link`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames handed to the link by this end.
    pub sent: u64,
    /// Data frames this end received: handed to a `recv` poller, or
    /// taken by the bound inbox. Each data frame that reaches a bound
    /// receive side counts once, here or in `refused`.
    pub delivered: u64,
    /// Data frames dropped by the link (queue overflow / lossy backend).
    pub dropped: u64,
    /// Data frames refused by a full consumer inbox on this end (and so
    /// not counted in `delivered`).
    pub refused: u64,
    /// Payload bytes accepted for sending.
    pub bytes_sent: u64,
    /// Actual socket writes (`write_vectored` / `send` syscalls) the link
    /// performed. In-process backends keep this at zero; on wire backends
    /// `wire_writes / sent` is the syscalls-per-frame figure batching
    /// drives below one.
    pub wire_writes: u64,
    /// Frames shed because the receive queue was full — a subset of
    /// `dropped`, split out so memory pressure on the receive side is
    /// observable separately from send-side loss.
    pub rx_shed: u64,
}

/// Lock-free shared counters backing [`LinkStats`].
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub(crate) sent: AtomicU64,
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) wire_writes: AtomicU64,
    pub(crate) rx_shed: AtomicU64,
}

impl SharedStats {
    pub(crate) fn snapshot(&self) -> LinkStats {
        LinkStats {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            wire_writes: self.wire_writes.load(Ordering::Relaxed),
            rx_shed: self.rx_shed.load(Ordering::Relaxed),
        }
    }
}

/// Errors raised by transport operations.
#[derive(Debug)]
pub enum TransportError {
    /// No listener at the address.
    NotFound(String),
    /// The address is already bound.
    AddrInUse(String),
    /// The link or listener is closed.
    Closed,
    /// The receive side was already consumed by `bind_receiver`.
    ReceiverTaken,
    /// A socket error.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NotFound(a) => write!(f, "no listener at '{a}'"),
            TransportError::AddrInUse(a) => write!(f, "address '{a}' already bound"),
            TransportError::Closed => write!(f, "link closed"),
            TransportError::ReceiverTaken => write!(f, "receive side already bound"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A kernel-thread message poster, for [`Link::send_via`]: pipeline
/// stages post through their kernel context so in-kernel backends (the
/// simulator) stay deterministic under virtual time.
pub(crate) type KernelPost<'a> = &'a mut dyn FnMut(ThreadId, Message) -> bool;

// ---------------------------------------------------------------------
// The traits
// ---------------------------------------------------------------------

/// A netpipe transport: a factory for listeners and connections.
///
/// Transport values are cheap to clone; in-process backends (sim,
/// inproc) share their rendezvous registry between clones, so both ends
/// of a test can connect through the same value.
pub trait Transport: Clone + Send + 'static {
    /// The connection type.
    type Link: Link;
    /// The listener type.
    type Acceptor: Acceptor<Link = Self::Link>;

    /// The identity scheme (`tcp`, `sim`, `inproc`, …).
    fn scheme(&self) -> &'static str;

    /// Binds a listening endpoint.
    ///
    /// # Errors
    ///
    /// [`TransportError::AddrInUse`] or backend-specific I/O errors.
    fn listen(&self, addr: &str) -> Result<Self::Acceptor, TransportError>;

    /// Opens a link to a listening endpoint.
    ///
    /// # Errors
    ///
    /// [`TransportError::NotFound`] or backend-specific I/O errors.
    fn connect(&self, addr: &str) -> Result<Self::Link, TransportError>;
}

/// A bound listening endpoint.
pub trait Acceptor: Send {
    /// The connection type produced.
    type Link: Link;

    /// The concrete bound address (resolves ephemeral/auto addresses).
    fn local_addr(&self) -> String;

    /// Accepts the next incoming link, blocking.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the transport shut down.
    fn accept(&self) -> Result<Self::Link, TransportError>;

    /// Accepts the next incoming link, waiting at most `timeout`;
    /// `Ok(None)` means the timeout elapsed with no connection pending.
    ///
    /// This is the polling form accept loops are built on
    /// ([`AcceptLoop`](crate::AcceptLoop)): a serving thread can
    /// check its shutdown flag between bounded waits instead of parking
    /// forever inside [`Acceptor::accept`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the transport shut down.
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Self::Link>, TransportError>;
}

/// One end of an established netpipe connection.
///
/// Links are cheaply cloneable handles; clones share the underlying
/// connection (one clone feeds a [`NetSendEnd`] stage while another is
/// probed for [`LinkStats`]). They are also `Sync`: the serving tier
/// ([`SessionRegistry`](crate::SessionRegistry)) sends on a link from
/// whichever thread runs the broadcast sweep while an accept loop holds
/// the same handle.
pub trait Link: Clone + Send + Sync + 'static {
    /// Identity of the remote end.
    fn peer(&self) -> PeerIdentity;

    /// Sends one frame from outside the kernel, reporting backpressure.
    fn send(&self, frame: Frame) -> SendStatus;

    /// Whether a data-lane [`send`](Link::send) would return without
    /// blocking right now. Backends that shed on overflow instead of
    /// waiting (inproc, sim) are always ready — the default. A backend
    /// whose send can wait for queue space (TCP, UDP) must report
    /// readiness honestly, so a fan-out sweep
    /// ([`SessionRegistry::sweep`](crate::SessionRegistry::sweep)) can
    /// leave a stalled client's frames queued instead of stalling inside
    /// its send path. A closed link is "ready": its send returns
    /// [`SendStatus::Closed`] immediately.
    fn send_ready(&self) -> bool {
        true
    }

    /// Sends one frame from inside a kernel thread (pipeline stages).
    ///
    /// Defaults to [`Link::send`]; in-kernel backends override it to post
    /// through the caller's kernel context, which keeps virtual-time
    /// kernels deterministic.
    fn send_via(&self, post: KernelPost<'_>, frame: Frame) -> SendStatus {
        let _ = post;
        self.send(frame)
    }

    /// Receives the next frame, waiting at most `timeout`. Control-lane
    /// frames have priority over queued data frames. A zero `timeout`
    /// polls: every frame the link has received is there to be taken.
    fn recv(&self, timeout: Duration) -> RecvOutcome;

    /// Permanently binds the receive side to a pipeline: data frames feed
    /// `inbox` (refusals are counted in [`LinkStats::refused`], matching
    /// a full network buffer), events invoke `on_event`, and `Fin`
    /// finishes the inbox. At most one binding per link — "network
    /// packets … are mapped to messages by the platform" (§4).
    ///
    /// The thread that delivers a frame runs `on_event` (and puts into
    /// `inbox`); which one that is depends on the backend:
    ///
    /// * TCP and UDP: the socket reader — the link's own (TCP, the UDP
    ///   client), or the listener's (the UDP server). It hands over what
    ///   one socket read brought at once: its data frames in one put
    ///   into `inbox`, under one buffer lock with one wake-up (a TCP
    ///   read is up to 64 KiB of frames, a UDP read one datagram). A
    ///   data binding keeps its link open until the stream ends,
    ///   whether or not the caller keeps a handle.
    /// * sim: the direction's kernel thread, which keeps delivery
    ///   deterministic under virtual time.
    /// * inproc: the thread that sends the frame on the peer end, while
    ///   it holds that direction's lock. The callback must therefore not
    ///   send on the same direction (on the peer end it is bound to),
    ///   not even through a callback on the peer's side that answers
    ///   back: that send would wait for a lock its own thread holds.
    ///
    /// Frames that arrived before the binding are delivered into it, in
    /// order, before `bind_receiver` returns, and once bound,
    /// [`Link::recv`] answers [`RecvOutcome::Closed`].
    ///
    /// # Errors
    ///
    /// [`TransportError::ReceiverTaken`] if already bound.
    fn bind_receiver(
        &self,
        inbox: Option<InboxSender>,
        on_event: impl Fn(ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError>;

    /// This end's link statistics.
    fn stats(&self) -> LinkStats;
}

// ---------------------------------------------------------------------
// The generic producer-side send end
// ---------------------------------------------------------------------

/// A lock-free probe onto a [`NetSendEnd`]'s most recent *completed*
/// saturation window: the same 0..1 fraction the stage broadcasts as a
/// control event, readable from outside the pipeline. This is how send
/// saturation enters the process [`StatsRegistry`](infopipes::StatsRegistry)
/// (see [`crate::inspect::register_saturation`]), where a
/// `feedback::RegistrySensor` can poll it alongside receive-side signals.
///
/// Reads 0.0 until the first window completes; stays at the last
/// completed window thereafter.
#[derive(Clone, Debug, Default)]
pub struct SaturationProbe {
    bits: Arc<AtomicU64>,
}

impl SaturationProbe {
    /// The most recent completed window's saturation fraction.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn set(&self, fraction: f64) {
        self.bits.store(fraction.to_bits(), Ordering::Relaxed);
    }
}

/// How a socket link's writer coalesces queued data frames into one
/// batch (one vectored write on TCP, shared datagrams on UDP): a batch
/// closes at `BATCH_FRAMES` data frames or `BATCH_BYTES` payload bytes,
/// when a control/event frame needs to overtake, or at end of stream.
/// The writer flushes as soon as the sender's queue runs dry, so a batch
/// forms only when the sender outruns the wire: fewer syscalls under
/// load, no added latency.
pub(crate) const BATCH_FRAMES: usize = 64;
/// See [`BATCH_FRAMES`].
pub(crate) const BATCH_BYTES: usize = 256 * 1024;

/// The default congestion-report window (data sends per reading).
const SATURATION_WINDOW: u64 = 32;

/// A tumbling window over send attempts: every `every` attempts it
/// yields the fraction of them that met pressure (0..1) and starts over.
/// The one implementation behind both the point-to-point
/// [`NetSendEnd`] reading and the serving tier's per-session readings.
pub(crate) struct SaturationWindow {
    every: u64,
    attempts: u64,
    pressured: u64,
}

impl SaturationWindow {
    pub(crate) fn new(every: u64) -> SaturationWindow {
        SaturationWindow {
            every,
            attempts: 0,
            pressured: 0,
        }
    }

    /// Counts one attempt; returns the pressured fraction when it
    /// completes the window.
    pub(crate) fn observe(&mut self, pressured: bool) -> Option<f64> {
        self.attempts += 1;
        self.pressured += u64::from(pressured);
        if self.attempts < self.every {
            return None;
        }
        let fraction = self.pressured as f64 / self.attempts as f64;
        self.attempts = 0;
        self.pressured = 0;
        Some(fraction)
    }
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// What a [`NetSendEnd`] transmits into: one [`Link`], or the session
/// roster of a serving tier
/// ([`SessionRegistry`](crate::SessionRegistry)). Sealed — a new
/// transport implements [`Link`] and gets this for free.
pub trait SendSink: sealed::Sealed + Send + 'static {
    /// Transmits one frame from inside a kernel thread. A single link
    /// answers with its [`SendStatus`]; a roster, whose congestion is
    /// read per session from the registry, answers `None`.
    fn transmit(&self, post: KernelPost<'_>, frame: Frame) -> Option<SendStatus>;
}

impl<L: Link> sealed::Sealed for L {}

impl<L: Link> SendSink for L {
    fn transmit(&self, post: KernelPost<'_>, frame: Frame) -> Option<SendStatus> {
        Some(self.send_via(post, frame))
    }
}

/// The producer-side end of a netpipe: a passive pipeline sink accepting
/// [`WireBytes`] and transmitting them as data frames into a
/// [`SendSink`] — over any [`Link`], or fanned out to every session of a
/// [`SessionRegistry`](crate::SessionRegistry). Broadcast
/// control events are forwarded on the control lane; end of stream
/// becomes a `Fin` frame.
///
/// One generic implementation serves every backend — this is what makes
/// remote pipelines transport-agnostic at the composition level.
///
/// # Send-side congestion sensing
///
/// Over a link the stage doubles as a sensor: every window of data sends
/// it broadcasts a custom control event (default name
/// [`feedback::readings::SEND_SATURATION`]) whose value is the fraction
/// of sends in that window the link reported as
/// [`SendStatus::Saturated`] or [`SendStatus::Dropped`]. Feedback
/// controllers (`feedback::UnifiedCongestionController`) subscribe to
/// this reading, so drop levels react to transport backpressure
/// directly — not only to the receive-rate sensor on the far side of the
/// congested link.
pub struct NetSendEnd<S: SendSink> {
    name: String,
    sink: S,
    reading_name: String,
    window: SaturationWindow,
    probe: SaturationProbe,
}

impl<S: SendSink> NetSendEnd<S> {
    /// Wraps a link end (or a session registry) as a pipeline sink. Over
    /// a link, send-side congestion is reported under
    /// [`feedback::readings::SEND_SATURATION`].
    #[must_use]
    pub fn new(name: impl Into<String>, sink: S) -> NetSendEnd<S> {
        NetSendEnd {
            name: name.into(),
            sink,
            reading_name: feedback::readings::SEND_SATURATION.to_owned(),
            window: SaturationWindow::new(SATURATION_WINDOW),
            probe: SaturationProbe::default(),
        }
    }

    /// Folds one send status into the current window; returns a reading
    /// to broadcast when the window completes.
    fn observe_send(&mut self, status: SendStatus) -> Option<ControlEvent> {
        // A closed link is not a calm link: counting Closed sends would
        // complete windows at 0.0 saturation and walk drop levels back
        // down while nothing is being delivered at all.
        if matches!(status, SendStatus::Closed) {
            return None;
        }
        let pressured = matches!(status, SendStatus::Saturated | SendStatus::Dropped);
        let fraction = self.window.observe(pressured)?;
        self.probe.set(fraction);
        Some(ControlEvent::custom(&self.reading_name, fraction))
    }
}

impl<L: Link> NetSendEnd<L> {
    /// Overrides the congestion reading name and window (data sends per
    /// report).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_congestion_reports(
        mut self,
        reading_name: impl Into<String>,
        every: u64,
    ) -> NetSendEnd<L> {
        assert!(every > 0, "report window must be positive");
        self.reading_name = reading_name.into();
        self.window = SaturationWindow::new(every);
        self
    }

    /// A shared probe onto this stage's completed saturation windows —
    /// take it *before* handing the stage to a pipeline, then register
    /// it with the process stats registry.
    #[must_use]
    pub fn saturation_probe(&self) -> SaturationProbe {
        self.probe.clone()
    }
}

impl<S: SendSink> Stage for NetSendEnd<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<WireBytes>())
    }

    fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        let frame = match event {
            ControlEvent::Eos => Frame::Fin,
            // Start/Stop are pipeline-local; everything else is forwarded
            // to the remote side (feedback commands, resizes, ...).
            ControlEvent::Start | ControlEvent::Stop => return,
            // The stage's own congestion readings are local-loop signals:
            // forwarding them would push extra control frames onto the
            // very link that is saturated, hand the remote side a reading
            // that describes *this* sender, and — with send ends on both
            // sides using the same reading name — echo back and forth
            // forever.
            ControlEvent::Custom { name, .. } if name.as_ref() == self.reading_name => return,
            other => Frame::Event(other.clone()),
        };
        let _ = self.sink.transmit(&mut |to, msg| ctx.post(to, msg), frame);
    }
}

impl<S: SendSink> Consumer for NetSendEnd<S> {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        if let Ok((bytes, _)) = item.into_payload::<WireBytes>() {
            let status = self
                .sink
                .transmit(&mut |to, msg| ctx.post(to, msg), Frame::Data(bytes));
            if let Some(reading) = status.and_then(|s| self.observe_send(s)) {
                ctx.broadcast(&reading);
            }
        }
    }
}

impl<S: SendSink + fmt::Debug> fmt::Debug for NetSendEnd<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetSendEnd")
            .field("name", &self.name)
            .field("sink", &self.sink)
            .finish()
    }
}

/// Transport-aware pipeline composition helpers.
pub trait PipelineTransportExt {
    /// Adds a [`NetSendEnd`] over `link` as a consumer stage and records
    /// the link's peer identity as the stage's transport in the plan
    /// (surfaces in [`StagePlacement`](infopipes::StagePlacement)).
    fn add_net_sink<'p, L: Link>(&'p self, name: &str, link: &L) -> Node<'p>;
}

impl PipelineTransportExt for Pipeline {
    fn add_net_sink<'p, L: Link>(&'p self, name: &str, link: &L) -> Node<'p> {
        let node = self.add_consumer(name, NetSendEnd::new(name, link.clone()));
        self.set_transport(node, link.peer().to_string());
        node
    }
}
