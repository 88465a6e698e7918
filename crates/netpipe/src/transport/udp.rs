//! The UDP transport: lossy, datagram-framed, over real sockets.
//!
//! Unlike TCP there is no stream to frame: **one frame is one
//! datagram**, encoded as `[kind: u8][payload]` (the datagram boundary
//! is the length), with the kind byte and payload of
//! [`framing`](crate::framing), as on TCP. Two tags are UDP's own: a
//! packed datagram of several data frames, and the `HELLO` that
//! announces a connect. The backend is honest about UDP's nature:
//!
//! * **lossy** — a frame larger than [`MAX_DATAGRAM`] is dropped at the
//!   send end (and counted), the network itself may shed datagrams under
//!   load, and a stalled receiver sheds arrivals once its bounded
//!   receive queue fills (also counted); nothing is retransmitted. This
//!   is the "arbitrary dropping in the network" of Fig. 1 on a real
//!   socket.
//! * **TCP's send path** — frames queue in the link's [`Transmit`], and
//!   its writer, started by the first `send`, packs each batch into
//!   shared datagrams ([`send_batch`]); a lone frame goes out at once. A
//!   send waits for room, and reports `Saturated` and `send_ready`, as on
//!   TCP: while the writer lags, up to 1 024 frames (of up to 60 KiB)
//!   queue, bounded in frames, not bytes.
//! * **connectionless underneath** — the listener socket serves every
//!   client; a connect is announced with a `HELLO` datagram, and the
//!   acceptor-side link demultiplexes by source address. A reader thread
//!   arrives each datagram's frames in its link's receive queue, which
//!   queues them for `recv` or delivers them into a bound pipeline: on
//!   the server one reader routes every peer's datagrams, on a client
//!   one reader, started by the link's first `recv` or
//!   `bind_receiver`, reads its own socket. Both run one body.
//! * **control priority at the receiver** — datagrams arrive in kernel
//!   order, and control-lane frames overtake data queued at the receiver
//!   (the same reordering point the in-process backend uses).
//!
//! `Fin` travels in-band as its own datagram, behind the data queued
//! ahead of it, and a dropped link sends one too; with no handshake
//! there is no delivery guarantee for it. A client whose socket reports a
//! hard error (e.g. `ECONNREFUSED` via ICMP after the server vanished)
//! surfaces `Closed`; a peer that vanishes *silently* is
//! indistinguishable from an idle link — inherent to UDP — and must be
//! handled by inactivity timeouts at higher layers.
//! Payload buffers are [`PayloadBytes`]; note that the `[kind]` tag
//! prefix forces one send-side copy per datagram (tag + payload must be
//! contiguous), and receives seal each datagram once — the unavoidable
//! I/O-boundary copies, with none elsewhere.

use super::lanes::{Batch, LaneQueue, OnFull, Transmit, RX_QUEUE_FRAMES, TX_QUEUE_FRAMES};
use super::{
    Acceptor, Frame, Link, LinkStats, PeerIdentity, Pending, RecvOutcome, SendStatus, SharedStats,
    Transport, TransportError,
};
use crate::framing::{self, FrameKind};
use crate::worker::{Stop, Worker};
use infopipes::{BufferPool, PayloadBytes};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

// The first byte of every datagram is a `FrameKind`'s (0–3) or one of
// these two tags.
/// A connect announcement.
const TAG_HELLO: u8 = 0xF0;
/// A packed datagram of several small data frames:
/// `[TAG_BATCH]([len: u32 LE][payload])*` — N frames for one `sendto`.
const TAG_BATCH: u8 = 4;

/// The largest payload the backend puts in one datagram, comfortably
/// under the UDP maximum (65507) to leave header room.
const MAX_DATAGRAM: usize = 60 * 1024;

/// Seals `payload` into a pooled buffer — the receive-side copy off the
/// socket, allocation-free once the pool is warm.
fn seal_pooled(pool: &BufferPool, payload: &[u8]) -> PayloadBytes {
    let mut b = pool.acquire(payload.len());
    b.buf_mut().extend_from_slice(payload);
    b.seal()
}

/// Decodes one datagram into zero or more frames, appended to `frames`.
/// A [`TAG_BATCH`] datagram fans out into one `Data` frame per packed
/// entry; a truncated trailing entry (corruption) discards the remainder
/// only. Any other tag is a [`FrameKind`], decoded as every backend does;
/// an unknown tag or an event that fails to decode is skipped.
fn decode_into(tag: u8, payload: &[u8], pool: &BufferPool, frames: &mut Vec<Frame>) {
    if tag == TAG_BATCH {
        let mut rest = payload;
        while rest.len() >= 4 {
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            rest = &rest[4..];
            if rest.len() < len {
                break;
            }
            frames.push(Frame::Data(seal_pooled(pool, &rest[..len])));
            rest = &rest[len..];
        }
    } else if let Ok(kind) = FrameKind::from_byte(tag) {
        frames.extend(framing::frame_from_parts(kind, seal_pooled(pool, payload)));
    }
}

// ---------------------------------------------------------------------
// Send side: the drain a link's `Transmit` sends each batch through
// ---------------------------------------------------------------------

/// Where a link's datagrams go, and the buffer its writer packs them in.
struct UdpWire {
    socket: Arc<UdpSocket>,
    /// The peer's address on the listener's shared socket; `None` on a
    /// client's connected socket.
    to: Option<SocketAddr>,
    /// The datagram being assembled, reused from batch to batch.
    buf: Vec<u8>,
}

impl UdpWire {
    /// Sends the datagram in `buf`, if any, counting the write; a failed
    /// send sheds the `frames` data frames it carried — UDP loss is per
    /// datagram. `buf` is left empty.
    fn flush(&mut self, frames: u64, stats: &SharedStats) {
        if self.buf.is_empty() {
            return;
        }
        let sent = match self.to {
            Some(peer) => self.socket.send_to(&self.buf, peer),
            None => self.socket.send(&self.buf),
        };
        match sent {
            Ok(_) => stats.wire_writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => stats.dropped.fetch_add(frames, Ordering::Relaxed),
        };
        self.buf.clear();
    }

    /// Sends `[tag][payload]` as one datagram.
    fn send_tagged(&mut self, tag: u8, payload: &[u8], frames: u64, stats: &SharedStats) {
        self.buf.push(tag);
        self.buf.extend_from_slice(payload);
        self.flush(frames, stats);
    }
}

/// The UDP drain: one datagram per control frame, then the data packed
/// into [`TAG_BATCH`] datagrams of up to [`MAX_DATAGRAM`] bytes (a frame
/// too long to pack goes alone), then `Fin` if it is due. A full socket
/// buffer is loss, not a broken link: the writer carries on.
fn send_batch(wire: &mut UdpWire, batch: &Batch, stats: &SharedStats) -> bool {
    for frame in &batch.ctrl {
        if let Ok((kind, payload)) = framing::frame_to_parts(frame) {
            wire.send_tagged(kind.to_byte(), &payload, 0, stats);
        }
    }
    let mut packed = 0;
    for bytes in &batch.data {
        let entry = 4 + bytes.len();
        if packed > 0 && wire.buf.len() + entry > MAX_DATAGRAM + 1 {
            wire.flush(packed, stats);
            packed = 0;
        }
        if 1 + entry > MAX_DATAGRAM + 1 {
            // The entry's length prefix would overflow the datagram: the
            // frame goes alone, after the data packed ahead of it.
            wire.send_tagged(FrameKind::Data.to_byte(), bytes, 1, stats);
            continue;
        }
        if packed == 0 {
            wire.buf.push(TAG_BATCH);
        }
        let len = u32::try_from(bytes.len()).expect("datagram-sized frame fits u32");
        wire.buf.extend_from_slice(&len.to_le_bytes());
        wire.buf.extend_from_slice(bytes);
        packed += 1;
    }
    wire.flush(packed, stats);
    if batch.fin {
        wire.send_tagged(FrameKind::Fin.to_byte(), &[], 0, stats);
    }
    true
}

// ---------------------------------------------------------------------
// Receive side: one datagram-reading body for both link flavours
// ---------------------------------------------------------------------

/// How long a reader waits on a quiet socket before it looks for a stop
/// request.
const READ_POLL: Duration = Duration::from_millis(50);

/// The body of every UDP reader: reads `socket` until a stop is
/// requested or `arrive`, handed each datagram's sender, tag and
/// payload, answers `false`. `false` if a hard socket error ended it —
/// e.g. `ECONNREFUSED` from an ICMP port-unreachable after the server
/// socket closed.
fn read_datagrams(
    socket: &UdpSocket,
    stop: &Stop,
    mut arrive: impl FnMut(SocketAddr, u8, &[u8]) -> bool,
) -> bool {
    let mut buf = vec![0u8; 64 * 1024 + 1];
    let _ = socket.set_read_timeout(Some(READ_POLL));
    while !stop.requested() {
        match socket.recv_from(&mut buf) {
            Ok((n, from)) if n > 0 && !arrive(from, buf[0], &buf[1..n]) => break,
            // Benign: an empty datagram, timeout expiry or a signal.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(_) => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

enum LinkSide {
    /// Client side: owns its socket, read by the link's own reader,
    /// started by the first `recv` or `bind_receiver`; `None` if the OS
    /// refused the thread (the receive queue is closed then).
    Client {
        socket: Arc<UdpSocket>,
        reader: OnceLock<Option<Worker>>,
    },
    /// Server side: datagrams arrive via the listener's reader thread.
    /// The strong ref keeps the shared socket and reader alive for as
    /// long as any accepted link exists, acceptor dropped or not.
    Server {
        server: Arc<ServerShared>,
        peer_addr: SocketAddr,
    },
}

struct UdpInner {
    peer: PeerIdentity,
    side: LinkSide,
    /// The send side: the writer, started by the first `send`, packs and
    /// sends the datagrams.
    tx: Transmit<UdpWire>,
    rx: Arc<LaneQueue>,
    stats: Arc<SharedStats>,
    /// Pool arriving data payloads are sealed into (shared with the
    /// listener's [`PeerEntry`] on the server side).
    rx_pool: BufferPool,
}

impl Drop for UdpInner {
    fn drop(&mut self) {
        // The peer's stream ends as on every backend: `Fin`, behind the
        // queued data, within the bounded flush window.
        self.tx.close();
        if let LinkSide::Server { server, peer_addr } = &self.side {
            server.peers.lock().remove(peer_addr);
        }
    }
}

/// One end of a UDP "connection" (cheap to clone).
#[derive(Clone)]
pub struct UdpLink {
    inner: Arc<UdpInner>,
}

impl UdpLink {
    fn new(peer_addr: String, side: LinkSide, entry: PeerEntry) -> UdpLink {
        let (socket, to) = match &side {
            LinkSide::Client { socket, .. } => (Arc::clone(socket), None),
            LinkSide::Server { server, peer_addr } => {
                (Arc::clone(&server.socket), Some(*peer_addr))
            }
        };
        let wire = UdpWire {
            socket,
            to,
            buf: Vec::new(),
        };
        UdpLink {
            inner: Arc::new(UdpInner {
                peer: PeerIdentity::new("udp", peer_addr),
                side,
                tx: Transmit::new(
                    "udp-netpipe-writer",
                    wire,
                    send_batch,
                    MAX_DATAGRAM,
                    TX_QUEUE_FRAMES,
                    Arc::clone(&entry.stats),
                ),
                rx: entry.rx,
                stats: entry.stats,
                rx_pool: entry.pool,
            }),
        }
    }

    /// Statistics of the receive-side buffer pool: hit/miss counts and
    /// the number of payload buffers still checked out downstream.
    #[must_use]
    pub fn pool_stats(&self) -> infopipes::PoolStats {
        self.inner.rx_pool.stats()
    }

    /// Starts a client link's reader, once (a server link's is the
    /// listener's); a thread the OS refuses closes the receive queue.
    fn start_reader(&self) {
        let inner = &self.inner;
        let LinkSide::Client { socket, reader } = &inner.side else {
            return;
        };
        reader.get_or_init(|| {
            let (rx, stats) = (Arc::clone(&inner.rx), Arc::clone(&inner.stats));
            let (socket, pool) = (Arc::clone(socket), inner.rx_pool.clone());
            Worker::spawn("udp-netpipe-reader", move |stop| {
                let mut frames = Vec::new();
                let healthy = read_datagrams(&socket, stop, |_, tag, payload| {
                    decode_into(tag, payload, &pool, &mut frames);
                    rx.arrive_all(&mut frames, OnFull::Shed, &stats)
                });
                if !healthy {
                    rx.close(None);
                }
            })
            .inspect_err(|_| inner.rx.close(None))
            .ok()
        });
    }
}

impl Link for UdpLink {
    fn peer(&self) -> PeerIdentity {
        self.inner.peer.clone()
    }

    fn send(&self, frame: Frame) -> SendStatus {
        self.inner.tx.send(frame)
    }

    fn send_ready(&self) -> bool {
        self.inner.tx.send_ready()
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        self.start_reader();
        self.inner.rx.recv(timeout, &self.inner.stats)
    }

    fn bind_receiver(
        &self,
        inbox: Option<infopipes::InboxSender>,
        on_event: impl Fn(infopipes::ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        let inner = &self.inner;
        inner
            .rx
            .bind_holding(self.clone(), inbox, on_event, &inner.stats)?;
        self.start_reader();
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats.snapshot()
    }
}

impl std::fmt::Debug for UdpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpLink")
            .field("peer", &self.inner.peer.to_string())
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Listener: one socket, demultiplexed by source address
// ---------------------------------------------------------------------

#[derive(Clone)]
struct PeerEntry {
    rx: Arc<LaneQueue>,
    stats: Arc<SharedStats>,
    /// Per-peer receive pool: arriving payloads seal into recycled
    /// buffers, so a fan-in of N peers costs N warm pools, not N × frames
    /// allocations.
    pool: BufferPool,
}

impl PeerEntry {
    fn new() -> PeerEntry {
        PeerEntry {
            rx: Arc::new(LaneQueue::new(RX_QUEUE_FRAMES)),
            stats: Arc::new(SharedStats::default()),
            pool: BufferPool::new(),
        }
    }
}

struct ServerShared {
    socket: Arc<UdpSocket>,
    peers: Mutex<HashMap<SocketAddr, PeerEntry>>,
    /// Freshly announced peers awaiting `accept`.
    pending: Pending<SocketAddr>,
    /// The datagram router, set once by `listen`.
    reader: OnceLock<Worker>,
}

/// Routes every arriving datagram: `HELLO` creates a peer entry and
/// wakes `accept`; anything else arrives in its peer's queue, which
/// queues it or delivers it into the peer link's binding. Holds only a
/// weak ref, so the thread is stopped once the acceptor and every
/// accepted link are gone. A socket error is taken for transient: the
/// reader reads on.
fn reader_loop(socket: &UdpSocket, server: &Weak<ServerShared>, stop: &Stop) {
    let mut frames = Vec::new();
    let mut route = |from, tag, payload: &[u8]| {
        let Some(srv) = server.upgrade() else {
            return false;
        };
        if tag == TAG_HELLO {
            let mut peers = srv.peers.lock();
            if let std::collections::hash_map::Entry::Vacant(slot) = peers.entry(from) {
                slot.insert(PeerEntry::new());
                srv.pending.offer(from);
            }
        } else {
            // Deliver outside `peers`: a binding that ends lets go of its
            // link handle, maybe the last one, whose drop locks `peers`.
            let entry = srv.peers.lock().get(&from).cloned();
            if let Some(entry) = entry {
                decode_into(tag, payload, &entry.pool, &mut frames);
                entry.rx.arrive_all(&mut frames, OnFull::Shed, &entry.stats);
            }
        }
        true
    };
    while !read_datagrams(socket, stop, &mut route) {}
}

/// A bound UDP listening endpoint. Dropping it unblocks pending
/// `accept` calls; the shared reader keeps serving already-accepted
/// links and exits once the last of them is gone.
pub struct UdpAcceptor {
    server: Arc<ServerShared>,
}

impl Drop for UdpAcceptor {
    fn drop(&mut self) {
        self.server.pending.close();
    }
}

impl Acceptor for UdpAcceptor {
    type Link = UdpLink;

    fn local_addr(&self) -> String {
        self.server
            .socket
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default()
    }

    fn accept(&self) -> Result<UdpLink, TransportError> {
        let peer_addr = self.server.pending.take(None)?;
        self.link_for(peer_addr.expect("an untimed wait ends with a peer or an error"))
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Option<UdpLink>, TransportError> {
        let peer_addr = self.server.pending.take(Some(timeout))?;
        peer_addr.map(|addr| self.link_for(addr)).transpose()
    }
}

impl UdpAcceptor {
    /// Builds the server-side link for a handshaken peer address.
    fn link_for(&self, peer_addr: std::net::SocketAddr) -> Result<UdpLink, TransportError> {
        let entry = self.server.peers.lock().get(&peer_addr).cloned();
        let side = LinkSide::Server {
            server: Arc::clone(&self.server),
            peer_addr,
        };
        Ok(UdpLink::new(
            peer_addr.to_string(),
            side,
            entry.ok_or(TransportError::Closed)?,
        ))
    }
}

impl std::fmt::Debug for UdpAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpAcceptor")
            .field("addr", &self.local_addr())
            .finish()
    }
}

// ---------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------

/// The UDP transport. Stateless; addresses are standard socket addresses
/// (`127.0.0.1:0` binds an ephemeral port).
#[derive(Clone, Debug, Default)]
pub struct UdpTransport;

impl UdpTransport {
    /// A transport with a 60 KiB datagram payload limit (larger data
    /// frames are dropped at the send end, and counted, as on a path with
    /// a hard MTU) and small-frame packing on: the frames queued while
    /// the writer sent the last batch, up to 64, share datagrams.
    #[must_use]
    pub fn new() -> UdpTransport {
        UdpTransport
    }
}

impl Transport for UdpTransport {
    type Link = UdpLink;
    type Acceptor = UdpAcceptor;

    fn scheme(&self) -> &'static str {
        "udp"
    }

    fn listen(&self, addr: &str) -> Result<UdpAcceptor, TransportError> {
        let socket = Arc::new(UdpSocket::bind(addr)?);
        let server = Arc::new(ServerShared {
            socket,
            peers: Mutex::new(HashMap::new()),
            pending: Pending::new(),
            reader: OnceLock::new(),
        });
        let (socket, weak) = (Arc::clone(&server.socket), Arc::downgrade(&server));
        let reader = Worker::spawn("udp-netpipe-reader", move |stop| {
            reader_loop(&socket, &weak, stop);
        })?;
        let _ = server.reader.set(reader);
        Ok(UdpAcceptor { server })
    }

    fn connect(&self, addr: &str) -> Result<UdpLink, TransportError> {
        // Bind an ephemeral socket of the same address family as the
        // target, so IPv6 listeners work like they do over TCP.
        let target = std::net::ToSocketAddrs::to_socket_addrs(addr)?
            .next()
            .ok_or_else(|| TransportError::NotFound(addr.to_owned()))?;
        let socket = if target.is_ipv6() {
            UdpSocket::bind("[::]:0")?
        } else {
            UdpSocket::bind("0.0.0.0:0")?
        };
        socket.connect(target)?;
        // Announce ourselves; the acceptor materialises the peer from
        // this datagram. No reply is required before streaming: data
        // sent before `accept` queues in the listener socket. The HELLO
        // itself is unacknowledged, so follow it with best-effort
        // duplicates (the server dedups by source address) — losing all
        // of them would leave the connection streaming into a black
        // hole. Only the first send propagates errors, so a late ICMP
        // rejection cannot make `connect` nondeterministic.
        socket.send(&[TAG_HELLO])?;
        for _ in 0..2 {
            let _ = socket.send(&[TAG_HELLO]);
        }
        let side = LinkSide::Client {
            socket: Arc::new(socket),
            reader: OnceLock::new(),
        };
        Ok(UdpLink::new(addr.to_owned(), side, PeerEntry::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use infopipes::ControlEvent;
    use std::time::Instant;

    #[test]
    fn hello_establishes_a_demultiplexed_peer() {
        let transport = UdpTransport::new();
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let c1 = transport.connect(&addr).unwrap();
        let c2 = transport.connect(&addr).unwrap();
        let s1 = acceptor.accept().unwrap();
        let s2 = acceptor.accept().unwrap();
        assert_ne!(s1.peer().addr(), s2.peer().addr());
        // Each server link sees only its own client's traffic.
        assert!(c1
            .send(Frame::Data(PayloadBytes::from(vec![1u8])))
            .accepted());
        assert!(c2
            .send(Frame::Data(PayloadBytes::from(vec![2u8])))
            .accepted());
        let deadline = Instant::now() + Duration::from_secs(10);
        let recv_one = |link: &UdpLink| loop {
            match link.recv(Duration::from_millis(100)) {
                RecvOutcome::Frame(Frame::Data(b)) => return b[0],
                RecvOutcome::TimedOut if Instant::now() < deadline => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(recv_one(&s1), 1);
        assert_eq!(recv_one(&s2), 2);
    }

    #[test]
    fn receive_queue_is_bounded_and_sheds_with_counting() {
        let rx = LaneQueue::new(RX_QUEUE_FRAMES);
        let stats = SharedStats::default();
        let mut frames: Vec<Frame> = (0..(RX_QUEUE_FRAMES + 10))
            .map(|i| Frame::Data(PayloadBytes::from(vec![(i % 251) as u8])))
            .collect();
        assert!(rx.arrive_all(&mut frames, OnFull::Shed, &stats));
        // Control frames are never shed, and still overtake the backlog;
        // nothing arrives after the `Fin`.
        let mut frames = vec![Frame::Event(ControlEvent::SetDropLevel(1)), Frame::Fin];
        assert!(!rx.arrive_all(&mut frames, OnFull::Shed, &stats), "ended");
        let mut late = vec![Frame::Event(ControlEvent::SetDropLevel(2))];
        assert!(!rx.arrive_all(&mut late, OnFull::Shed, &stats));
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 10);
        // Sheds are also split out as the memory-pressure signal.
        assert_eq!(stats.rx_shed.load(Ordering::Relaxed), 10);
        let pop = || rx.try_recv(&stats);
        assert!(matches!(pop(), Some(RecvOutcome::Frame(Frame::Event(_)))));
        let mut data = 0;
        while let Some(RecvOutcome::Frame(Frame::Data(_))) = pop() {
            data += 1;
        }
        assert_eq!(data, RX_QUEUE_FRAMES, "backlog capped at the queue bound");
        assert_eq!(stats.delivered.load(Ordering::Relaxed), data as u64);
        // `Fin` kept its place behind the data, and stays readable.
        assert!(matches!(rx.try_recv(&stats), Some(RecvOutcome::Fin)));
        assert!(matches!(rx.try_recv(&stats), Some(RecvOutcome::Fin)));
    }

    /// "Bind and forget": a bound server link whose handles are all
    /// dropped, the acceptor's too, keeps hearing its peer on the reader
    /// thread until `Fin` ends the stream.
    #[test]
    fn a_bound_server_link_outlives_its_handle_until_fin() {
        use infopipes::helpers::CollectSink;
        use infopipes::{BufferSpec, ControlEvent, FreePump, Pipeline};
        use mbthread::{Kernel, KernelConfig};

        let kernel = Kernel::new(KernelConfig::default());
        let transport = UdpTransport::new();
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.connect(&acceptor.local_addr()).unwrap();
        let server = acceptor.accept().unwrap();

        let pipeline = Pipeline::new(&kernel, "consumer");
        let (inbox, sender) = pipeline.add_inbox("net-in", BufferSpec::bounded(64));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let unmarshal = pipeline.add_function("unmarshal", crate::Unmarshal::<u32>::new("u"));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = inbox >> pump >> unmarshal >> sink;
        server.bind_receiver(Some(sender), |_| {}).unwrap();
        drop((server, acceptor));

        let running = pipeline.start().unwrap();
        let events = running.subscribe();
        running.start_flow().unwrap();
        for seq in 0..20u32 {
            let frame = Frame::Data(wire::to_payload(&seq).unwrap());
            assert!(client.send(frame).accepted(), "frame {seq}");
        }
        assert_eq!(client.send(Frame::Fin), SendStatus::Sent);
        let deadline = Instant::now() + Duration::from_secs(20);
        while events.recv_timeout(Duration::from_millis(50)) != Some(ControlEvent::Eos) {
            assert!(
                Instant::now() < deadline,
                "no end of stream ({} frames)",
                out.lock().len()
            );
        }
        assert_eq!(*out.lock(), (0..20).collect::<Vec<u32>>());
        drop(running);
        kernel.shutdown();
    }

    #[test]
    fn packed_datagrams_fan_out_in_order() {
        // Decode side: a TAG_BATCH datagram yields every packed frame.
        let pool = BufferPool::new();
        let mut dgram = vec![TAG_BATCH];
        for payload in [&b"aa"[..], &b"b"[..], &b""[..], &b"cccc"[..]] {
            dgram.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            dgram.extend_from_slice(payload);
        }
        let mut got = Vec::new();
        decode_into(dgram[0], &dgram[1..], &pool, &mut got);
        let payloads: Vec<Vec<u8>> = got
            .iter()
            .map(|f| match f {
                Frame::Data(b) => b.as_slice().to_vec(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            payloads,
            vec![b"aa".to_vec(), b"b".to_vec(), vec![], b"cccc".to_vec()]
        );

        // End to end: several small sends arrive as distinct frames, in
        // order, with fewer datagrams than frames.
        let transport = UdpTransport::new();
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.connect(&acceptor.local_addr()).unwrap();
        let server = acceptor.accept().unwrap();
        for i in 0..16u8 {
            assert!(client
                .send(Frame::Data(PayloadBytes::from(vec![i])))
                .accepted());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = Vec::new();
        while seen.len() < 16 {
            match server.recv(Duration::from_millis(100)) {
                RecvOutcome::Frame(Frame::Data(b)) => seen.push(b[0]),
                RecvOutcome::TimedOut if Instant::now() < deadline => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, (0..16).collect::<Vec<u8>>());
        assert!(
            client.stats().wire_writes < 16,
            "packing should cost fewer datagrams than frames: {:?}",
            client.stats()
        );
    }

    /// Decodes one datagram (`[tag][payload]`): no panic, and no frame
    /// longer than the datagram that carried it.
    fn decode_hostile(dgram: &[u8], pool: &BufferPool) {
        let Some((&tag, payload)) = dgram.split_first() else {
            return;
        };
        let mut frames = Vec::new();
        decode_into(tag, payload, pool, &mut frames);
        for frame in &frames {
            let len = match frame {
                Frame::Data(bytes) => bytes.len(),
                Frame::Control(bytes) => bytes.len(),
                Frame::Event(_) | Frame::Fin => 0,
            };
            assert!(len <= payload.len(), "a {len}-byte frame from {dgram:?}");
        }
    }

    #[test]
    fn hostile_datagrams_decode_without_panic_or_growth() {
        let mut valid = vec![TAG_BATCH];
        for payload in [&b"aa"[..], &b""[..], &[9; 40][..], &b"cccc"[..]] {
            valid.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            valid.extend_from_slice(payload);
        }
        let pool = BufferPool::new();
        for cut in 0..=valid.len() {
            decode_hostile(&valid[..cut], &pool);
        }
        let mut mutated = valid.clone();
        for at in 0..valid.len() {
            for byte in [0x00, 0x7F, 0x80, 0xFF, !valid[at]] {
                mutated[at] = byte;
                decode_hostile(&mutated, &pool);
            }
            mutated[at] = valid[at];
        }
        let mut rng = proptest::TestRng::deterministic("udp_hostile_datagrams");
        for _ in 0..2000 {
            let len = 1 + rng.below(64);
            let mut dgram: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            // Every tag the demux knows, and some it does not.
            dgram[0] = [TAG_BATCH, TAG_HELLO, 0, 1, 2, 3, rng.below(256) as u8][rng.below(7)];
            decode_hostile(&dgram, &pool);
        }
    }

    #[test]
    fn oversized_frames_are_shed_and_counted() {
        let transport = UdpTransport::new();
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.connect(&acceptor.local_addr()).unwrap();
        assert_eq!(
            client.send(Frame::Data(PayloadBytes::from(vec![0u8; MAX_DATAGRAM + 1]))),
            SendStatus::Dropped
        );
        let stats = client.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.dropped, 1);
    }
}
