//! The UDP transport: lossy, datagram-framed, over real sockets.
//!
//! Unlike TCP there is no stream to frame: **one frame is one
//! datagram**, encoded as `[kind: u8][payload]` (the datagram boundary
//! is the length). The backend is honest about UDP's nature:
//!
//! * **lossy** — a frame larger than the configured datagram limit is
//!   dropped at the send end (and counted), the network itself may shed
//!   datagrams under load, and a stalled receiver sheds arrivals once
//!   its bounded receive queue fills (also counted); nothing is
//!   retransmitted. This is the "arbitrary dropping in the network" of
//!   Fig. 1 on a real socket.
//! * **connectionless underneath** — the listener socket serves every
//!   client; a connect is announced with a `HELLO` datagram, and the
//!   acceptor-side link demultiplexes by source address. A dedicated
//!   reader thread on the server routes arriving datagrams to per-peer
//!   queues.
//! * **control priority at the receiver** — datagrams arrive in kernel
//!   order, so the receive side drains everything available before
//!   serving, and control-lane frames overtake queued data there (the
//!   same reordering point the in-process backend uses).
//!
//! `Fin` travels in-band as its own datagram; with no handshake there
//! is no delivery guarantee for it. A client whose socket reports a
//! hard error (e.g. `ECONNREFUSED` via ICMP after the server vanished)
//! surfaces `Closed`; a peer that vanishes *silently* is
//! indistinguishable from an idle link — inherent to UDP — and must be
//! handled by inactivity timeouts at higher layers.
//! Payload buffers are [`PayloadBytes`]; note that the `[kind]` tag
//! prefix forces one send-side copy per datagram (tag + payload must be
//! contiguous), and receives seal each datagram once — the unavoidable
//! I/O-boundary copies, with none elsewhere.

use super::lanes::LaneQueue;
use super::{
    Acceptor, BatchPolicy, Frame, Link, LinkStats, PeerIdentity, Pending, ReceiverSlot,
    RecvOutcome, SendStatus, SharedStats, Transport, TransportError,
};
use crate::proto::WireEvent;
use crate::wire;
use crate::worker::{Stop, Worker};
use infopipes::{BufferPool, PayloadBytes};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Datagram type bytes (first byte of every datagram).
const TAG_HELLO: u8 = 0xF0;
const TAG_DATA: u8 = 0;
const TAG_EVENT: u8 = 1;
const TAG_CONTROL: u8 = 2;
const TAG_FIN: u8 = 3;
/// A packed datagram of several small data frames:
/// `[TAG_BATCH]([len: u32 LE][payload])*` — N frames for one `send`.
const TAG_BATCH: u8 = 4;

/// The largest payload the backend will put in one datagram by default,
/// comfortably under the UDP maximum (65507) to leave header room.
pub const DEFAULT_MAX_DATAGRAM: usize = 60 * 1024;

/// How long a partial packed datagram is held open before the flusher
/// sends it, when the policy doesn't specify a linger.
const DEFAULT_UDP_LINGER: Duration = Duration::from_millis(1);

/// Seals `payload` into a pooled buffer — the receive-side copy off the
/// socket, allocation-free once the pool is warm.
fn seal_pooled(pool: &BufferPool, payload: &[u8]) -> PayloadBytes {
    let mut b = pool.acquire(payload.len());
    b.buf_mut().extend_from_slice(payload);
    b.seal()
}

/// Decodes one datagram into zero or more frames. A [`TAG_BATCH`]
/// datagram fans out into one `Data` frame per packed entry; a truncated
/// trailing entry (corruption) discards the remainder only.
fn decode_into(tag: u8, payload: &[u8], pool: &BufferPool, push: &mut impl FnMut(Frame)) {
    match tag {
        TAG_DATA => push(Frame::Data(seal_pooled(pool, payload))),
        TAG_BATCH => {
            let mut rest = payload;
            while rest.len() >= 4 {
                let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
                rest = &rest[4..];
                if rest.len() < len {
                    break;
                }
                push(Frame::Data(seal_pooled(pool, &rest[..len])));
                rest = &rest[len..];
            }
        }
        TAG_EVENT => {
            if let Ok(ev) = wire::from_bytes::<WireEvent>(payload) {
                push(Frame::Event(ev));
            }
        }
        TAG_CONTROL => push(Frame::Control(payload.to_vec())),
        TAG_FIN => push(Frame::Fin),
        _ => {}
    }
}

/// The packed datagram under construction on the send side.
#[derive(Default)]
struct TxBatch {
    /// `[TAG_BATCH]([len][payload])*` so far; empty when no batch is open.
    buf: Vec<u8>,
    /// Frames packed into `buf`.
    frames: u64,
    /// Payload bytes packed into `buf` (for `bytes_sent` on flush).
    payload_bytes: u64,
}

// ---------------------------------------------------------------------
// Receive-side queue shared by both link flavours
// ---------------------------------------------------------------------

/// Data frames the receive queue holds before shedding arrivals: like
/// the other lossy backends, a stalled consumer must produce bounded
/// memory use and counted drops, not an unbounded backlog.
const RX_QUEUE_FRAMES: usize = 1024;

/// Enqueues an arrived frame on a link's receive queue. The data lane
/// is bounded ([`RX_QUEUE_FRAMES`]): overflow sheds the arrival, keeping
/// the backend lossy rather than unbounded when the consumer stalls. A
/// shed is counted both as a drop (it is loss) and separately as
/// `rx_shed`, the memory-pressure signal feedback loops watch.
fn rx_push(rx: &LaneQueue, frame: Frame, stats: &SharedStats) {
    if !rx.arrive(frame) {
        stats.dropped.fetch_add(1, Ordering::Relaxed);
        stats.rx_shed.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

enum LinkSide {
    /// Client side: owns its socket; `recv` reads datagrams itself into
    /// a reusable buffer (allocated once per link, not per poll).
    Client {
        socket: UdpSocket,
        recv_buf: Mutex<Vec<u8>>,
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
    rx: Arc<LaneQueue>,
    max_datagram: usize,
    stats: Arc<SharedStats>,
    fin_sent: AtomicBool,
    receiver: ReceiverSlot,
    /// Pool arriving data payloads are sealed into (shared with the
    /// listener's [`PeerEntry`] on the server side).
    rx_pool: BufferPool,
    /// Small-frame packing policy; `None` sends one datagram per frame.
    batch: Option<BatchPolicy>,
    tx_batch: Mutex<TxBatch>,
    /// The linger flusher, spawned on the first packed frame; `None`
    /// remembers a refused spawn, after which packed frames flush inline.
    flusher: OnceLock<Option<Worker>>,
}

impl UdpInner {
    /// Sends one raw datagram toward the peer.
    fn raw_send(&self, dgram: &[u8]) -> std::io::Result<usize> {
        match &self.side {
            LinkSide::Client { socket, .. } => socket.send(dgram),
            LinkSide::Server { server, peer_addr } => server.socket.send_to(dgram, peer_addr),
        }
    }

    /// Sends `[tag][payload]` as one datagram, counting the write.
    fn send_tagged(&self, tag: u8, payload: &[u8]) -> std::io::Result<usize> {
        let mut dgram = Vec::with_capacity(payload.len() + 1);
        dgram.push(tag);
        dgram.extend_from_slice(payload);
        let sent = self.raw_send(&dgram)?;
        self.stats.wire_writes.fetch_add(1, Ordering::Relaxed);
        Ok(sent)
    }

    /// Sends the pending packed datagram, if any. A failed send sheds
    /// every frame in the packet — UDP loss is per-datagram.
    fn flush_batch(&self, batch: &mut TxBatch) {
        if batch.frames == 0 {
            return;
        }
        match self.raw_send(&batch.buf) {
            Ok(_) => {
                self.stats.wire_writes.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_sent
                    .fetch_add(batch.payload_bytes, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats
                    .dropped
                    .fetch_add(batch.frames, Ordering::Relaxed);
            }
        }
        batch.buf.clear();
        batch.frames = 0;
        batch.payload_bytes = 0;
    }

    /// Flushes the pending packed datagram (linger expiry, `Fin`, drop).
    fn flush_pending(&self) {
        let mut batch = self.tx_batch.lock();
        self.flush_batch(&mut batch);
    }

    /// Sends a data frame singly: `[TAG_DATA][payload]`, one datagram.
    fn send_data_single(&self, bytes: &PayloadBytes) -> SendStatus {
        match self.send_tagged(TAG_DATA, bytes) {
            Ok(_) => {
                self.stats
                    .bytes_sent
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                SendStatus::Sent
            }
            Err(_) => {
                // A full socket buffer is genuine loss on UDP.
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                SendStatus::Dropped
            }
        }
    }
}

impl Drop for UdpInner {
    fn drop(&mut self) {
        self.flush_pending();
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
    fn new(peer_addr: String, side: LinkSide, entry: PeerEntry, cfg: &UdpTransport) -> UdpLink {
        UdpLink {
            inner: Arc::new(UdpInner {
                peer: PeerIdentity::new("udp", peer_addr),
                side,
                rx: entry.rx,
                max_datagram: cfg.max_datagram,
                stats: entry.stats,
                fin_sent: AtomicBool::new(false),
                receiver: ReceiverSlot::default(),
                rx_pool: entry.pool,
                batch: cfg.batch,
                tx_batch: Mutex::new(TxBatch::default()),
                flusher: OnceLock::new(),
            }),
        }
    }

    /// Statistics of the receive-side buffer pool: hit/miss counts and
    /// the number of payload buffers still checked out downstream.
    #[must_use]
    pub fn pool_stats(&self) -> infopipes::PoolStats {
        self.inner.rx_pool.stats()
    }

    /// Makes sure a packed frame left pending gets sent within one
    /// linger: spawns the flusher on first use — a worker holding only a
    /// `Weak` ref that ticks at the linger interval and sends whatever
    /// packed datagram is pending, until the link is gone or finished.
    /// Without a flusher (the OS refused the thread) nothing may stay
    /// pending, so the frame goes out now.
    fn ensure_flusher(&self, linger: Duration) {
        let flusher = self.inner.flusher.get_or_init(|| {
            let weak = Arc::downgrade(&self.inner);
            let linger = linger.max(Duration::from_micros(100));
            Worker::spawn("udp-netpipe-flusher", move |stop: &Stop| {
                while !stop.sleep(linger) {
                    let Some(inner) = weak.upgrade() else { return };
                    inner.flush_pending();
                    if inner.fin_sent.load(Ordering::Acquire) {
                        return;
                    }
                }
            })
            .ok()
        });
        if flusher.is_none() {
            self.inner.flush_pending();
        }
    }

    /// Drains every datagram currently readable on the client socket
    /// into the rx queue (so control frames can overtake queued data).
    /// A hard socket error — e.g. `ECONNREFUSED` from an ICMP
    /// port-unreachable after the server socket closed — marks the link
    /// closed.
    fn pump_client_socket(&self, wait: Duration) {
        let LinkSide::Client { socket, recv_buf } = &self.inner.side else {
            return;
        };
        let mut buf = recv_buf.lock();
        if buf.is_empty() {
            buf.resize(64 * 1024 + 1, 0);
        }
        // First read may block up to `wait`; subsequent reads only drain
        // what is already queued in the kernel.
        let mut timeout = wait;
        loop {
            let _ = socket.set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
            match socket.recv(&mut buf) {
                Ok(n) if n > 0 => {
                    decode_into(buf[0], &buf[1..n], &self.inner.rx_pool, &mut |frame| {
                        rx_push(&self.inner.rx, frame, &self.inner.stats);
                    });
                    timeout = Duration::from_micros(100);
                }
                Ok(_) => return,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    // Benign: timeout expiry or a signal (EINTR) — the
                    // link itself is fine.
                    return;
                }
                Err(_) => {
                    self.inner.rx.close();
                    return;
                }
            }
        }
    }
}

impl Link for UdpLink {
    fn peer(&self) -> PeerIdentity {
        self.inner.peer.clone()
    }

    fn send(&self, frame: Frame) -> SendStatus {
        let inner = &self.inner;
        if inner.fin_sent.load(Ordering::Acquire) {
            return SendStatus::Closed;
        }
        match frame {
            Frame::Data(bytes) => {
                inner.stats.sent.fetch_add(1, Ordering::Relaxed);
                if bytes.len() > inner.max_datagram {
                    // An oversized frame cannot ride one datagram: shed
                    // it, like a router refusing a jumbo packet.
                    inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    return SendStatus::Dropped;
                }
                let Some(policy) = inner.batch else {
                    return inner.send_data_single(&bytes);
                };
                // Pack small frames: `[len][payload]` entries appended to
                // the pending `TAG_BATCH` datagram, flushed when the next
                // frame would overflow it, when it reaches `max_frames`,
                // or when the linger flusher fires.
                let entry_len = 4 + bytes.len();
                let mut batch = inner.tx_batch.lock();
                if batch.frames > 0 && batch.buf.len() + entry_len > inner.max_datagram + 1 {
                    inner.flush_batch(&mut batch);
                }
                if 1 + entry_len > inner.max_datagram + 1 {
                    // Too big to pack even alone (entry framing would
                    // overflow the datagram): pending data already went
                    // out above, so ordering holds — send it singly.
                    drop(batch);
                    return inner.send_data_single(&bytes);
                }
                if batch.frames == 0 {
                    batch.buf.push(TAG_BATCH);
                }
                let len = u32::try_from(bytes.len()).expect("datagram-sized frame fits u32");
                batch.buf.extend_from_slice(&len.to_le_bytes());
                batch.buf.extend_from_slice(&bytes);
                batch.frames += 1;
                batch.payload_bytes += bytes.len() as u64;
                if batch.frames >= policy.max_frames.max(1) as u64 {
                    inner.flush_batch(&mut batch);
                } else {
                    drop(batch);
                    self.ensure_flusher(policy.linger.unwrap_or(DEFAULT_UDP_LINGER));
                }
                SendStatus::Sent
            }
            Frame::Fin => {
                // End of stream must not overtake its own data.
                inner.flush_pending();
                let _ = inner.raw_send(&[TAG_FIN]);
                inner.stats.wire_writes.fetch_add(1, Ordering::Relaxed);
                inner.fin_sent.store(true, Ordering::Release);
                SendStatus::Sent
            }
            ctrl_frame => {
                // Control-lane frames go out immediately, overtaking any
                // pending packed data — out-of-band priority.
                let _ = match ctrl_frame {
                    Frame::Event(ev) => match wire::to_bytes(&ev) {
                        Ok(payload) => inner.send_tagged(TAG_EVENT, &payload),
                        Err(_) => return SendStatus::Sent,
                    },
                    Frame::Control(payload) => inner.send_tagged(TAG_CONTROL, &payload),
                    Frame::Data(_) | Frame::Fin => unreachable!("matched above"),
                };
                SendStatus::Sent
            }
        }
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        let rx = &self.inner.rx;
        let outcome = match &self.inner.side {
            // The listener's reader thread fills the queue.
            LinkSide::Server { .. } => rx.recv(timeout),
            LinkSide::Client { .. } => {
                let deadline = Instant::now() + timeout;
                loop {
                    if let Some(out) = rx.try_recv() {
                        break out;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break RecvOutcome::TimedOut;
                    }
                    self.pump_client_socket(deadline - now);
                }
            }
        };
        self.inner.stats.count_delivery(outcome)
    }

    fn bind_receiver(
        &self,
        inbox: Option<infopipes::InboxSender>,
        on_event: impl Fn(infopipes::ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        let rx_stats = Arc::clone(&self.inner.stats);
        self.inner
            .receiver
            .bind(self.clone(), inbox, on_event, rx_stats, |link| {
                Arc::strong_count(&link.inner) == 1
            })
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
/// wakes `accept`; anything else lands in its peer's queue. Holds only a
/// weak ref, so the thread reaps itself once the acceptor and every
/// accepted link are gone.
fn reader_loop(server: &Weak<ServerShared>, stop: &Stop) {
    let mut buf = vec![0u8; 64 * 1024 + 1];
    while !stop.requested() {
        let Some(srv) = server.upgrade() else { return };
        let _ = srv.socket.set_read_timeout(Some(Duration::from_millis(50)));
        match srv.socket.recv_from(&mut buf) {
            Ok((n, from)) if n > 0 => {
                if buf[0] == TAG_HELLO {
                    let mut peers = srv.peers.lock();
                    if let std::collections::hash_map::Entry::Vacant(slot) = peers.entry(from) {
                        slot.insert(PeerEntry::new());
                        srv.pending.offer(from);
                    }
                } else if let Some(entry) = srv.peers.lock().get(&from) {
                    decode_into(buf[0], &buf[1..n], &entry.pool, &mut |frame| {
                        rx_push(&entry.rx, frame, &entry.stats);
                    });
                }
            }
            _ => {}
        }
    }
}

/// A bound UDP listening endpoint. Dropping it unblocks pending
/// `accept` calls; the shared reader keeps serving already-accepted
/// links and exits once the last of them is gone.
pub struct UdpAcceptor {
    server: Arc<ServerShared>,
    cfg: UdpTransport,
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
            &self.cfg,
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

/// The UDP transport. Stateless apart from configuration; addresses are
/// standard socket addresses (`127.0.0.1:0` binds an ephemeral port).
#[derive(Clone, Debug)]
pub struct UdpTransport {
    max_datagram: usize,
    batch: Option<BatchPolicy>,
}

impl UdpTransport {
    /// A transport with the default datagram payload limit
    /// ([`DEFAULT_MAX_DATAGRAM`]) and small-frame packing on (default
    /// [`BatchPolicy`], ~1 ms linger).
    #[must_use]
    pub fn new() -> UdpTransport {
        UdpTransport {
            max_datagram: DEFAULT_MAX_DATAGRAM,
            batch: Some(BatchPolicy::default()),
        }
    }

    /// Overrides the per-datagram payload limit; larger data frames are
    /// dropped at the send end (and counted), as on a path with a hard
    /// MTU.
    #[must_use]
    pub fn with_max_datagram(max_datagram: usize) -> UdpTransport {
        UdpTransport {
            max_datagram: max_datagram.max(1),
            ..UdpTransport::new()
        }
    }

    /// Overrides how small data frames pack into shared datagrams. A
    /// `linger` of `None` falls back to the backend's ~1 ms default —
    /// UDP has no writer queue to drain, so a partial packed datagram is
    /// always closed by the linger flusher.
    #[must_use]
    pub fn with_batching(mut self, batch: BatchPolicy) -> UdpTransport {
        self.batch = Some(batch);
        self
    }

    /// Disables packing: every data frame rides its own datagram (the
    /// pre-batching behaviour).
    #[must_use]
    pub fn without_batching(mut self) -> UdpTransport {
        self.batch = None;
        self
    }
}

impl Default for UdpTransport {
    fn default() -> Self {
        UdpTransport::new()
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
        let weak = Arc::downgrade(&server);
        let reader = Worker::spawn("udp-netpipe-reader", move |stop| {
            reader_loop(&weak, stop);
        })?;
        let _ = server.reader.set(reader);
        Ok(UdpAcceptor {
            server,
            cfg: self.clone(),
        })
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
            socket,
            recv_buf: Mutex::new(Vec::new()),
        };
        Ok(UdpLink::new(addr.to_owned(), side, PeerEntry::new(), self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for i in 0..(RX_QUEUE_FRAMES + 10) {
            rx_push(
                &rx,
                Frame::Data(PayloadBytes::from(vec![(i % 251) as u8])),
                &stats,
            );
        }
        // Control frames are never shed, and still overtake the backlog —
        // even one the network reordered behind the `Fin`.
        rx_push(&rx, Frame::Fin, &stats);
        rx_push(&rx, Frame::Event(WireEvent::SetDropLevel(1)), &stats);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 10);
        // Sheds are also split out as the memory-pressure signal.
        assert_eq!(stats.rx_shed.load(Ordering::Relaxed), 10);
        let pop = || rx.try_recv().map(|out| stats.count_delivery(out));
        assert!(matches!(pop(), Some(RecvOutcome::Frame(Frame::Event(_)))));
        let mut data = 0;
        while let Some(RecvOutcome::Frame(Frame::Data(_))) = pop() {
            data += 1;
        }
        assert_eq!(data, RX_QUEUE_FRAMES, "backlog capped at the queue bound");
        assert_eq!(stats.delivered.load(Ordering::Relaxed), data as u64);
        // `Fin` kept its place behind the data, and stays readable.
        assert!(matches!(rx.try_recv(), Some(RecvOutcome::Fin)));
        assert!(matches!(rx.try_recv(), Some(RecvOutcome::Fin)));
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
        decode_into(dgram[0], &dgram[1..], &pool, &mut |f| got.push(f));
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

    #[test]
    fn oversized_frames_are_shed_and_counted() {
        let transport = UdpTransport::with_max_datagram(64);
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.connect(&acceptor.local_addr()).unwrap();
        assert_eq!(
            client.send(Frame::Data(PayloadBytes::from(vec![0u8; 1024]))),
            SendStatus::Dropped
        );
        let stats = client.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.dropped, 1);
    }
}
