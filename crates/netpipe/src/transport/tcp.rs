//! The TCP transport, over real sockets.
//!
//! The send side is the socket links' one [`Transmit`]: frames queue,
//! and a writer OS thread (so a uniprocessor kernel never blocks on
//! socket I/O) drains them through [`write_batch`], one vectored write
//! per batch. The receive side is a reader OS thread that reads frames
//! off the stream into the link's receive [`LaneQueue`] — polled through
//! [`Link::recv`] or delivered by the reader into a bound pipeline,
//! "network packets … mapped to messages by the platform" (§4). The
//! writer starts with the link's first `send`, the reader with its first
//! `recv` or `bind_receiver`: a link nobody reads (a serving-tier
//! session, a producer's link) runs no reader, and one that only sends
//! the `Fin` its drop sends (a consumer's link) runs no writer.
//!
//! The receive side works per read, not per frame. A read lands up to
//! 64 KiB in the reader's parse buffer; the complete frames in it are
//! copied once into one pooled buffer, each data frame is a view of it,
//! and they arrive in the queue together: one lock, and one inbox put
//! when bound. So the receive pool counts reads, not frames, and a data
//! frame pins its read's buffer until its last view drops.
//!
//! TCP is reliable: a data frame the link accepts is never dropped. The
//! one exception is refused up front: a frame above `MAX_FRAME` (64 MiB),
//! which the peer's reader would take for a broken stream, is shed at
//! `send` as [`SendStatus::Dropped`] and counted, and the link carries on.
//! Backpressure shows up as [`SendStatus::Saturated`] once the bounded
//! send queue is more than half full (a send to a full queue waits for
//! room), and a polled receive lane that fills stops the reader, so the
//! stream backs up into the peer's send queue. Control-lane frames jump
//! the local send queue, which is how out-of-band priority manifests on
//! a single ordered byte stream.

use super::lanes::{Batch, LaneQueue, OnFull, Transmit, RX_QUEUE_FRAMES, TX_QUEUE_FRAMES};
use super::{
    Acceptor, Frame, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, SharedStats,
    Transport, TransportError,
};
use crate::framing::{self, encode_header, write_all_vectored, FrameKind, HEADER_LEN, MAX_FRAME};
use crate::marshal::WireBytes;
use crate::worker::Worker;
use infopipes::BufferPool;
use std::io::{IoSlice, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Send side: the drain a link's `Transmit` writes each batch through
// ---------------------------------------------------------------------

/// The TCP drain: one vectored write per batch — control frames first
/// (their priority survives the batch), then data, then `Fin` if it is
/// due — each a stack-assembled 5-byte header plus its payload, with no
/// coalescing copy. N small frames cost one `write_vectored` syscall
/// instead of N (counted in `wire_writes`). After `Fin` the write half
/// shuts down. `false` once the stream is broken.
fn write_batch(stream: &mut TcpStream, batch: &Batch, stats: &SharedStats) -> bool {
    // Events marshal here, outside the queue's lock; one that fails to
    // is left out.
    let ctrl: Vec<(FrameKind, WireBytes)> = (batch.ctrl.iter())
        .filter_map(|f| framing::frame_to_parts(f).ok())
        .collect();
    // `send` already shed oversized data frames; an oversized control
    // frame fails the link, as `write_frame` would.
    if ctrl.iter().any(|(_, bytes)| bytes.len() > MAX_FRAME) {
        return false;
    }
    let data = (batch.data.iter()).map(|bytes| (FrameKind::Data, bytes.as_slice()));
    let frames = (ctrl.iter())
        .map(|(kind, bytes)| (*kind, bytes.as_slice()))
        .chain(data)
        .chain(batch.fin.then_some((FrameKind::Fin, &[][..])));
    let headers: Vec<[u8; HEADER_LEN]> = (frames.clone())
        .map(|(kind, bytes)| encode_header(kind, bytes.len()))
        .collect();
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(headers.len() * 2);
    for (header, (_, bytes)) in headers.iter().zip(frames) {
        slices.push(IoSlice::new(header));
        slices.push(IoSlice::new(bytes));
    }
    let Ok(calls) = write_all_vectored(stream, &mut slices) else {
        return false;
    };
    stats.wire_writes.fetch_add(calls as u64, Ordering::Relaxed);
    if batch.fin {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    true
}

// ---------------------------------------------------------------------
// Receive side: a reader thread arriving each read's frames
// ---------------------------------------------------------------------

/// The parse buffer's size: the most one socket read lands, and so the
/// most one read's pooled buffer holds, unless a single frame is longer.
const READ_BUF: usize = 64 << 10;

/// Incremental frame reader, one copy per read: the socket reads into
/// the parse buffer, and the complete frames at its front are copied
/// once, headers and all, into one pooled buffer. Every data frame of
/// that read is then a view of it, and the partial frame left behind
/// moves to the front.
struct FrameReader {
    stream: TcpStream,
    /// The parse buffer, always at its full length: `buf[..filled]` is
    /// received and not yet sealed, and the socket reads into the rest.
    /// [`READ_BUF`] long, except while one frame needs more: then it
    /// grows with the bytes actually received, at most doubling, never
    /// by what a length prefix announces.
    buf: Vec<u8>,
    filled: usize,
    /// Receive-side buffer pool: each read is sealed into a recycled
    /// buffer, so the steady-state read path allocates nothing while
    /// the buffers in flight fit the pool's per-class budget.
    pool: BufferPool,
}

/// The header at the front of `bytes`: the frame's kind and payload
/// length, or `None` while fewer than [`HEADER_LEN`] bytes are there.
/// `Err` for a kind no writer sends or a length above `MAX_FRAME`.
fn header(bytes: &[u8]) -> Result<Option<(FrameKind, usize)>, ()> {
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let kind = FrameKind::from_byte(header[0]).map_err(|_| ())?;
    let len = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(());
    }
    Ok(Some((kind, len)))
}

impl FrameReader {
    fn new(stream: TcpStream, pool: BufferPool) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; READ_BUF],
            filled: 0,
            pool,
        }
    }

    /// Reads the socket once, waiting as long as it takes, and appends
    /// the frames the read completed to `frames`: copied once, headers
    /// and all, into one pooled buffer, each a view of it (an event that
    /// fails to decode is left out); the partial tail moves to the front.
    /// `false` at the end of the stream, or once a malformed header shows
    /// it broken (after the good frames ahead of it).
    fn read(&mut self, frames: &mut Vec<Frame>) -> bool {
        if self.filled == self.buf.len() {
            // One frame fills the buffer: double it, at most to the
            // frame's length, so what it holds stays at least half
            // received bytes.
            let (_, len) = header(&self.buf).ok().flatten().expect("checked last read");
            let grown = (2 * self.buf.len()).min(HEADER_LEN + len);
            self.buf.reserve_exact(grown - self.buf.len());
            self.buf.resize(grown, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return false,
            Ok(n) => self.filled += n,
            Err(e) => return e.kind() == std::io::ErrorKind::Interrupted,
        }
        let received = &self.buf[..self.filled];
        let mut complete = 0;
        let well_formed = loop {
            match header(&received[complete..]) {
                Ok(Some((_, len))) if received.len() - complete - HEADER_LEN >= len => {
                    complete += HEADER_LEN + len;
                }
                Ok(_) => break true,
                Err(()) => break false,
            }
        };
        if complete == 0 {
            return well_formed;
        }
        let mut buf = self.pool.acquire(complete);
        buf.buf_mut().extend_from_slice(&received[..complete]);
        let sealed = buf.seal();
        let mut at = 0;
        while let Ok(Some((kind, len))) = header(&sealed[at..]) {
            let start = at + HEADER_LEN;
            at = start + len;
            frames.extend(framing::frame_from_parts(kind, sealed.slice(start..at)));
        }
        self.buf.copy_within(complete..self.filled, 0);
        self.filled -= complete;
        if self.buf.len() > READ_BUF && self.filled <= READ_BUF {
            // The long frame is out: back to the usual size.
            self.buf.truncate(READ_BUF);
            self.buf.shrink_to_fit();
        }
        well_formed
    }
}

/// The reader thread: reads the socket while the receive lane has room
/// and arrives each read's frames together, until the stream ends,
/// breaks or the link is torn down; then closes the lane.
fn reader_loop(mut reader: FrameReader, rx: &LaneQueue, stats: &SharedStats) {
    let mut frames = Vec::new();
    while rx.wait_room() {
        let open = reader.read(&mut frames);
        let flowing = frames.is_empty() || rx.arrive_all(&mut frames, OnFull::Keep, stats);
        if !(open && flowing) {
            break;
        }
    }
    rx.close(None);
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

struct TcpInner {
    peer: PeerIdentity,
    /// The send side: the writer, started by the first `send`, writes a
    /// clone of the socket.
    tx: Transmit<TcpStream>,
    /// What the reader arrives into: polled by `recv`, or bound.
    rx: Arc<LaneQueue>,
    stats: Arc<SharedStats>,
    /// The receive-side pool (shared with the [`FrameReader`]) so callers
    /// can observe recycling pressure via [`TcpLink::pool_stats`].
    rx_pool: BufferPool,
    /// The socket: the reader reads a clone of it, and `drop` shuts it
    /// down, which ends the reader's read and a writer stuck in `write`
    /// against a peer that stopped reading.
    socket: TcpStream,
    /// The reader, started by the first `recv` or `bind_receiver`;
    /// `None` if the OS refused the thread (the lane is closed then).
    reader: OnceLock<Option<Worker>>,
}

impl Drop for TcpInner {
    fn drop(&mut self) {
        // Best-effort orderly close: `Fin` within a bounded flush window,
        // then cut the socket and the receive lane, so the joins below
        // cannot hang on a peer that stopped reading, or on one that
        // never stops sending.
        self.tx.close();
        let _ = self.socket.shutdown(std::net::Shutdown::Both);
        self.rx.close(None);
    }
}

/// One end of a TCP connection (cheap to clone).
#[derive(Clone)]
pub struct TcpLink {
    inner: Arc<TcpInner>,
}

impl TcpLink {
    fn from_stream(stream: TcpStream, config: &TcpTransport) -> Result<TcpLink, TransportError> {
        stream.set_nodelay(true).ok();
        let peer_addr = stream.peer_addr()?;
        let stats = Arc::new(SharedStats::default());
        let tx = Transmit::new(
            "tcp-netpipe-writer",
            stream.try_clone()?,
            write_batch,
            MAX_FRAME,
            config.send_queue,
            Arc::clone(&stats),
        );
        Ok(TcpLink {
            inner: Arc::new(TcpInner {
                peer: PeerIdentity::new("tcp", peer_addr.to_string()),
                tx,
                rx: Arc::new(LaneQueue::new(RX_QUEUE_FRAMES)),
                stats,
                rx_pool: BufferPool::new(),
                socket: stream,
                reader: OnceLock::new(),
            }),
        })
    }

    /// Starts the reader, once; a thread the OS refuses closes the lane.
    fn start_reader(&self) {
        let inner = &self.inner;
        inner.reader.get_or_init(|| {
            let (rx, stats) = (Arc::clone(&inner.rx), Arc::clone(&inner.stats));
            let pool = inner.rx_pool.clone();
            (inner.socket.try_clone())
                .and_then(|stream| {
                    Worker::spawn("tcp-netpipe-reader", move |_| {
                        reader_loop(FrameReader::new(stream, pool), &rx, &stats);
                    })
                })
                .inspect_err(|_| inner.rx.close(None))
                .ok()
        });
    }

    /// Statistics of the receive-side buffer pool: hit/miss counts (one
    /// acquire per socket read that completed a frame, not per frame)
    /// and the number of read buffers still pinned by frames downstream.
    #[must_use]
    pub fn pool_stats(&self) -> infopipes::PoolStats {
        self.inner.rx_pool.stats()
    }
}

impl Link for TcpLink {
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
        // TCP drops only frames refused at `send` as oversized;
        // `delivered` counts what this end received.
        self.inner.stats.snapshot()
    }
}

impl std::fmt::Debug for TcpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpLink")
            .field("peer", &self.inner.peer.to_string())
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Transport and acceptor
// ---------------------------------------------------------------------

/// The TCP transport. Stateless apart from configuration; addresses are
/// standard socket addresses (`127.0.0.1:0` binds an ephemeral port).
#[derive(Clone, Debug)]
pub struct TcpTransport {
    send_queue: usize,
}

impl TcpTransport {
    /// A transport with the default send-queue depth (1024 data frames).
    /// Each link's writer coalesces what its sender queued while it
    /// wrote: up to 64 frames or 256 KiB per vectored write.
    #[must_use]
    pub fn new() -> TcpTransport {
        TcpTransport {
            send_queue: TX_QUEUE_FRAMES,
        }
    }

    /// Overrides the bounded data-lane send queue depth; sends report
    /// `Saturated` (and block) when it fills.
    #[must_use]
    pub fn with_send_queue(send_queue: usize) -> TcpTransport {
        TcpTransport { send_queue }
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl Transport for TcpTransport {
    type Link = TcpLink;
    type Acceptor = TcpAcceptor;

    fn scheme(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self, addr: &str) -> Result<TcpAcceptor, TransportError> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpAcceptor {
            listener,
            config: self.clone(),
        })
    }

    fn connect(&self, addr: &str) -> Result<TcpLink, TransportError> {
        TcpLink::from_stream(TcpStream::connect(addr)?, self)
    }
}

/// A bound TCP listener.
pub struct TcpAcceptor {
    listener: TcpListener,
    /// The transport that bound it: accepted links take its settings.
    config: TcpTransport,
}

impl Acceptor for TcpAcceptor {
    type Link = TcpLink;

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default()
    }

    fn accept(&self) -> Result<TcpLink, TransportError> {
        let (stream, _) = self.listener.accept()?;
        TcpLink::from_stream(stream, &self.config)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Option<TcpLink>, TransportError> {
        // `TcpListener` has no native accept timeout: poll a nonblocking
        // accept at a small granularity until the deadline.
        const POLL: Duration = Duration::from_millis(5);
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true)?;
        let outcome = loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets do not inherit the listener's
                    // nonblocking mode on every platform; force it off.
                    stream.set_nonblocking(false).ok();
                    break TcpLink::from_stream(stream, &self.config).map(Some);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= deadline {
                        break Ok(None);
                    }
                    std::thread::sleep(POLL.min(deadline - now));
                }
                Err(e) => break Err(TransportError::Io(e)),
            }
        };
        self.listener.set_nonblocking(false).ok();
        outcome
    }
}

impl std::fmt::Debug for TcpAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAcceptor")
            .field("addr", &self.local_addr())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infopipes::helpers::CollectSink;
    use infopipes::{BufferSpec, ControlEvent, FreePump, PayloadBytes, Pipeline};
    use mbthread::{Kernel, KernelConfig};
    use parking_lot::Mutex;
    use proptest::TestRng;
    use std::io::Write;

    fn data(bytes: Vec<u8>) -> Frame {
        Frame::Data(PayloadBytes::from(bytes))
    }

    /// A server link accepted from a raw client socket, which the test
    /// writes wire bytes into by hand.
    fn raw_pair() -> (TcpStream, TcpLink) {
        let acceptor = TcpTransport::new().listen("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(acceptor.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        (raw, acceptor.accept().unwrap())
    }

    /// `frame` as the writer puts it on the wire.
    fn wire_bytes(frame: &Frame) -> Vec<u8> {
        let (kind, payload) = framing::frame_to_parts(frame).unwrap();
        let mut out = encode_header(kind, payload.len()).to_vec();
        out.extend_from_slice(&payload);
        out
    }

    /// Every frame the link has read so far, until a poll times out.
    fn drain(link: &TcpLink) -> Vec<Frame> {
        let mut got = Vec::new();
        loop {
            match link.recv(Duration::from_millis(10)) {
                RecvOutcome::Frame(frame) => got.push(frame),
                RecvOutcome::TimedOut => return got,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    fn random_frame(rng: &mut TestRng, n: usize) -> Frame {
        let len = match rng.below(10) {
            0..=4 => rng.below(64),
            5..=7 => rng.below(4 << 10),
            _ => rng.below(200 << 10),
        };
        let bytes: Vec<u8> = (0..len).map(|i| (i + n) as u8).collect();
        match rng.below(10) {
            0 => Frame::Event(ControlEvent::SetRate(n as f64)),
            1 => Frame::Control(bytes),
            _ => data(bytes),
        }
    }

    /// Frames of random kind and size (some longer than the parse
    /// buffer) written in random pieces, split inside headers too, arrive
    /// once each and in order on each lane (a control frame may overtake
    /// data still queued); the data frames one read completes are views
    /// of one pooled buffer (two when the piece overflows the parse
    /// buffer), and nothing stays checked out once they drop.
    #[test]
    fn frames_in_random_pieces_arrive_in_order_one_buffer_per_read() {
        let mut rng = TestRng::deterministic("tcp_reader_pieces");
        for _ in 0..5 {
            let (mut raw, link) = raw_pair();
            let frames: Vec<Frame> = (0..30).map(|n| random_frame(&mut rng, n)).collect();
            let bytes: Vec<u8> = frames.iter().flat_map(wire_bytes).collect();
            let mut got = Vec::new();
            let mut at = 0;
            while at < bytes.len() {
                // Up to 40 KiB, often under a header's length.
                let piece = match rng.below(3) {
                    0 => 1 + rng.below(HEADER_LEN),
                    _ => 1 + rng.below(40 << 10),
                };
                let end = (at + piece).min(bytes.len());
                raw.write_all(&bytes[at..end]).unwrap();
                at = end;
                let read = drain(&link);
                let views: Vec<&PayloadBytes> = read
                    .iter()
                    .filter_map(|f| match f {
                        Frame::Data(bytes) => Some(bytes),
                        _ => None,
                    })
                    .collect();
                assert!(views.iter().all(|v| v.is_pooled()));
                let buffers = 1 + views
                    .windows(2)
                    .filter(|w| !w[0].shares_allocation_with(w[1]))
                    .count();
                assert!(views.is_empty() || buffers <= 2, "{buffers} buffers");
                got.extend(read);
            }
            let lanes = |frames: &[Frame]| -> (Vec<Frame>, Vec<Frame>) {
                frames
                    .iter()
                    .cloned()
                    .partition(|f| matches!(f, Frame::Data(_)))
            };
            assert_eq!(lanes(&got), lanes(&frames));
            drop(got);
            assert_eq!(link.pool_stats().outstanding, 0);
        }
    }

    /// A length prefix is a claim, not a reservation: a header announcing
    /// `MAX_FRAME` followed by 1 KiB and end of stream grows nothing, and
    /// the reader reports the stream's end with no frame read.
    #[test]
    fn a_hostile_length_prefix_reserves_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut reader = FrameReader::new(listener.accept().unwrap().0, BufferPool::new());
        raw.write_all(&encode_header(FrameKind::Data, MAX_FRAME))
            .unwrap();
        raw.write_all(&[7; 1024]).unwrap();
        drop(raw);
        let mut frames = Vec::new();
        while reader.read(&mut frames) {}
        assert!(frames.is_empty());
        let capacity = reader.buf.capacity();
        assert!(capacity <= 128 << 10, "parse buffer grew to {capacity}");
    }

    /// Many small frames in one write seal into a handful of pool
    /// buffers: one per read, not one per frame.
    #[test]
    fn small_frames_of_one_write_seal_per_read() {
        const FRAMES: usize = 2000;
        let (mut raw, link) = raw_pair();
        let frames: Vec<Frame> = (0..FRAMES).map(|n| data(vec![n as u8; 27])).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(wire_bytes).collect();
        raw.write_all(&bytes).unwrap();
        let got = drain(&link);
        assert_eq!(got, frames);
        let stats = link.pool_stats();
        let bound = bytes.len().div_ceil(READ_BUF) as u64 + 1;
        assert!(
            stats.hits + stats.misses <= bound,
            "{FRAMES} frames took {} pool buffers, more than {bound}",
            stats.hits + stats.misses
        );
    }

    /// The reader keeps the wire's order across lanes: an event
    /// between two data frames of one read is delivered after the first
    /// is in the inbox and before the second.
    #[test]
    fn an_event_flushes_the_data_ahead_of_it() {
        let kernel = Kernel::new(KernelConfig::default());
        {
            let (mut raw, link) = raw_pair();
            let consumer = Pipeline::new(&kernel, "consumer");
            let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(16));
            let pump = consumer.add_pump("pump", FreePump::new());
            let (sink, got) = CollectSink::<PayloadBytes>::new("sink");
            let sink = consumer.add_consumer("sink", sink);
            let _ = inbox >> pump >> sink;
            let running = consumer.start().unwrap();
            running.start_flow().unwrap();
            let probe = running.probe("net-in").expect("inbox probe");
            let puts_at_event = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&puts_at_event);
            link.bind_receiver(Some(inbox_sender), move |_| {
                seen.lock().push(probe.stats().puts);
            })
            .unwrap();

            let bytes: Vec<u8> = [
                data(vec![1, 2, 3]),
                Frame::Event(ControlEvent::Start),
                data(vec![4, 5]),
            ]
            .iter()
            .flat_map(wire_bytes)
            .collect();
            raw.write_all(&bytes).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while got.lock().len() < 2 {
                assert!(Instant::now() < deadline, "stalled at {:?}", got.lock());
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(*puts_at_event.lock(), [1]);
            let got: Vec<Vec<u8>> = got.lock().iter().map(PayloadBytes::to_vec).collect();
            assert_eq!(got, [vec![1, 2, 3], vec![4, 5]]);
            drop((raw, link, running));
        }
        kernel.shutdown();
    }

    /// An event frame whose payload does not decode is skipped: the data
    /// behind it still reaches the inbox, and the `Fin` after it still
    /// ends the stream.
    #[test]
    fn an_undecodable_event_is_skipped_and_the_stream_reads_on() {
        let kernel = Kernel::new(KernelConfig::default());
        {
            let (mut raw, link) = raw_pair();
            let consumer = Pipeline::new(&kernel, "consumer");
            let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(16));
            let pump = consumer.add_pump("pump", FreePump::new());
            let (sink, got) = CollectSink::<PayloadBytes>::new("sink");
            let sink = consumer.add_consumer("sink", sink);
            let _ = inbox >> pump >> sink;
            let running = consumer.start().unwrap();
            let events = running.subscribe();
            running.start_flow().unwrap();
            link.bind_receiver(Some(inbox_sender), |_| {}).unwrap();

            let mut bytes = wire_bytes(&data(vec![1, 2, 3]));
            bytes.extend_from_slice(&encode_header(FrameKind::Event, 4));
            bytes.extend_from_slice(&[0xFF; 4]);
            bytes.extend(wire_bytes(&data(vec![4, 5])));
            bytes.extend(wire_bytes(&Frame::Fin));
            raw.write_all(&bytes).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while events.recv_timeout(Duration::from_millis(50)) != Some(ControlEvent::Eos) {
                assert!(Instant::now() < deadline, "no end of stream");
            }
            let got: Vec<Vec<u8>> = got.lock().iter().map(PayloadBytes::to_vec).collect();
            assert_eq!(got, [vec![1, 2, 3], vec![4, 5]]);
            let stats = link.stats();
            assert_eq!((stats.delivered, stats.dropped), (2, 0));
            drop((raw, link, running));
        }
        kernel.shutdown();
    }

    /// A data frame above `MAX_FRAME` is shed at `send` and counted; the
    /// frames around it arrive in order and the link stays open.
    #[test]
    fn oversized_frames_are_shed_and_the_link_survives() {
        let transport = TcpTransport::new();
        let acceptor = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.connect(&acceptor.local_addr()).unwrap();
        let server = acceptor.accept().unwrap();
        let statuses = [
            client.send(data(vec![1])),
            client.send(data(vec![0; MAX_FRAME + 1])),
            client.send(data(vec![2])),
        ];
        assert_eq!(
            statuses,
            [SendStatus::Sent, SendStatus::Dropped, SendStatus::Sent]
        );
        let recv_data = || match server.recv(Duration::from_secs(10)) {
            RecvOutcome::Frame(Frame::Data(bytes)) => bytes.to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(recv_data(), [1]);
        assert_eq!(recv_data(), [2]);
        assert_eq!(client.send(data(vec![3])), SendStatus::Sent);
        assert_eq!(recv_data(), [3], "the link stays open");
        let stats = client.stats();
        assert_eq!((stats.sent, stats.dropped), (4, 1));
        assert_eq!(stats.bytes_sent, 3);
    }
}
