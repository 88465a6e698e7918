//! The TCP transport, over real sockets.
//!
//! The send side hands frames to a writer OS thread (so a uniprocessor
//! kernel never blocks on socket I/O); the receive side reads frames off
//! the stream — either polled through [`Link::recv`] or pumped into an
//! inbox by the default `bind_receiver` thread, "network packets …
//! mapped to messages by the platform" (§4).
//!
//! TCP is reliable: a data frame the link accepts is never dropped. The
//! one exception is refused up front: a frame above `MAX_FRAME` (64 MiB),
//! which the peer's reader would take for a broken stream, is shed at
//! `send` as [`SendStatus::Dropped`] and counted, and the link carries on.
//! Backpressure shows up as [`SendStatus::Saturated`] once the bounded
//! send queue fills (the send then completes blockingly). Control-lane frames jump the local
//! send queue, which is how out-of-band priority manifests on a single
//! ordered byte stream.

use super::lanes::{Batch, LaneQueue};
use super::{
    Acceptor, BatchPolicy, Frame, Link, LinkStats, PeerIdentity, ReceiverSlot, RecvOutcome,
    SendStatus, SharedStats, Transport, TransportError,
};
use crate::framing::{
    encode_header, write_all_vectored, write_frame, FrameKind, HEADER_LEN, MAX_FRAME,
};
use crate::marshal::WireBytes;
use crate::proto::WireEvent;
use crate::wire;
use crate::worker::Worker;
use infopipes::BufferPool;
use parking_lot::Mutex;
use std::io::{IoSlice, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Send side: the two-lane queue drained by a writer thread
// ---------------------------------------------------------------------

struct TxShared {
    /// Data lane bounded by `TcpTransport::send_queue`; closed once the
    /// writer thread exits (socket error or `Fin` written).
    queue: LaneQueue,
    batch: BatchPolicy,
    stats: Arc<SharedStats>,
}

impl TxShared {
    fn send(&self, frame: Frame) -> SendStatus {
        let data_len = match &frame {
            Frame::Data(bytes) if bytes.len() > MAX_FRAME => {
                // No reader takes a frame this long: shed it here, so
                // the frames batched beside it still go out.
                self.stats.sent.fetch_add(1, Ordering::Relaxed);
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                return SendStatus::Dropped;
            }
            Frame::Data(bytes) => Some(bytes.len() as u64),
            _ => None,
        };
        // Reliable transport: a full data lane waits for space rather
        // than drop, and reports the congestion.
        let Some(pressured) = self.queue.offer(frame) else {
            return SendStatus::Closed;
        };
        // Accounting happens only once the frame is actually queued: a
        // frame abandoned because the writer died mid-wait must not
        // count as sent on a never-drops transport.
        if let Some(len) = data_len {
            self.stats.sent.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_sent.fetch_add(len, Ordering::Relaxed);
        }
        if pressured {
            SendStatus::Saturated
        } else {
            SendStatus::Sent
        }
    }
}

/// The writer thread: coalesces queued frames into one vectored write —
/// control frames first (their priority is preserved inside the batch),
/// then data frames, each as a stack-assembled 5-byte header plus its
/// shared payload buffer, with no coalescing copy. N small frames cost
/// one `write_vectored` syscall instead of N (counted in `wire_writes`).
fn writer_loop(tx: &TxShared, stream: &mut TcpStream) {
    loop {
        let Batch {
            ctrl, data, fin, ..
        } = tx.queue.take_batch(tx.batch);

        // Encode control frames outside the lock (events marshal here);
        // they lead the write, so their priority survives the batch.
        let mut ctrl_payloads: Vec<(FrameKind, Vec<u8>)> = Vec::with_capacity(ctrl.len());
        for f in ctrl {
            match f {
                Frame::Event(ev) => {
                    if let Ok(bytes) = wire::to_bytes(&ev) {
                        ctrl_payloads.push((FrameKind::Event, bytes));
                    }
                }
                Frame::Control(bytes) => ctrl_payloads.push((FrameKind::Control, bytes)),
                Frame::Data(_) | Frame::Fin => unreachable!("only ctrl-lane frames queued"),
            }
        }
        // `send` already shed oversized data frames; an oversized control
        // frame fails the link, as write_frame would.
        if ctrl_payloads
            .iter()
            .any(|(_, bytes)| bytes.len() > MAX_FRAME)
        {
            break;
        }
        let frames: Vec<(FrameKind, &[u8])> = ctrl_payloads
            .iter()
            .map(|(kind, bytes)| (*kind, bytes.as_slice()))
            .chain(data.iter().map(|bytes| (FrameKind::Data, bytes.as_slice())))
            .collect();
        let headers: Vec<[u8; HEADER_LEN]> = frames
            .iter()
            .map(|(kind, bytes)| encode_header(*kind, bytes.len()))
            .collect();
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len() * 2);
        for (header, (_, bytes)) in headers.iter().zip(&frames) {
            slices.push(IoSlice::new(header));
            slices.push(IoSlice::new(bytes));
        }
        if !slices.is_empty() {
            match write_all_vectored(stream, &mut slices) {
                Ok(calls) => {
                    tx.stats
                        .wire_writes
                        .fetch_add(calls as u64, Ordering::Relaxed);
                }
                Err(_) => break,
            }
        }
        if fin {
            if write_frame(stream, FrameKind::Fin, &[]).is_ok() {
                tx.stats.wire_writes.fetch_add(1, Ordering::Relaxed);
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            break;
        }
    }
    tx.queue.close(None);
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

/// Incremental frame reader: partial frames survive timed-out polls, so
/// a slow-arriving large frame is never corrupted by polling `recv`.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes before `pos` are consumed; frames parse from `buf[pos..]`.
    /// The buffer is compacted only before a refill, so a read that
    /// lands dozens of small frames costs one memmove total instead of
    /// one per frame.
    pos: usize,
    /// Receive-side buffer pool: data payloads are sealed into recycled
    /// buffers, so the steady-state read path allocates nothing while
    /// the buffers in flight fit the pool's per-class budget.
    pool: BufferPool,
}

enum ReadStep {
    /// A data frame, sealed straight out of the stream buffer.
    Data(WireBytes),
    /// A control-lane frame (event/control/fin) with its raw payload —
    /// kept as a `Vec` so `Frame::Control` needs no second copy.
    Ctrl(FrameKind, Vec<u8>),
    Eof,
    TimedOut,
    Broken,
}

impl FrameReader {
    /// Tries to complete one frame before `deadline`.
    fn read_frame_by(&mut self, deadline: Instant) -> ReadStep {
        loop {
            // A complete `[kind][len: u32 LE][payload]` at the cursor?
            let pending = &self.buf[self.pos..];
            if pending.len() >= 5 {
                let Ok(kind) = FrameKind::from_byte(pending[0]) else {
                    return ReadStep::Broken;
                };
                let len = u32::from_le_bytes(pending[1..5].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME {
                    return ReadStep::Broken;
                }
                if pending.len() >= 5 + len {
                    // One read-side copy out of the stream buffer, into
                    // whichever representation the frame kind needs.
                    let step = match kind {
                        FrameKind::Data => {
                            let mut b = self.pool.acquire(len);
                            b.buf_mut().extend_from_slice(&pending[5..5 + len]);
                            ReadStep::Data(b.seal())
                        }
                        other => ReadStep::Ctrl(other, pending[5..5 + len].to_vec()),
                    };
                    self.pos += 5 + len;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                    return step;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return ReadStep::TimedOut;
            }
            // About to refill: reclaim the consumed prefix so the buffer
            // stays bounded by one read plus one partial frame.
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let _ = self
                .stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))));
            let mut tmp = [0u8; 16 * 1024];
            match self.stream.read(&mut tmp) {
                Ok(0) => return ReadStep::Eof,
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return ReadStep::Broken,
            }
        }
    }
}

struct TcpInner {
    peer: PeerIdentity,
    tx: Arc<TxShared>,
    /// The read half, shared by polling `recv` calls and the
    /// `bind_receiver` drain thread (one receiver at a time).
    reader: Mutex<Option<FrameReader>>,
    /// Peer sent `Fin` (orderly end observed by the reader).
    fin_seen: AtomicBool,
    stats: Arc<SharedStats>,
    /// The receive-side pool (shared with the [`FrameReader`]) so callers
    /// can observe recycling pressure via [`TcpLink::pool_stats`].
    rx_pool: BufferPool,
    /// A handle on the socket for teardown: lets `drop` unblock a writer
    /// stuck in `write` against a peer that stopped reading.
    shutdown_stream: TcpStream,
    receiver: ReceiverSlot,
    /// Joined when the link goes, after `drop` below has made it exit.
    _writer: Worker,
}

impl Drop for TcpInner {
    fn drop(&mut self) {
        // Best-effort orderly close: ask for Fin, give the writer a
        // bounded window to flush, then cut the socket so the join below
        // cannot hang on a peer that stopped reading.
        self.tx.send(Frame::Fin);
        if !self.tx.queue.wait_closed(Duration::from_secs(2)) {
            let _ = self.shutdown_stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One end of a TCP connection (cheap to clone).
#[derive(Clone)]
pub struct TcpLink {
    inner: Arc<TcpInner>,
}

impl TcpLink {
    fn from_stream(
        stream: TcpStream,
        send_queue: usize,
        batch: BatchPolicy,
    ) -> Result<TcpLink, TransportError> {
        let peer_addr = stream.peer_addr()?;
        let stats = Arc::new(SharedStats::default());
        let rx_pool = BufferPool::new();
        let tx = Arc::new(TxShared {
            queue: LaneQueue::new(send_queue),
            batch,
            stats: Arc::clone(&stats),
        });
        let mut write_half = stream.try_clone()?;
        let shutdown_stream = stream.try_clone()?;
        let tx2 = Arc::clone(&tx);
        let writer = Worker::spawn("tcp-netpipe-writer", move |_| {
            writer_loop(&tx2, &mut write_half);
        })?;
        Ok(TcpLink {
            inner: Arc::new(TcpInner {
                peer: PeerIdentity::new("tcp", peer_addr.to_string()),
                tx,
                reader: Mutex::new(Some(FrameReader {
                    stream,
                    buf: Vec::new(),
                    pos: 0,
                    pool: rx_pool.clone(),
                })),
                fin_seen: AtomicBool::new(false),
                stats,
                rx_pool,
                shutdown_stream,
                receiver: ReceiverSlot::default(),
                _writer: writer,
            }),
        })
    }

    /// Statistics of the receive-side buffer pool: hit/miss counts and
    /// the number of payload buffers still checked out downstream.
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
        // A finished or dead writer makes `send` return Closed without
        // waiting, so only a full data lane means "would block".
        !self.inner.tx.queue.would_block()
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        if self.inner.fin_seen.load(Ordering::Acquire) {
            return RecvOutcome::Fin;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self.inner.reader.lock();
        let Some(reader) = guard.as_mut() else {
            return RecvOutcome::Closed;
        };
        match reader.read_frame_by(deadline) {
            ReadStep::Data(payload) => {
                self.inner.stats.delivered.fetch_add(1, Ordering::Relaxed);
                RecvOutcome::Frame(Frame::Data(payload))
            }
            ReadStep::Ctrl(FrameKind::Event, payload) => {
                match wire::from_bytes::<WireEvent>(&payload) {
                    Ok(ev) => RecvOutcome::Frame(Frame::Event(ev)),
                    Err(_) => RecvOutcome::Closed,
                }
            }
            ReadStep::Ctrl(FrameKind::Control, payload) => {
                RecvOutcome::Frame(Frame::Control(payload))
            }
            ReadStep::Ctrl(FrameKind::Fin, _) => {
                self.inner.fin_seen.store(true, Ordering::Release);
                RecvOutcome::Fin
            }
            ReadStep::Ctrl(FrameKind::Data, _) => unreachable!("data frames use ReadStep::Data"),
            ReadStep::TimedOut => RecvOutcome::TimedOut,
            ReadStep::Eof | ReadStep::Broken => RecvOutcome::Closed,
        }
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
    batch: BatchPolicy,
}

impl TcpTransport {
    /// A transport with the default send-queue depth (1024 data frames)
    /// and frame coalescing on: up to 64 frames or 256 KiB per vectored
    /// write.
    #[must_use]
    pub fn new() -> TcpTransport {
        TcpTransport {
            send_queue: 1024,
            batch: BatchPolicy::default(),
        }
    }

    /// Overrides the bounded data-lane send queue depth; sends report
    /// `Saturated` (and block) when it fills.
    #[must_use]
    pub fn with_send_queue(send_queue: usize) -> TcpTransport {
        TcpTransport {
            send_queue,
            ..TcpTransport::new()
        }
    }

    /// Disables frame coalescing: each frame gets its own write
    /// (the pre-batching behaviour; useful for latency-sensitive or
    /// comparison runs).
    #[must_use]
    pub fn without_batching(mut self) -> TcpTransport {
        self.batch = BatchPolicy::unbatched();
        self
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
            send_queue: self.send_queue,
            batch: self.batch,
        })
    }

    fn connect(&self, addr: &str) -> Result<TcpLink, TransportError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        TcpLink::from_stream(stream, self.send_queue, self.batch)
    }
}

/// A bound TCP listener.
pub struct TcpAcceptor {
    listener: TcpListener,
    send_queue: usize,
    batch: BatchPolicy,
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
        stream.set_nodelay(true).ok();
        TcpLink::from_stream(stream, self.send_queue, self.batch)
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
                    stream.set_nodelay(true).ok();
                    break TcpLink::from_stream(stream, self.send_queue, self.batch).map(Some);
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
    use infopipes::PayloadBytes;

    fn data(bytes: Vec<u8>) -> Frame {
        Frame::Data(PayloadBytes::from(bytes))
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
