//! Frame encoding for every transport backend that turns frames into
//! bytes.
//!
//! A [`Frame`] is a [`FrameKind`] plus payload bytes; `frame_to_parts`
//! and `frame_from_parts` are the one mapping between the two, shared
//! by TCP (both directions) and UDP (one frame per datagram, tagged with
//! the kind byte). Backends with message boundaries of their own (the
//! simulator, in-process lanes) carry [`Frame`] values directly.
//!
//! On a byte stream each frame is `[kind: u8][len: u32 LE][payload: len
//! bytes]`. That codec is written against `io::Read`/`io::Write`, so
//! every transport that runs over an ordered byte stream (TCP today;
//! QUIC streams or Unix sockets tomorrow) reuses it unchanged.

use crate::transport::Frame;
use crate::wire::{self, WireError};
use infopipes::{BufferPool, PayloadBytes};
use std::io::{self, IoSlice, Read, Write};

/// What a frame carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A marshalled data item.
    Data,
    /// A marshalled control event.
    Event,
    /// A protocol message (factory requests, spec queries).
    Control,
    /// End of stream; no payload.
    Fin,
}

impl FrameKind {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Event => 1,
            FrameKind::Control => 2,
            FrameKind::Fin => 3,
        }
    }

    pub(crate) fn from_byte(b: u8) -> io::Result<FrameKind> {
        Ok(match b {
            0 => FrameKind::Data,
            1 => FrameKind::Event,
            2 => FrameKind::Control,
            3 => FrameKind::Fin,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame kind {other}"),
                ))
            }
        })
    }
}

/// A frame's kind and payload bytes: data shares its buffer, an event is
/// wire-encoded, control bytes are copied, `Fin` is empty.
///
/// # Errors
///
/// A [`WireError`] if an event fails to encode.
pub(crate) fn frame_to_parts(frame: &Frame) -> Result<(FrameKind, PayloadBytes), WireError> {
    Ok(match frame {
        Frame::Data(bytes) => (FrameKind::Data, bytes.clone()),
        Frame::Event(ev) => (FrameKind::Event, wire::to_payload(ev)?),
        Frame::Control(bytes) => (FrameKind::Control, PayloadBytes::from(bytes.as_slice())),
        Frame::Fin => (FrameKind::Fin, PayloadBytes::new()),
    })
}

/// The frame a kind and its payload bytes encode; a data frame keeps the
/// payload buffer. `None` for an event payload that fails to decode:
/// every reader skips that frame and reads on, since the framing around
/// it still marks where the next frame starts.
pub(crate) fn frame_from_parts(kind: FrameKind, payload: PayloadBytes) -> Option<Frame> {
    Some(match kind {
        FrameKind::Data => Frame::Data(payload),
        FrameKind::Event => Frame::Event(wire::from_bytes(&payload).ok()?),
        FrameKind::Control => Frame::Control(payload.to_vec()),
        FrameKind::Fin => Frame::Fin,
    })
}

/// Maximum accepted frame payload (64 MiB): a corrupted length prefix must
/// not allocate unbounded memory.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Length of the `[kind: u8][len: u32 LE]` frame header.
pub(crate) const HEADER_LEN: usize = 5;

/// Assembles the 5-byte frame header on the stack.
pub(crate) fn encode_header(kind: FrameKind, payload_len: usize) -> [u8; HEADER_LEN] {
    let len = u32::try_from(payload_len).expect("MAX_FRAME fits in u32");
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind.to_byte();
    header[1..].copy_from_slice(&len.to_le_bytes());
    header
}

/// Writes every byte of `bufs` with vectored writes, returning the number
/// of `write_vectored` calls made (the syscall count on a raw socket).
///
/// Tracks the remaining *byte* count rather than slice count, so empty
/// slices (zero-length payloads) never trigger a spurious `WriteZero`.
///
/// # Errors
///
/// Propagates I/O errors; reports `WriteZero` if the writer makes no
/// progress while bytes remain.
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    bufs: &mut [IoSlice<'_>],
) -> io::Result<usize> {
    let mut remaining: usize = bufs.iter().map(|b| b.len()).sum();
    let mut bufs = bufs;
    let mut calls = 0usize;
    while remaining > 0 {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame batch",
                ));
            }
            Ok(n) => {
                calls += 1;
                remaining -= n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(calls)
}

/// Writes one frame: a stack-assembled 5-byte header plus the payload in
/// a single vectored write (one syscall on sockets whose `write_vectored`
/// is genuine scatter/gather; at most two on plain writers).
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over 64 MiB.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let header = encode_header(kind, payload.len());
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    write_all_vectored(w, &mut bufs)?;
    w.flush()
}

/// The most a frame's buffer grows by before the bytes to fill it have
/// been read: a length prefix is a claim, not a reservation.
const READ_STEP: usize = 64 << 10;

/// Reads one frame into a buffer drawn from `pool`; `Ok(None)` on a clean
/// end of stream.
///
/// The receive side performs a single read-time copy off the stream
/// (unavoidable with real I/O) and none after it; in steady state the
/// payload lands in a recycled pool buffer and is sealed without any heap
/// allocation. The buffer grows with the bytes actually read, at most
/// doubling, never by what the length prefix announces.
///
/// # Errors
///
/// Propagates I/O errors; rejects malformed kinds and oversized lengths,
/// and reports `UnexpectedEof` if the stream ends inside a frame.
pub fn read_frame_in(
    r: &mut impl Read,
    pool: &BufferPool,
) -> io::Result<Option<(FrameKind, PayloadBytes)>> {
    let mut kind_byte = [0u8; 1];
    match r.read_exact(&mut kind_byte) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let kind = FrameKind::from_byte(kind_byte[0])?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut buf = pool.acquire(len.min(READ_STEP));
    let body = buf.buf_mut();
    while body.len() < len {
        let at = body.len();
        body.resize(at + (len - at).min(at.max(READ_STEP)), 0);
        r.read_exact(&mut body[at..])?;
    }
    Ok(Some((kind, buf.seal())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(r: &mut impl Read) -> io::Result<Option<(FrameKind, PayloadBytes)>> {
        read_frame_in(r, &BufferPool::new())
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Data, b"hello").unwrap();
        write_frame(&mut buf, FrameKind::Event, b"").unwrap();
        write_frame(&mut buf, FrameKind::Fin, b"").unwrap();

        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_one(&mut cur).unwrap(),
            Some((FrameKind::Data, PayloadBytes::from(&b"hello"[..])))
        );
        assert_eq!(
            read_one(&mut cur).unwrap(),
            Some((FrameKind::Event, PayloadBytes::new()))
        );
        assert_eq!(
            read_one(&mut cur).unwrap(),
            Some((FrameKind::Fin, PayloadBytes::new()))
        );
        assert_eq!(read_one(&mut cur).unwrap(), None);
    }

    #[test]
    fn pooled_reads_round_trip_and_recycle() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Data, b"hello").unwrap();
        write_frame(&mut buf, FrameKind::Fin, b"").unwrap();

        let pool = BufferPool::new();
        let mut cur = Cursor::new(buf.clone());
        let (kind, payload) = read_frame_in(&mut cur, &pool).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Data);
        assert_eq!(payload.as_slice(), b"hello");
        assert!(payload.is_pooled());
        drop(payload);

        // The recycled buffer serves the second pass without a miss.
        let mut cur = Cursor::new(buf);
        let (_, payload) = read_frame_in(&mut cur, &pool).unwrap().unwrap();
        assert_eq!(payload.as_slice(), b"hello");
        assert!(pool.stats().hits >= 1);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut cur = Cursor::new(vec![9u8, 0, 0, 0, 0]);
        assert!(read_one(&mut cur).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = vec![0u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(read_one(&mut cur).is_err());
    }

    /// A length prefix is a claim, not a reservation: one announcing
    /// `MAX_FRAME` followed by 1 KiB and end of stream is an error, and
    /// the buffer it read into, back in its pool, holds no more than
    /// 128 KiB.
    #[test]
    fn a_hostile_length_prefix_reserves_only_what_arrives() {
        let mut stream = encode_header(FrameKind::Data, MAX_FRAME).to_vec();
        stream.extend_from_slice(&[7; 1024]);
        let pool = BufferPool::new();
        let err = read_frame_in(&mut Cursor::new(stream), &pool).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut again = pool.acquire(READ_STEP);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.oversize), (1, 0), "{stats:?}");
        let reserved = again.buf_mut().capacity();
        assert!(reserved <= 128 << 10, "reserved {reserved} bytes");
    }

    /// Reads frames off `bytes` until the stream ends or fails: every
    /// outcome is a frame, the end, or a typed error, never a panic.
    fn read_all(bytes: &[u8], pool: &BufferPool) {
        let mut cur = Cursor::new(bytes);
        loop {
            match read_frame_in(&mut cur, pool) {
                Ok(Some((_, payload))) => assert!(payload.len() <= bytes.len()),
                Ok(None) => return,
                Err(e) => {
                    let kind = e.kind();
                    assert!(
                        matches!(
                            kind,
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "untyped error {e:?}"
                    );
                    return;
                }
            }
        }
    }

    #[test]
    fn hostile_streams_read_as_frames_or_typed_errors() {
        let mut valid = Vec::new();
        write_frame(&mut valid, FrameKind::Data, b"hello").unwrap();
        write_frame(&mut valid, FrameKind::Event, &[1, 2, 3]).unwrap();
        write_frame(&mut valid, FrameKind::Control, b"").unwrap();
        write_frame(&mut valid, FrameKind::Fin, b"").unwrap();
        let pool = BufferPool::new();
        for cut in 0..=valid.len() {
            read_all(&valid[..cut], &pool);
        }
        let mut mutated = valid.clone();
        for at in 0..valid.len() {
            for byte in [0x00, 0x7F, 0x80, 0xFF, !valid[at]] {
                mutated[at] = byte;
                read_all(&mutated, &pool);
            }
            mutated[at] = valid[at];
        }
        let mut rng = proptest::TestRng::deterministic("framing_hostile_streams");
        for _ in 0..2000 {
            let len = rng.below(64);
            let garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            read_all(&garbage, &pool);
        }
        assert_eq!(pool.stats().oversize, 0, "nothing reserved above a class");
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Data, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_one(&mut cur).is_err());
    }
}
