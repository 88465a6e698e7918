//! Length-prefixed framing for *any* stream-oriented transport backend.
//!
//! Each frame is `[kind: u8][len: u32 LE][payload: len bytes]`. The
//! codec is written against `io::Read`/`io::Write`, so every transport
//! that runs over an ordered byte stream (TCP today; QUIC streams or
//! Unix sockets tomorrow) reuses it unchanged — backends with message
//! boundaries of their own (the simulator, in-process rings) skip it
//! entirely and carry [`Frame`](crate::Frame) values directly.

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

/// Reads one frame into a buffer drawn from `pool`; `Ok(None)` on a clean
/// end of stream.
///
/// The receive side performs a single read-time copy off the stream
/// (unavoidable with real I/O) and none after it; in steady state the
/// payload lands in a recycled pool buffer and is sealed without any heap
/// allocation.
///
/// # Errors
///
/// Propagates I/O errors; rejects malformed kinds and oversized lengths.
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
    let mut buf = pool.acquire(len);
    buf.buf_mut().resize(len, 0);
    r.read_exact(buf.buf_mut())?;
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

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Data, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_one(&mut cur).is_err());
    }
}
