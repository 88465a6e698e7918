//! The append-only chunked trace writer.
//!
//! A [`TraceWriter`] is a cheaply cloneable handle (taps on several
//! links share one writer) accumulating data records into an in-memory
//! chunk: each [`record`](TraceWriter::record) stores a stack-assembled
//! 15-byte header plus the payload's refcounted [`PayloadBytes`] handle
//! — **no payload copy**. When the chunk reaches [`CHUNK_RECORDS`]
//! records or [`CHUNK_BYTES`] payload bytes it is flushed as one vectored
//! write (header slices interleaved with payload slices, via the same
//! [`write_all_vectored`](crate::framing) path the TCP backend batches
//! through), with a CRC-32 over the record region computed incrementally
//! at record time.

use super::format::{
    self, op, ChannelDecl, ChunkIndexEntry, ScenarioConfig, TraceError, TraceFooter, TraceHeader,
    CHUNK_PREAMBLE_LEN, DATA_HEADER_LEN, TOP_HEADER_LEN, TRACE_MAGIC, TRACE_SCHEMA_VERSION,
};
use crate::framing::{self, FrameKind, MAX_FRAME};
use crate::transport::{Frame, SimConfig};
use crate::wire;
use infopipes::PayloadBytes;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, IoSlice, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Data records after which the open chunk is flushed.
const CHUNK_RECORDS: usize = 64;
/// Payload bytes after which the open chunk is flushed.
const CHUNK_BYTES: usize = 256 * 1024;

/// Lock-free counters shared by a [`TraceWriter`]'s clones.
#[derive(Debug, Default)]
struct RecorderCounters {
    records: AtomicU64,
    payload_bytes: AtomicU64,
    file_bytes: AtomicU64,
    chunk_flushes: AtomicU64,
}

/// A point-in-time view of a writer's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Data records accepted.
    pub records: u64,
    /// Payload bytes accepted.
    pub payload_bytes: u64,
    /// Bytes written to the file.
    pub file_bytes: u64,
    /// Chunks flushed.
    pub chunk_flushes: u64,
}

/// One pending data record: its stack-encoded header and the payload
/// handle (shared, never copied).
struct Pending {
    header: [u8; DATA_HEADER_LEN],
    payload: PayloadBytes,
}

struct WriterInner {
    sink: BufWriter<File>,
    /// Records of the open (unflushed) chunk.
    pending: Vec<Pending>,
    pending_payload_bytes: usize,
    /// Incremental CRC over the open chunk's record region.
    crc: infopipes::Crc32,
    chunk_first_ts: u64,
    chunk_last_ts: u64,
    /// File offset where the *next* top-level record lands.
    offset: u64,
    index: Vec<ChunkIndexEntry>,
    total_records: u64,
    total_payload_bytes: u64,
    finished: bool,
}

impl WriterInner {
    fn write_raw(&mut self, bytes: &[u8], counters: &RecorderCounters) -> Result<(), TraceError> {
        self.sink.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        counters
            .file_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes the open chunk as one vectored write:
    /// `[op][len][crc][count]` on the stack, then each record's header
    /// and payload as alternating [`IoSlice`]s.
    fn flush_chunk(&mut self, counters: &RecorderCounters) -> Result<(), TraceError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let records_len: usize = self
            .pending
            .iter()
            .map(|p| DATA_HEADER_LEN + p.payload.len())
            .sum();
        let body_len = CHUNK_PREAMBLE_LEN + records_len;
        let chunk_offset = self.offset;

        let mut preamble = [0u8; TOP_HEADER_LEN + CHUNK_PREAMBLE_LEN];
        preamble[..TOP_HEADER_LEN].copy_from_slice(&format::encode_top_header(op::CHUNK, body_len));
        preamble[TOP_HEADER_LEN..TOP_HEADER_LEN + 4]
            .copy_from_slice(&self.crc.value().to_le_bytes());
        preamble[TOP_HEADER_LEN + 4..].copy_from_slice(
            &u32::try_from(self.pending.len())
                .expect("chunk record count fits in u32")
                .to_le_bytes(),
        );

        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(1 + self.pending.len() * 2);
        slices.push(IoSlice::new(&preamble));
        for p in &self.pending {
            slices.push(IoSlice::new(&p.header));
            slices.push(IoSlice::new(p.payload.as_slice()));
        }
        framing::write_all_vectored(&mut self.sink, &mut slices)?;
        drop(slices);

        let written = (TOP_HEADER_LEN + body_len) as u64;
        self.offset += written;
        counters.file_bytes.fetch_add(written, Ordering::Relaxed);
        counters.chunk_flushes.fetch_add(1, Ordering::Relaxed);
        self.index.push(ChunkIndexEntry {
            offset: chunk_offset,
            records: self.pending.len() as u32,
            first_ts: self.chunk_first_ts,
            last_ts: self.chunk_last_ts,
        });
        self.pending.clear();
        self.pending_payload_bytes = 0;
        self.crc = infopipes::Crc32::new();
        Ok(())
    }

    fn finish(&mut self, counters: &RecorderCounters) -> Result<(), TraceError> {
        if self.finished {
            return Ok(());
        }
        self.flush_chunk(counters)?;
        let footer = TraceFooter {
            chunks: std::mem::take(&mut self.index),
            records: self.total_records,
            bytes: self.total_payload_bytes,
        };
        let rec = format::encode_wire_record(op::FOOTER, &footer)?;
        self.write_raw(&rec, counters)?;
        self.sink.flush()?;
        self.finished = true;
        Ok(())
    }
}

struct Shared {
    inner: Mutex<WriterInner>,
    counters: RecorderCounters,
}

/// A handle onto one trace file being written. Cheap to clone; clones
/// share the file, the open chunk, and the counters.
#[derive(Clone)]
pub struct TraceWriter {
    shared: Arc<Shared>,
}

impl TraceWriter {
    /// Creates a trace file at `path` (truncating any existing file) and
    /// writes the magic + header. `scenario` should carry the
    /// [`SimConfig`] of the recorded network when there is one, so a
    /// replay can reconstruct the exact scenario.
    ///
    /// # Errors
    ///
    /// I/O or wire-codec failures writing the preamble.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        scenario: Option<&SimConfig>,
    ) -> Result<TraceWriter, TraceError> {
        let counters = RecorderCounters::default();
        let mut inner = WriterInner {
            sink: BufWriter::new(File::create(path)?),
            pending: Vec::new(),
            pending_payload_bytes: 0,
            crc: infopipes::Crc32::new(),
            chunk_first_ts: 0,
            chunk_last_ts: 0,
            offset: 0,
            index: Vec::new(),
            total_records: 0,
            total_payload_bytes: 0,
            finished: false,
        };
        inner.write_raw(&TRACE_MAGIC, &counters)?;
        let header = TraceHeader {
            version: TRACE_SCHEMA_VERSION,
            name: name.to_owned(),
            scenario: scenario.map(ScenarioConfig::from),
        };
        let rec = format::encode_wire_record(op::HEADER, &header)?;
        inner.write_raw(&rec, &counters)?;
        Ok(TraceWriter {
            shared: Arc::new(Shared {
                inner: Mutex::new(inner),
                counters,
            }),
        })
    }

    /// Declares a channel. The open chunk is flushed first so the
    /// declaration precedes every data record that follows it in file
    /// order.
    ///
    /// # Errors
    ///
    /// [`TraceError::Finished`] after [`finish`](TraceWriter::finish);
    /// I/O or wire-codec failures otherwise.
    pub fn declare_channel(&self, decl: &ChannelDecl) -> Result<(), TraceError> {
        let mut inner = self.shared.inner.lock();
        if inner.finished {
            return Err(TraceError::Finished);
        }
        inner.flush_chunk(&self.shared.counters)?;
        let rec = format::encode_wire_record(op::CHANNEL, decl)?;
        inner.write_raw(&rec, &self.shared.counters)
    }

    /// Appends one data record. The payload handle is shared into the
    /// open chunk — zero copies — and written out when the chunk
    /// flushes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Finished`] after [`finish`](TraceWriter::finish);
    /// [`TraceError::Corrupt`] for oversized payloads; I/O failures on a
    /// policy-triggered flush.
    pub fn record(
        &self,
        channel: u16,
        ts_ns: u64,
        kind: FrameKind,
        payload: PayloadBytes,
    ) -> Result<(), TraceError> {
        if payload.len() > MAX_FRAME {
            return Err(TraceError::Corrupt(format!(
                "payload of {} bytes exceeds MAX_FRAME",
                payload.len()
            )));
        }
        let mut inner = self.shared.inner.lock();
        if inner.finished {
            return Err(TraceError::Finished);
        }
        let header = format::encode_data_header(channel, ts_ns, kind, payload.len());
        inner.crc.update(&header);
        inner.crc.update(payload.as_slice());
        if inner.pending.is_empty() {
            inner.chunk_first_ts = ts_ns;
        }
        inner.chunk_last_ts = ts_ns;
        inner.pending_payload_bytes += payload.len();
        inner.total_records += 1;
        inner.total_payload_bytes += payload.len() as u64;
        self.shared.counters.records.fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .payload_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        inner.pending.push(Pending { header, payload });
        if inner.pending.len() >= CHUNK_RECORDS || inner.pending_payload_bytes >= CHUNK_BYTES {
            inner.flush_chunk(&self.shared.counters)?;
        }
        Ok(())
    }

    /// Records a transport [`Frame`]: data payloads are shared
    /// (zero-copy); events are wire-encoded; control bytes are wrapped;
    /// `Fin` is a zero-length record.
    ///
    /// # Errors
    ///
    /// As [`TraceWriter::record`], plus wire-codec failures for events.
    pub(crate) fn record_frame(
        &self,
        channel: u16,
        ts_ns: u64,
        frame: &Frame,
    ) -> Result<(), TraceError> {
        let (kind, payload) = match frame {
            Frame::Data(p) => (FrameKind::Data, p.clone()),
            Frame::Event(ev) => (FrameKind::Event, wire::to_payload(ev)?),
            Frame::Control(v) => (FrameKind::Control, PayloadBytes::from_vec(v.clone())),
            Frame::Fin => (FrameKind::Fin, PayloadBytes::new()),
        };
        self.record(channel, ts_ns, kind, payload)
    }

    /// Flushes the open chunk (if any) to the file.
    ///
    /// # Errors
    ///
    /// I/O failures; [`TraceError::Finished`] after `finish`.
    pub fn flush(&self) -> Result<(), TraceError> {
        let mut inner = self.shared.inner.lock();
        if inner.finished {
            return Err(TraceError::Finished);
        }
        inner.flush_chunk(&self.shared.counters)?;
        inner.sink.flush()?;
        Ok(())
    }

    /// Flushes everything and writes the footer index. Idempotent;
    /// called automatically when the last handle drops.
    ///
    /// # Errors
    ///
    /// I/O or wire-codec failures writing the tail.
    pub fn finish(&self) -> Result<(), TraceError> {
        self.shared.inner.lock().finish(&self.shared.counters)
    }

    /// A point-in-time stats snapshot.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        let c = &self.shared.counters;
        RecorderStats {
            records: c.records.load(Ordering::Relaxed),
            payload_bytes: c.payload_bytes.load(Ordering::Relaxed),
            file_bytes: c.file_bytes.load(Ordering::Relaxed),
            chunk_flushes: c.chunk_flushes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Best-effort clean close; a torn tail is recoverable anyway.
        let _ = self.inner.get_mut().finish(&self.counters);
    }
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireEvent;
    use crate::record::TraceReader;
    use std::path::PathBuf;

    struct TempTrace(PathBuf);

    impl TempTrace {
        fn new(name: &str) -> TempTrace {
            TempTrace(
                std::env::temp_dir()
                    .join(format!("nptrace-unit-{}-{name}.trace", std::process::id())),
            )
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Each frame kind a recording tap hands the writer comes back with
    /// its kind and payload: data shared as-is, the event wire-encoded,
    /// control bytes wrapped, `Fin` empty.
    #[test]
    fn record_frame_round_trips_every_frame_kind() {
        let path = TempTrace::new("frames");
        let writer = TraceWriter::create(&path.0, "frames", None).expect("create");
        let event = WireEvent::SetDropLevel(2);
        writer
            .record_frame(0, 1, &Frame::Data(PayloadBytes::from_vec(vec![1, 2, 3])))
            .expect("data");
        writer
            .record_frame(0, 2, &Frame::Event(event.clone()))
            .expect("event");
        writer
            .record_frame(0, 3, &Frame::Control(vec![9, 9, 9]))
            .expect("control");
        writer.record_frame(0, 4, &Frame::Fin).expect("fin");
        writer.finish().expect("finish");

        let reader = TraceReader::open(&path.0).expect("open");
        let got: Vec<_> = reader
            .records
            .iter()
            .map(|r| (r.ts_ns, r.kind, r.payload.as_slice().to_vec()))
            .collect();
        let encoded = wire::to_payload(&event).expect("encode");
        assert_eq!(
            got,
            vec![
                (1, FrameKind::Data, vec![1, 2, 3]),
                (2, FrameKind::Event, encoded.as_slice().to_vec()),
                (3, FrameKind::Control, vec![9, 9, 9]),
                (4, FrameKind::Fin, Vec::new()),
            ]
        );
        let back: WireEvent =
            wire::from_bytes(reader.records[1].payload.as_slice()).expect("decode");
        assert_eq!(back, event);
    }

    /// Payload bytes bound a chunk as well as record count: five 100 KiB
    /// records — far fewer than `CHUNK_RECORDS` — flush a chunk each
    /// time the open chunk reaches `CHUNK_BYTES`.
    #[test]
    fn payload_bytes_bound_a_chunk() {
        let path = TempTrace::new("bytes");
        let writer = TraceWriter::create(&path.0, "bytes", None).expect("create");
        let record_bytes = 100 * 1024;
        for i in 0..5u64 {
            writer
                .record(
                    0,
                    i,
                    FrameKind::Data,
                    PayloadBytes::from_vec(vec![i as u8; record_bytes]),
                )
                .expect("record");
        }
        // Records 0-2 reach 300 KiB >= CHUNK_BYTES and flush; 3-4 stay open.
        let stats = writer.stats();
        assert_eq!(stats.chunk_flushes, 1, "{stats:?}");
        assert_eq!(stats.payload_bytes, 5 * record_bytes as u64);
        writer.finish().expect("finish");

        let reader = TraceReader::open(&path.0).expect("open");
        let footer = reader.footer.as_ref().expect("footer");
        let per_chunk: Vec<u32> = footer.chunks.iter().map(|c| c.records).collect();
        assert_eq!(per_chunk, vec![3, 2]);
        assert_eq!(footer.bytes, stats.payload_bytes);
        for (i, rec) in reader.records.iter().enumerate() {
            assert_eq!(rec.payload.len(), record_bytes);
            assert!(rec.payload.as_slice().iter().all(|&b| b == i as u8));
        }
    }
}
