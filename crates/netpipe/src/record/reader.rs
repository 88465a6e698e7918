//! The trace reader: full-scan parsing with crash-safe torn-tail
//! recovery and a pooled, zero-copy payload path.
//!
//! Chunk bodies are read into buffers drawn from a
//! [`BufferPool`] and sealed once; every record payload is then a
//! zero-copy [`PayloadBytes::slice`] of its chunk's sealed buffer — one
//! read-time copy off the file descriptor (unavoidable with real I/O)
//! and none after it, mirroring the transport receive path.
//!
//! # Torn tails
//!
//! An append-only log's failure mode is truncation: the recording
//! process died (or the disk filled) mid-append, chopping the file at
//! an arbitrary byte. [`TraceReader::open`] never errors on pure
//! truncation. Whatever prefix of the final top-level record survived
//! is salvaged — for a torn chunk, the complete data records at the
//! front of the partial body (each record is self-delimiting, and
//! truncation only removes a suffix, so a fully present record is
//! exactly what the writer wrote) — and the dropped byte count is
//! reported in [`TraceReader::recovered_bytes`]. Mid-file damage (a CRC
//! mismatch with more data following, an oversized length) is *not*
//! explainable by truncation and stays a hard [`TraceError::Corrupt`].

use super::format::{
    op, ChannelDecl, TraceError, TraceFooter, TraceHeader, TraceRecord, CHUNK_PREAMBLE_LEN,
    DATA_HEADER_LEN, MAX_TOP_RECORD, TRACE_MAGIC, TRACE_SCHEMA_VERSION,
};
use crate::framing::FrameKind;
use crate::transport::SimConfig;
use crate::wire;
use infopipes::{BufferPool, Digest64, PayloadBytes};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// A fully parsed trace.
#[derive(Debug)]
pub struct TraceReader {
    /// The file header.
    pub header: TraceHeader,
    /// Channel declarations, in file order.
    pub channels: Vec<ChannelDecl>,
    /// Every data record, in file order.
    pub records: Vec<TraceRecord>,
    /// The footer, when the trace was closed cleanly.
    pub footer: Option<TraceFooter>,
    /// Whether the trace ended with a valid footer.
    pub clean_close: bool,
    /// Bytes discarded recovering a torn tail (0 for a clean file).
    pub recovered_bytes: u64,
}

/// What `read_exact_or_eof` observed.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF arrived after `n` bytes (possibly 0).
    Short(usize),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, TraceError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(Fill::Short(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Parses complete data records off the front of `body`'s record
/// region, appending them to `salvaged`, and returns how many bytes
/// they consumed. A record whose header or payload extends past the end
/// of `body` terminates the parse — callers decide whether that is a
/// torn tail (salvage) or a count mismatch (corruption).
fn parse_records(
    body: &PayloadBytes,
    from: usize,
    salvaged: &mut Vec<TraceRecord>,
) -> Result<usize, TraceError> {
    let bytes = body.as_slice();
    let mut at = from;
    while bytes.len() - at >= DATA_HEADER_LEN {
        let h = &bytes[at..at + DATA_HEADER_LEN];
        let channel = u16::from_le_bytes([h[0], h[1]]);
        let ts_ns = u64::from_le_bytes(h[2..10].try_into().expect("8-byte slice"));
        let kind = FrameKind::from_byte(h[10])
            .map_err(|_| TraceError::Corrupt(format!("unknown data-record kind {}", h[10])))?;
        let plen = u32::from_le_bytes(h[11..15].try_into().expect("4-byte slice")) as usize;
        if bytes.len() - at - DATA_HEADER_LEN < plen {
            break;
        }
        let start = at + DATA_HEADER_LEN;
        salvaged.push(TraceRecord {
            channel,
            ts_ns,
            kind,
            // Zero-copy: a refcounted view into the chunk's sealed
            // buffer.
            payload: body.slice(start..start + plen),
        });
        at = start + plen;
    }
    Ok(at - from)
}

impl TraceReader {
    /// Opens and fully parses a trace file, recovering a torn tail.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for files that are not traces or are
    /// damaged mid-file; [`TraceError::Version`] for traces written by a
    /// newer schema; I/O errors other than clean truncation.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceReader, TraceError> {
        let pool = BufferPool::new();
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);

        let mut magic = [0u8; TRACE_MAGIC.len()];
        match read_exact_or_eof(&mut r, &mut magic)? {
            Fill::Full if magic == TRACE_MAGIC => {}
            // A file too short to hold the magic *could* be a torn
            // creation, but nothing is salvageable and misidentifying an
            // unrelated file would be worse: refuse.
            _ => return Err(TraceError::Corrupt("bad trace magic".into())),
        }

        let mut header: Option<TraceHeader> = None;
        let mut channels = Vec::new();
        let mut records = Vec::new();
        let mut footer = None;
        // File offset of everything fully consumed into the result so
        // far; whatever lies beyond it at a torn tail is "recovered"
        // (dropped).
        let mut valid_end = TRACE_MAGIC.len() as u64;
        let mut offset = valid_end;
        let mut torn = false;

        loop {
            let record_start = offset;
            let mut top = [0u8; super::format::TOP_HEADER_LEN];
            match read_exact_or_eof(&mut r, &mut top)? {
                Fill::Short(0) => break, // clean end of records
                Fill::Short(_) => {
                    torn = true;
                    break;
                }
                Fill::Full => {}
            }
            offset += top.len() as u64;
            let opcode = top[0];
            let len = u32::from_le_bytes(top[1..5].try_into().expect("4-byte slice")) as usize;
            if len > MAX_TOP_RECORD {
                // A length field is written atomically with its op byte;
                // truncation cannot invent one. This is real damage.
                return Err(TraceError::Corrupt(format!(
                    "top-level record of {len} bytes exceeds MAX_TOP_RECORD"
                )));
            }

            // Chunk bodies go through the pool (the payload fast path);
            // metadata records are small and short-lived.
            let (body, short) = {
                let mut buf = pool.acquire(len);
                buf.buf_mut().resize(len, 0);
                match read_exact_or_eof(&mut r, buf.buf_mut())? {
                    Fill::Full => (buf.seal(), None),
                    Fill::Short(n) => {
                        buf.buf_mut().truncate(n);
                        (buf.seal(), Some(n))
                    }
                }
            };
            if let Some(n) = short {
                // Torn body. For a chunk, salvage the complete record
                // prefix of what survived; everything else is dropped.
                torn = true;
                if opcode == op::CHUNK && n > CHUNK_PREAMBLE_LEN {
                    let consumed = parse_records(&body, CHUNK_PREAMBLE_LEN, &mut records)?;
                    valid_end = record_start
                        + (super::format::TOP_HEADER_LEN + CHUNK_PREAMBLE_LEN + consumed) as u64;
                }
                break;
            }
            offset += len as u64;

            match opcode {
                op::HEADER => {
                    let h: TraceHeader = wire::from_bytes(body.as_slice())?;
                    if h.version > TRACE_SCHEMA_VERSION {
                        return Err(TraceError::Version(h.version));
                    }
                    if header.is_some() {
                        return Err(TraceError::Corrupt("duplicate trace header".into()));
                    }
                    header = Some(h);
                }
                op::CHANNEL => {
                    channels.push(wire::from_bytes::<ChannelDecl>(body.as_slice())?);
                }
                op::CHUNK => {
                    if body.len() < CHUNK_PREAMBLE_LEN {
                        return Err(TraceError::Corrupt(
                            "chunk body shorter than preamble".into(),
                        ));
                    }
                    let bytes = body.as_slice();
                    let crc = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte slice"));
                    let count =
                        u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice")) as usize;
                    let region = &bytes[CHUNK_PREAMBLE_LEN..];
                    if infopipes::crc32(region) != crc {
                        return Err(TraceError::Corrupt(format!(
                            "chunk at offset {record_start} failed its CRC"
                        )));
                    }
                    let before = records.len();
                    let consumed = parse_records(&body, CHUNK_PREAMBLE_LEN, &mut records)?;
                    if records.len() - before != count || consumed != region.len() {
                        return Err(TraceError::Corrupt(format!(
                            "chunk at offset {record_start} declared {count} records, parsed {}",
                            records.len() - before
                        )));
                    }
                }
                op::FOOTER => {
                    footer = Some(wire::from_bytes::<TraceFooter>(body.as_slice())?);
                }
                // Unknown op with a valid length: a future record type.
                // Skip it (forward compatibility).
                _ => {}
            }
            valid_end = offset;
        }

        let header = header.ok_or_else(|| TraceError::Corrupt("trace has no header".into()))?;
        let recovered_bytes = if torn { file_len - valid_end } else { 0 };
        Ok(TraceReader {
            header,
            channels,
            records,
            clean_close: footer.is_some() && !torn,
            footer,
            recovered_bytes,
        })
    }

    /// The recorded simulated-network scenario, when the header carries
    /// one.
    #[must_use]
    pub fn scenario(&self) -> Option<SimConfig> {
        self.header.scenario.as_ref().map(|s| s.to_sim_config())
    }

    /// Looks up a channel declaration by id.
    #[must_use]
    pub fn channel(&self, id: u16) -> Option<&ChannelDecl> {
        self.channels.iter().find(|c| c.id == id)
    }

    /// A frame-aware digest over every record (channel, timestamp, kind,
    /// and payload). Two traces digest equal iff they carry the same
    /// records in the same order with the same framing.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        for rec in &self.records {
            d.update_u64(u64::from(rec.channel));
            d.update_u64(rec.ts_ns);
            d.update_u64(u64::from(rec.kind.to_byte()));
            d.update(rec.payload.as_slice());
        }
        d.value()
    }

    /// Total payload bytes across all records.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.payload.len() as u64).sum()
    }
}
