//! The on-disk trace container: constants, record types, and the
//! byte-level layout shared by [`TraceWriter`](super::TraceWriter) and
//! [`TraceReader`](super::TraceReader).
//!
//! A trace file is a magic preamble followed by a flat sequence of
//! **top-level records**, each `[op: u8][len: u32 LE][body: len bytes]`:
//!
//! | op | record | body |
//! |----|--------|------|
//! | 1  | header       | wire-encoded [`TraceHeader`] |
//! | 2  | channel decl | wire-encoded [`ChannelDecl`] |
//! | 3  | chunk        | `[crc: u32 LE][count: u32 LE][count data records]` |
//! | 4  | footer       | wire-encoded [`TraceFooter`] |
//!
//! Data records live only inside chunks, back to back:
//! `[channel: u16 LE][ts: u64 LE][kind: u8][plen: u32 LE][payload]`
//! (a fixed [`DATA_HEADER_LEN`]-byte header, then the payload). The
//! chunk CRC-32 covers the data-record region only, so a torn tail is
//! distinguishable from in-place corruption. Readers skip top-level ops
//! they do not know (forward compatibility); they refuse headers whose
//! version is *newer* than [`TRACE_SCHEMA_VERSION`].

use crate::framing::FrameKind;
use crate::transport::SimConfig;
use crate::wire::{self, WireError};
use infopipes::PayloadBytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The 8-byte file preamble.
pub(crate) const TRACE_MAGIC: [u8; 8] = *b"NPTRACE\0";

/// The trace container schema version, stored in the [`TraceHeader`].
/// Bump on any layout change; readers accept any version up to their
/// own and refuse newer files loudly instead of misdecoding.
pub(crate) const TRACE_SCHEMA_VERSION: u32 = 1;

/// Length of a top-level record header (`op` + `len`).
pub(crate) const TOP_HEADER_LEN: usize = 5;

/// Length of a data-record header inside a chunk
/// (`channel` + `ts` + `kind` + `plen`).
pub(crate) const DATA_HEADER_LEN: usize = 15;

/// Length of the chunk-body preamble (`crc` + `count`).
pub(crate) const CHUNK_PREAMBLE_LEN: usize = 8;

/// Top-level record opcodes.
pub(crate) mod op {
    pub(crate) const HEADER: u8 = 1;
    pub(crate) const CHANNEL: u8 = 2;
    pub(crate) const CHUNK: u8 = 3;
    pub(crate) const FOOTER: u8 = 4;
}

/// Largest accepted top-level record body: a full chunk of
/// [`MAX_FRAME`](crate::framing::MAX_FRAME)-sized payloads plus slack.
/// A corrupted length prefix must not allocate unbounded memory.
pub(crate) const MAX_TOP_RECORD: usize = (64 << 20) + (1 << 16);

/// Errors raised by the record & replay subsystem.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a trace, or a record is structurally invalid in a
    /// way that cannot be explained by a torn tail.
    Corrupt(String),
    /// The trace was written by a newer schema than this reader speaks.
    Version(u32),
    /// A wire-codec failure while encoding or decoding a record body.
    Wire(WireError),
    /// The writer was already finished.
    Finished,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Corrupt(s) => write!(f, "corrupt trace: {s}"),
            TraceError::Version(v) => write!(
                f,
                "trace schema v{v} is newer than supported v{TRACE_SCHEMA_VERSION}"
            ),
            TraceError::Wire(e) => write!(f, "trace wire codec error: {e}"),
            TraceError::Finished => write!(f, "trace writer already finished"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> Self {
        TraceError::Wire(e)
    }
}

/// The simulated-network scenario a trace was captured under, serialized
/// into the header so a replay reconstructs the exact [`SimConfig`] —
/// same seed, same latency/jitter/bandwidth/queue — and therefore the
/// exact loss and timing behavior.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Jitter-source seed.
    pub seed: u64,
    /// Propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Uniform jitter bound in nanoseconds.
    pub jitter_ns: u64,
    /// Link bandwidth in bytes/second (`None` = infinite).
    pub bandwidth_bps: Option<f64>,
    /// Bounded queue size in bytes (drops on overflow).
    pub queue_bytes: u64,
}

impl From<&SimConfig> for ScenarioConfig {
    fn from(cfg: &SimConfig) -> Self {
        ScenarioConfig {
            seed: cfg.seed,
            latency_ns: u64::try_from(cfg.latency.as_nanos()).unwrap_or(u64::MAX),
            jitter_ns: u64::try_from(cfg.jitter.as_nanos()).unwrap_or(u64::MAX),
            bandwidth_bps: cfg.bandwidth_bps,
            queue_bytes: cfg.queue_bytes as u64,
        }
    }
}

impl ScenarioConfig {
    /// Reconstructs the [`SimConfig`] this scenario describes.
    pub(crate) fn to_sim_config(&self) -> SimConfig {
        SimConfig {
            latency: Duration::from_nanos(self.latency_ns),
            jitter: Duration::from_nanos(self.jitter_ns),
            bandwidth_bps: self.bandwidth_bps,
            queue_bytes: usize::try_from(self.queue_bytes).unwrap_or(usize::MAX),
            seed: self.seed,
        }
    }
}

/// The trace file header (op 1, always the first record).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// The writer's trace container schema version.
    pub version: u32,
    /// A human-chosen trace name (the session or experiment label).
    pub name: String,
    /// The simulated-network scenario, when the recorded session ran on
    /// a [`SimTransport`](crate::SimTransport).
    pub scenario: Option<ScenarioConfig>,
}

/// A channel declaration (op 2): the trace-local id data records refer
/// to, plus the channel's item type, location and QoS ranges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelDecl {
    /// Trace-local channel id, referenced by data records.
    pub id: u16,
    /// The channel's name (usually the link or stage name).
    pub name: String,
    /// The flow's item type name
    /// ([`ItemType::name`](typespec::ItemType::name)).
    pub item: String,
    /// The flow's location property, if stamped.
    pub location: Option<String>,
    /// QoS ranges as `(key, min, max)` triples (display-keyed;
    /// informational).
    pub qos: Vec<(String, f64, f64)>,
}

impl ChannelDecl {
    /// A declaration with the given id, name, and item type name.
    #[must_use]
    pub fn new(id: u16, name: impl Into<String>, item: impl Into<String>) -> ChannelDecl {
        ChannelDecl {
            id,
            name: name.into(),
            item: item.into(),
            location: None,
            qos: Vec::new(),
        }
    }
}

/// One entry of the footer's chunk index.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChunkIndexEntry {
    /// File offset of the chunk's top-level record header.
    pub offset: u64,
    /// Data records in the chunk.
    pub records: u32,
    /// Virtual timestamp of the chunk's first record (ns).
    pub first_ts: u64,
    /// Virtual timestamp of the chunk's last record (ns).
    pub last_ts: u64,
}

/// The trace footer (op 4, last record of a cleanly closed trace): a
/// chunk index for random access plus whole-trace totals. A trace
/// without a footer is readable — the reader rebuilds everything by
/// scanning — but reports `clean_close = false`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceFooter {
    /// Index of every chunk, in file order.
    pub chunks: Vec<ChunkIndexEntry>,
    /// Total data records in the trace.
    pub records: u64,
    /// Total payload bytes in the trace.
    pub bytes: u64,
}

/// One data record, as parsed back out of a chunk.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// The channel the frame travelled on.
    pub channel: u16,
    /// Virtual timestamp (kernel nanoseconds) at capture.
    pub ts_ns: u64,
    /// What the frame carried.
    pub kind: FrameKind,
    /// The frame payload. For records parsed from a chunk this is a
    /// zero-copy slice of the chunk's (pooled) buffer.
    pub payload: PayloadBytes,
}

/// Assembles the fixed data-record header on the stack.
pub(crate) fn encode_data_header(
    channel: u16,
    ts_ns: u64,
    kind: FrameKind,
    payload_len: usize,
) -> [u8; DATA_HEADER_LEN] {
    let plen = u32::try_from(payload_len).expect("payload below MAX_FRAME fits in u32");
    let mut h = [0u8; DATA_HEADER_LEN];
    h[0..2].copy_from_slice(&channel.to_le_bytes());
    h[2..10].copy_from_slice(&ts_ns.to_le_bytes());
    h[10] = kind.to_byte();
    h[11..15].copy_from_slice(&plen.to_le_bytes());
    h
}

/// Assembles a top-level record header on the stack.
pub(crate) fn encode_top_header(op: u8, body_len: usize) -> [u8; TOP_HEADER_LEN] {
    let len = u32::try_from(body_len).expect("top-level body below MAX_TOP_RECORD fits in u32");
    let mut h = [0u8; TOP_HEADER_LEN];
    h[0] = op;
    h[1..].copy_from_slice(&len.to_le_bytes());
    h
}

/// Encodes a wire-framed top-level record (header/decl/footer bodies).
pub(crate) fn encode_wire_record<T: Serialize>(op: u8, value: &T) -> Result<Vec<u8>, TraceError> {
    let body = wire::to_bytes(value)?;
    let mut out = Vec::with_capacity(TOP_HEADER_LEN + body.len());
    out.extend_from_slice(&encode_top_header(op, body.len()));
    out.extend_from_slice(&body);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_round_trips_a_sim_config() {
        let cfg = SimConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::from_micros(300),
            bandwidth_bps: Some(8000.0),
            queue_bytes: 2048,
            seed: 9,
        };
        let scen = ScenarioConfig::from(&cfg);
        let back = scen.to_sim_config();
        assert_eq!(back.latency, cfg.latency);
        assert_eq!(back.jitter, cfg.jitter);
        assert_eq!(back.bandwidth_bps, cfg.bandwidth_bps);
        assert_eq!(back.queue_bytes, cfg.queue_bytes);
        assert_eq!(back.seed, cfg.seed);
    }

    #[test]
    fn header_and_footer_round_trip_through_wire() {
        let header = TraceHeader {
            version: TRACE_SCHEMA_VERSION,
            name: "session-1".into(),
            scenario: Some(ScenarioConfig {
                seed: 3,
                latency_ns: 1_000_000,
                jitter_ns: 0,
                bandwidth_bps: None,
                queue_bytes: 1 << 20,
            }),
        };
        let bytes = wire::to_bytes(&header).unwrap();
        let back: TraceHeader = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, header);

        let footer = TraceFooter {
            chunks: vec![ChunkIndexEntry {
                offset: 13,
                records: 2,
                first_ts: 5,
                last_ts: 9,
            }],
            records: 2,
            bytes: 128,
        };
        let bytes = wire::to_bytes(&footer).unwrap();
        let back: TraceFooter = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, footer);
    }

    #[test]
    fn data_header_layout_is_fixed() {
        let h = encode_data_header(0x0102, 0x0304_0506_0708_090A, FrameKind::Control, 7);
        assert_eq!(h[0..2], 0x0102u16.to_le_bytes());
        assert_eq!(h[2..10], 0x0304_0506_0708_090Au64.to_le_bytes());
        assert_eq!(h[10], FrameKind::Control.to_byte());
        assert_eq!(h[11..15], 7u32.to_le_bytes());
    }
}
