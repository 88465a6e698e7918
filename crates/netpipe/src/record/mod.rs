//! Record & replay: capture pipeline traffic, re-run it
//! bit-identically.
//!
//! Every scenario the middleware serves can become a repeatable
//! regression test and a benchmark workload: a recorded trace is a
//! *reified scenario* — the traffic, its virtual timing, the channel
//! typespecs, and the simulated-network configuration it ran under, all
//! in one append-only file.
//!
//! The pieces:
//!
//! * **Format** (`format`): an MCAP-inspired chunked container —
//!   magic + versioned header ([`TraceHeader`]), channel declaration
//!   records ([`ChannelDecl`]), CRC-guarded chunks of data records
//!   `{channel, virtual timestamp, frame kind, payload}`, and a footer
//!   index ([`TraceFooter`]). The sim scenario
//!   ([`ScenarioConfig`]) is serialized into the header so a replay
//!   reconstructs the exact network.
//! * **Writer** ([`TraceWriter`]): append-only, chunked, zero-copy —
//!   payloads are shared by refcount into the open chunk and written
//!   with one vectored write per chunk.
//! * **Taps** ([`RecordingLink`], [`Recorder`]): attach recording to
//!   any link or pipeline edge without copying payloads; timestamps
//!   come from the kernel clock, so recordings under virtual time are
//!   deterministic.
//! * **Reader** ([`TraceReader`]): pooled zero-copy chunk reads,
//!   crash-safe torn-tail recovery (open never fails on pure
//!   truncation; the dropped byte count is reported), forward-compatible
//!   skipping of unknown record types.
//! * **Replayer** ([`Replayer`]): re-offers the trace to live links at
//!   recorded timestamps (or as fast as possible) from a kernel thread,
//!   preserving record order — and with it the control-overtakes-data
//!   priority. Replaying the same trace twice over the same seeded
//!   scenario is byte-identical, verified end to end with
//!   [`DigestSink`].
//!
//! See `docs/record_replay.md` for the format specification and replay
//! semantics.

mod format;
mod reader;
mod recorder;
mod replayer;
mod writer;

pub use format::{
    ChannelDecl, ChunkIndexEntry, ScenarioConfig, TraceError, TraceFooter, TraceHeader, TraceRecord,
};
pub use reader::TraceReader;
pub use recorder::{DigestProbe, DigestSink, Recorder, RecordingLink};
pub use replayer::{ReplayCounters, ReplayHandle, ReplayMode, Replayer};
pub use writer::{RecorderStats, TraceWriter};
