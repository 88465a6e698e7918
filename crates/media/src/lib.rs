//! Synthetic media substrate for the Infopipes reproduction.
//!
//! The paper's evaluation pipelines process MPEG video and MIDI. Real codecs and media files are not required to exercise the
//! middleware: what matters to Infopipes is item *sizes*, *timing*, and
//! the *inter-frame dependencies* that determine what breaks when frames
//! are dropped. This crate provides synthetic equivalents:
//!
//! * an MPEG-like stream model: I/P/B [`FrameType`]s in a configurable
//!   [`GopStructure`] with realistic relative sizes ([`MpegFileSource`]),
//! * a [`Decoder`] that enforces reference-frame dependencies — dropping
//!   a reference poisons dependent frames until the next I frame, which
//!   is exactly why the paper's feedback-controlled dropping beats
//!   arbitrary in-network dropping (Fig. 1),
//! * a [`PriorityDropFilter`] controlled by
//!   [`ControlEvent::SetDropLevel`](infopipes::ControlEvent::SetDropLevel),
//! * [`Fragmenter`]/[`Defragmenter`] for MTU-sized network packets,
//! * a measuring sink: [`DisplaySink`] (presentation jitter),
//! * tiny-item MIDI flows for the small-message overhead experiments
//!   (§4's MIDI-mixer motivation).

#![warn(missing_docs)]

mod decoder;
mod display;
mod drop_filter;
mod file_source;
mod fragment;
mod frame;
mod gop;
mod midi;
mod stats;

pub use decoder::{DecodeCost, Decoder, DecoderStats};
pub use display::{DisplaySink, DisplayStats, Resizer};
pub use drop_filter::{DropFilterStats, PriorityDropFilter};
pub use file_source::MpegFileSource;
pub use fragment::{Defragmenter, Fragmenter, Packet};
pub use frame::{CompressedFrame, FrameType, RawFrame};
pub use gop::GopStructure;
pub use midi::{MidiEvent, MidiSink, MidiSource};
pub use stats::TimingStats;
