//! Frame types: the items of the synthetic video flow.

use infopipes::PayloadBytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// MPEG-style frame classes, ordered by droppability.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// Bidirectional frame: references others, referenced by none —
    /// cheapest to drop.
    B,
    /// Predicted frame: references the previous reference frame and is
    /// itself a reference.
    P,
    /// Intra-coded frame: self-contained; dropping one poisons the whole
    /// group of pictures.
    I,
}

impl FrameType {
    /// Whether later frames may depend on this one.
    #[must_use]
    pub fn is_reference(self) -> bool {
        matches!(self, FrameType::I | FrameType::P)
    }

    /// The drop level at which a [`PriorityDropFilter`](crate::PriorityDropFilter)
    /// (crate::PriorityDropFilter) starts discarding this type:
    /// level ≥ 1 drops B, ≥ 2 drops P, ≥ 3 drops I.
    #[must_use]
    pub(crate) fn drop_threshold(self) -> u8 {
        match self {
            FrameType::B => 1,
            FrameType::P => 2,
            FrameType::I => 3,
        }
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameType::I => "I",
            FrameType::P => "P",
            FrameType::B => "B",
        })
    }
}

/// A compressed video frame as produced by the synthetic encoder.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedFrame {
    /// Stream-wide frame number (decode order).
    pub seq: u64,
    /// Presentation timestamp in microseconds of stream time.
    pub pts_us: u64,
    /// Frame class.
    pub ftype: FrameType,
    /// Compressed payload (synthetic bytes; only the size matters to the
    /// pipeline, but the bytes are real so marshalling is honest). A
    /// shared buffer: cloning a frame, teeing it, or fragmenting it
    /// shares this allocation instead of copying it.
    pub data: PayloadBytes,
}

impl CompressedFrame {
    /// Payload size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.data.len()
    }
}

impl fmt::Display for CompressedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} ({} B @ {} us)",
            self.ftype,
            self.seq,
            self.data.len(),
            self.pts_us
        )
    }
}

/// A decoded (raw) video frame.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawFrame {
    /// Stream-wide frame number.
    pub seq: u64,
    /// Presentation timestamp in microseconds of stream time.
    pub pts_us: u64,
    /// Width in pixels (after any resizing).
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// A checksum standing in for pixel data (decoders are deterministic,
    /// so displays can verify integrity end to end).
    pub checksum: u64,
}

impl fmt::Display for RawFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "raw#{} {}x{}", self.seq, self.width, self.height)
    }
}

/// Deterministic payload bytes for a frame: reproducible without storing
/// real video. Sealed into a shared buffer at creation, so the whole
/// downstream path refcounts it.
#[must_use]
pub(crate) fn synth_payload(seq: u64, size: usize) -> PayloadBytes {
    // A small xorshift keyed by seq: stable across runs and platforms.
    let mut state = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..size)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        })
        .collect()
}

/// The checksum a correct decode of `data` yields.
#[must_use]
pub(crate) fn payload_checksum(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_type_ordering_matches_droppability() {
        assert!(FrameType::B < FrameType::P);
        assert!(FrameType::P < FrameType::I);
        assert_eq!(FrameType::B.drop_threshold(), 1);
        assert_eq!(FrameType::P.drop_threshold(), 2);
        assert_eq!(FrameType::I.drop_threshold(), 3);
        assert!(FrameType::I.is_reference());
        assert!(FrameType::P.is_reference());
        assert!(!FrameType::B.is_reference());
    }

    #[test]
    fn synth_payload_is_deterministic_and_sized() {
        let a = synth_payload(42, 100);
        let b = synth_payload(42, 100);
        let c = synth_payload(43, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert_eq!(payload_checksum(&a), payload_checksum(&b));
        assert_ne!(payload_checksum(&a), payload_checksum(&c));
    }

    #[test]
    fn displays_are_nonempty() {
        let f = CompressedFrame {
            seq: 3,
            pts_us: 100,
            ftype: FrameType::P,
            data: vec![0; 10].into(),
        };
        assert!(f.to_string().contains("P#3"));
        assert_eq!(f.size(), 10);
        let r = RawFrame {
            seq: 3,
            pts_us: 100,
            width: 320,
            height: 240,
            checksum: 0,
        };
        assert!(r.to_string().contains("320x240"));
    }
}
