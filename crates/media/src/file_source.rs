//! The `mpeg_file` source of the paper's §4 example, synthesized: a
//! passive producer yielding a deterministic compressed stream.

use crate::frame::{synth_payload, CompressedFrame};
use crate::gop::GopStructure;
use infopipes::{Item, ItemType, Producer, Stage, StageCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use typespec::{QosKey, QosRange, Typespec};

/// A synthetic "MPEG file": produces `frame_count` compressed frames with
/// GOP structure, realistic relative sizes (I ≫ P > B), and presentation
/// timestamps at the configured frame rate. Passive pull-style, like a
/// file read.
pub struct MpegFileSource {
    gop: GopStructure,
    frame_count: u64,
    fps: f64,
    base_size: usize,
    next: u64,
    rng: StdRng,
}

impl MpegFileSource {
    /// Opens a synthetic file of `frame_count` frames at `fps`.
    ///
    /// `base_size` is the nominal P-frame size in bytes; I frames are
    /// about 4x, B frames about half, each with ±25 % deterministic
    /// jitter from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive or `base_size` is zero.
    #[must_use]
    pub fn new(
        gop: GopStructure,
        frame_count: u64,
        fps: f64,
        base_size: usize,
        seed: u64,
    ) -> MpegFileSource {
        assert!(fps > 0.0 && fps.is_finite(), "fps must be positive");
        assert!(base_size > 0, "base_size must be positive");
        MpegFileSource {
            gop,
            frame_count,
            fps,
            base_size,
            next: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The GOP structure of the stream.
    #[must_use]
    pub fn gop(&self) -> GopStructure {
        self.gop
    }

    /// Generates the frame at position `seq` (also usable without a
    /// pipeline, e.g. to precompute expected outputs in tests).
    #[must_use]
    pub(crate) fn frame_at(&mut self, seq: u64) -> CompressedFrame {
        let ftype = self.gop.frame_type(seq);
        let nominal = match ftype {
            crate::FrameType::I => self.base_size * 4,
            crate::FrameType::P => self.base_size,
            crate::FrameType::B => self.base_size / 2,
        }
        .max(8);
        // ±25 % size jitter, deterministic via the seeded rng.
        let jitter = self.rng.random_range(0.75..=1.25);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let size = ((nominal as f64) * jitter) as usize;
        let pts_us = (seq as f64 * 1_000_000.0 / self.fps) as u64;
        CompressedFrame {
            seq,
            pts_us,
            ftype,
            data: synth_payload(seq, size.max(8)),
        }
    }
}

impl Stage for MpegFileSource {
    fn name(&self) -> &str {
        "mpeg-file"
    }

    fn offers(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<CompressedFrame>())
            .with_qos(QosKey::FrameRateHz, QosRange::exactly(self.fps))
            .with_prop("codec", "synthetic-mpeg")
    }
}

impl Producer for MpegFileSource {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        if self.next >= self.frame_count {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        let frame = self.frame_at(seq);
        Some(Item::cloneable(frame).with_seq(seq).with_ts(ctx.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameType;

    #[test]
    fn frames_follow_the_gop_and_size_model() {
        let mut src = MpegFileSource::new(GopStructure::ibbp(), 18, 30.0, 1000, 7);
        let frames: Vec<CompressedFrame> = (0..18).map(|s| src.frame_at(s)).collect();
        // Types follow the pattern.
        for f in &frames {
            assert_eq!(f.ftype, GopStructure::ibbp().frame_type(f.seq));
        }
        // I frames are much larger than B frames on average.
        let avg = |t: FrameType| {
            let xs: Vec<usize> = frames
                .iter()
                .filter(|f| f.ftype == t)
                .map(CompressedFrame::size)
                .collect();
            xs.iter().sum::<usize>() as f64 / xs.len() as f64
        };
        assert!(avg(FrameType::I) > 2.0 * avg(FrameType::P));
        assert!(avg(FrameType::P) > 1.2 * avg(FrameType::B));
        // PTS advances at the frame rate: 33,333 us apart at 30 fps.
        assert_eq!(frames[0].pts_us, 0);
        assert_eq!(frames[1].pts_us, 33_333);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = MpegFileSource::new(GopStructure::ibbp(), 5, 30.0, 500, 11);
        let mut b = MpegFileSource::new(GopStructure::ibbp(), 5, 30.0, 500, 11);
        for s in 0..5 {
            assert_eq!(a.frame_at(s), b.frame_at(s));
        }
    }

    #[test]
    fn offers_carries_rate_and_codec() {
        let src = MpegFileSource::new(GopStructure::ibbp(), 1, 24.0, 100, 0);
        let spec = src.offers();
        assert_eq!(
            spec.qos(&QosKey::FrameRateHz),
            Some(QosRange::exactly(24.0))
        );
        assert_eq!(spec.prop("codec"), Some("synthetic-mpeg"));
    }
}
