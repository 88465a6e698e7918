//! Fragmentation to MTU-sized packets and reassembly, with loss
//! tolerance: a frame missing any packet is discarded whole.
//!
//! Fragmentation is **zero-copy**: each [`Packet`] carries a
//! [`PayloadBytes`] view into the parent frame's allocation
//! ([`PayloadBytes::slice`]), so fragmenting a 100 KiB frame into MTU
//! packets allocates packet headers only — never the payload.

use crate::frame::{CompressedFrame, FrameType};
use infopipes::{BufferPool, Consumer, Item, ItemType, PayloadBytes, Stage, StageCtx};
use serde::{Deserialize, Serialize};
use typespec::{TypeError, Typespec};

/// One network packet of a fragmented frame.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// The frame this packet belongs to.
    pub frame_seq: u64,
    /// Packet index within the frame (0-based).
    pub index: u32,
    /// Total packets in the frame.
    pub count: u32,
    /// The frame's type (so in-network policies could prioritize too).
    pub ftype: FrameType,
    /// Presentation timestamp of the frame.
    pub pts_us: u64,
    /// This packet's slice of the payload — a shared view of the parent
    /// frame's buffer, not a copy.
    pub bytes: PayloadBytes,
}

/// Splits compressed frames into packets of at most `mtu` payload bytes
/// (push style — the natural direction for a fragmenter, §3.3).
pub struct Fragmenter {
    mtu: usize,
}

impl Fragmenter {
    /// Creates a fragmenter with the given MTU.
    ///
    /// # Panics
    ///
    /// Panics if `mtu` is zero.
    #[must_use]
    pub fn new(mtu: usize) -> Fragmenter {
        assert!(mtu > 0, "MTU must be positive");
        Fragmenter { mtu }
    }
}

impl Stage for Fragmenter {
    fn name(&self) -> &str {
        "fragmenter"
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<CompressedFrame>())
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        Ok(input.clone().map_item(ItemType::of::<Packet>()))
    }
}

impl Consumer for Fragmenter {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let meta = item.meta;
        let frame = item.expect::<CompressedFrame>();
        // `chunks_shared` views share the frame's allocation: the
        // fragmenter emits N packets and zero payload copies. It yields
        // one (empty) chunk for an empty frame, hence the `max`.
        let count = frame.data.len().div_ceil(self.mtu).max(1);
        let count = u32::try_from(count).unwrap_or(u32::MAX);
        for (i, chunk) in frame.data.chunks_shared(self.mtu).enumerate() {
            let pkt = Packet {
                frame_seq: frame.seq,
                index: u32::try_from(i).unwrap_or(u32::MAX),
                count,
                ftype: frame.ftype,
                pts_us: frame.pts_us,
                bytes: chunk,
            };
            let mut out = Item::cloneable(pkt);
            out.meta = meta;
            ctx.put(out);
        }
    }
}

/// Reassembles packets into frames (push style). A frame with missing or
/// out-of-order-lost packets is discarded when the next frame begins.
pub struct Defragmenter {
    current: Option<PartialFrame>,
    /// Where multi-packet frames are reassembled: recycled buffers, so a
    /// warm reassembly allocates nothing.
    pool: BufferPool,
    /// Frames discarded because packets were lost.
    pub incomplete_dropped: u64,
}

/// The most fragment slots a frame's first packet may reserve: `count`
/// comes off the wire and must not size an allocation by itself. Longer
/// frames grow the list as their packets actually arrive.
const RESERVED_PARTS_MAX: usize = 64;

struct PartialFrame {
    frame_seq: u64,
    count: u32,
    ftype: FrameType,
    pts_us: u64,
    got: u32,
    /// Received fragments, in order (shared views, not copies).
    parts: Vec<PayloadBytes>,
}

impl PartialFrame {
    /// Joins the fragments into one payload. A single-fragment frame is
    /// returned as the fragment's own view (no copy); multi-fragment
    /// frames are concatenated into one buffer from `pool` — the single
    /// reassembly copy a scatter of packets fundamentally needs.
    fn assemble(self, pool: &BufferPool) -> PayloadBytes {
        if let [only] = &self.parts[..] {
            return only.clone();
        }
        let total: usize = self.parts.iter().map(PayloadBytes::len).sum();
        let mut out = pool.acquire(total);
        for p in &self.parts {
            out.buf_mut().extend_from_slice(p);
        }
        out.seal()
    }
}

impl Defragmenter {
    /// Creates an empty reassembler.
    #[must_use]
    pub fn new() -> Defragmenter {
        Defragmenter {
            current: None,
            pool: BufferPool::new(),
            incomplete_dropped: 0,
        }
    }

    fn flush_incomplete(&mut self) {
        if self.current.take().is_some() {
            self.incomplete_dropped += 1;
        }
    }
}

impl Default for Defragmenter {
    fn default() -> Self {
        Defragmenter::new()
    }
}

impl Stage for Defragmenter {
    fn name(&self) -> &str {
        "defragmenter"
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<Packet>())
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        Ok(input.clone().map_item(ItemType::of::<CompressedFrame>()))
    }
}

impl Consumer for Defragmenter {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let meta = item.meta;
        let pkt = item.expect::<Packet>();

        // A new frame begins: anything unfinished is lost.
        let switch = self
            .current
            .as_ref()
            .is_none_or(|p| p.frame_seq != pkt.frame_seq);
        if switch {
            self.flush_incomplete();
            if pkt.index != 0 {
                // Mid-frame join (head packets lost): unusable.
                self.incomplete_dropped += 1;
                return;
            }
            self.current = Some(PartialFrame {
                frame_seq: pkt.frame_seq,
                count: pkt.count,
                ftype: pkt.ftype,
                pts_us: pkt.pts_us,
                got: 0,
                parts: Vec::with_capacity((pkt.count as usize).min(RESERVED_PARTS_MAX)),
            });
        }
        let Some(cur) = self.current.as_mut() else {
            return;
        };
        if pkt.index != cur.got {
            // A gap inside the frame: discard it.
            self.flush_incomplete();
            return;
        }
        cur.parts.push(pkt.bytes);
        cur.got += 1;
        if cur.got == cur.count {
            let done = self.current.take().expect("current frame exists");
            let frame = CompressedFrame {
                seq: done.frame_seq,
                pts_us: done.pts_us,
                ftype: done.ftype,
                data: done.assemble(&self.pool),
            };
            let mut out = Item::cloneable(frame);
            out.meta = meta;
            ctx.put(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::synth_payload;
    use infopipes::helpers::{CollectSink, IterSource};
    use infopipes::{FreePump, Pipeline};
    use mbthread::{Kernel, KernelConfig};

    fn frame(seq: u64, size: usize) -> CompressedFrame {
        CompressedFrame {
            seq,
            pts_us: seq * 1000,
            ftype: crate::GopStructure::ibbp().frame_type(seq),
            data: synth_payload(seq, size),
        }
    }

    fn run_frag_defrag(
        frames: Vec<CompressedFrame>,
        mtu: usize,
        lose: impl Fn(&Packet) -> bool + Clone + Send + 'static,
    ) -> Vec<CompressedFrame> {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let out_frames = {
            let pipeline = Pipeline::new(&kernel, "frag");
            let src = pipeline.add_producer("src", IterSource::new("src", frames));
            let pump = pipeline.add_pump("pump", FreePump::new());
            let frag = pipeline.add_consumer("frag", Fragmenter::new(mtu));
            let lossy =
                pipeline.add_function(
                    "lossy",
                    infopipes::helpers::FnFunction::new("lossy", move |p: Packet| {
                        if lose(&p) {
                            None
                        } else {
                            Some(p)
                        }
                    }),
                );
            let defrag = pipeline.add_consumer("defrag", Defragmenter::new());
            let (sink, out) = CollectSink::<CompressedFrame>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = src >> pump >> frag >> lossy >> defrag >> sink;
            let running = pipeline.start().unwrap();
            running.start_flow().unwrap();
            running.wait_quiescent();
            let v = out.lock().clone();
            v
        };
        kernel.shutdown();
        out_frames
    }

    #[test]
    fn lossless_fragmentation_round_trips() {
        let frames: Vec<CompressedFrame> = (0..6).map(|s| frame(s, 100)).collect();
        let got = run_frag_defrag(frames.clone(), 32, |_| false);
        assert_eq!(got, frames);
    }

    #[test]
    fn mtu_larger_than_frame_is_one_packet() {
        let frames = vec![frame(0, 10)];
        let got = run_frag_defrag(frames.clone(), 1000, |_| false);
        assert_eq!(got, frames);
    }

    #[test]
    fn losing_one_packet_discards_only_that_frame() {
        let frames: Vec<CompressedFrame> = (0..4).map(|s| frame(s, 100)).collect();
        // Lose packet 1 of frame 2.
        let got = run_frag_defrag(frames.clone(), 32, |p| p.frame_seq == 2 && p.index == 1);
        let seqs: Vec<u64> = got.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
        // The surviving frames are byte-identical.
        assert_eq!(got[0], frames[0]);
        assert_eq!(got[2], frames[3]);
    }

    #[test]
    fn losing_head_packet_discards_the_frame() {
        let frames: Vec<CompressedFrame> = (0..3).map(|s| frame(s, 100)).collect();
        let got = run_frag_defrag(frames, 32, |p| p.frame_seq == 1 && p.index == 0);
        let seqs: Vec<u64> = got.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    fn empty_frames_survive_fragmentation() {
        let frames = vec![CompressedFrame {
            seq: 0,
            pts_us: 0,
            ftype: crate::FrameType::I,
            data: infopipes::PayloadBytes::new(),
        }];
        let got = run_frag_defrag(frames.clone(), 16, |_| false);
        assert_eq!(got, frames);
    }

    #[test]
    fn fragments_share_the_parent_frame_allocation() {
        // Drive the fragmenter directly and check aliasing: every packet
        // must view the frame's buffer, at the right offset.
        let f = frame(1, 100);
        let parent = f.data.clone();
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let packets = {
            let pipeline = Pipeline::new(&kernel, "frag-alias");
            let src = pipeline.add_producer("src", IterSource::new("src", vec![f]));
            let pump = pipeline.add_pump("pump", FreePump::new());
            let frag = pipeline.add_consumer("frag", Fragmenter::new(32));
            let (sink, out) = CollectSink::<Packet>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = src >> pump >> frag >> sink;
            let running = pipeline.start().unwrap();
            running.start_flow().unwrap();
            running.wait_quiescent();
            let v = out.lock().clone();
            v
        };
        kernel.shutdown();
        assert_eq!(packets.len(), 4, "100 B at MTU 32 -> 4 packets");
        let mut offset = 0;
        for pkt in &packets {
            assert!(
                pkt.bytes.shares_allocation_with(&parent),
                "packet {} must alias the parent frame",
                pkt.index
            );
            assert_eq!(pkt.bytes.as_ptr(), parent.as_ptr().wrapping_add(offset));
            offset += pkt.bytes.len();
        }
        assert_eq!(offset, 100);
    }

    /// Multi-packet frames reassemble into the defragmenter's pool: one
    /// copy into a recycled buffer, byte-identical, and home again once
    /// the frames drop.
    #[test]
    fn multi_packet_frames_reassemble_into_pooled_buffers() {
        let frames: Vec<CompressedFrame> = (0..6).map(|s| frame(s, 100)).collect();
        let defrag = Defragmenter::new();
        let pool = defrag.pool.clone();
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let got = {
            let pipeline = Pipeline::new(&kernel, "defrag-pool");
            let src = pipeline.add_producer("src", IterSource::new("src", frames.clone()));
            let pump = pipeline.add_pump("pump", FreePump::new());
            let frag = pipeline.add_consumer("frag", Fragmenter::new(32));
            let defrag = pipeline.add_consumer("defrag", defrag);
            let (sink, out) = CollectSink::<CompressedFrame>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = src >> pump >> frag >> defrag >> sink;
            let running = pipeline.start().unwrap();
            running.start_flow().unwrap();
            running.wait_quiescent();
            let v = out.lock().clone();
            v
        };
        kernel.shutdown();
        assert_eq!(got, frames);
        assert!(got.iter().all(|f| f.data.is_pooled()));
        assert!(pool.stats().outstanding > 0);
        drop(got);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn single_packet_frames_reassemble_without_copying() {
        let frames = vec![frame(0, 10)];
        let parent = frames[0].data.clone();
        let got = run_frag_defrag(frames, 1000, |_| false);
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].data.as_ptr(),
            parent.as_ptr(),
            "one-packet frames must come back as the same allocation"
        );
    }
}
