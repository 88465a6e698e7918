//! Cross-crate integration: the paper's §4 local video player, with the
//! jitter buffer of Fig. 1.

use infopipes::{BufferSpec, ClockedPump, FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig};
use media::{DecodeCost, Decoder, DisplaySink, GopStructure, MpegFileSource, Resizer};
use std::time::Duration;

/// The §4 composition: `mpeg_file >> decode >> pump >> display`, all in
/// one section (single thread).
#[test]
fn simple_video_player_plays_every_frame() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        let pipeline = Pipeline::new(&kernel, "player");
        let source = pipeline.add_producer(
            "mpeg-file",
            MpegFileSource::new(GopStructure::ibbp(), 30, 30.0, 1000, 42),
        );
        let decoder = Decoder::new(GopStructure::ibbp(), DecodeCost::free());
        let dec_stats = decoder.stats_handle();
        // The decoder is a consumer used in pull mode: it runs as a
        // coroutine — reused unchanged regardless of position.
        let decode = pipeline.add_consumer("decode", decoder);
        let pump = pipeline.add_pump("pump", ClockedPump::hz(30.0));
        let (display, stats) = DisplaySink::new();
        let sink = pipeline.add_consumer("display", display);
        let _ = source >> decode >> pump >> sink;

        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 2);
        running.start_flow().expect("start");
        running.wait_quiescent();

        let s = stats.lock();
        assert_eq!(s.count(), 30);
        assert_eq!(s.presented, (0..30).collect::<Vec<u64>>());
        assert_eq!(dec_stats.lock().decoded, 30);
        // 30 Hz clocked output in virtual time: presentation jitter is
        // sub-microsecond (the 33⅓ ms period truncates to whole us).
        assert!(s.timing.jitter_us().unwrap() < 1.0);
    }
    kernel.shutdown();
}

/// E5, the jitter-buffer effect (Fig. 1's consumer side): with bursty
/// decode times, adding a buffer plus a clocked output pump removes most
/// presentation jitter. Exact under the virtual clock.
#[test]
fn jitter_buffer_smooths_bursty_decoding() {
    // Decode cost alternates wildly with frame size (I frames are ~8x B
    // frames), so an unbuffered display inherits that variance.
    // Returns the frames shown and their jitter to 0.1 us, as
    // `TimingStats` prints it.
    fn run(with_buffer: bool) -> (usize, String) {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let shown = {
            let pipeline = Pipeline::new(&kernel, "jitter-test");
            let source = pipeline.add_producer(
                "mpeg-file",
                MpegFileSource::new(GopStructure::ibbp(), 60, 30.0, 4000, 7),
            );
            let decoder = Decoder::new(
                GopStructure::ibbp(),
                DecodeCost {
                    base: Duration::from_millis(2),
                    per_kilobyte: Duration::from_millis(4),
                },
            );
            let decode = pipeline.add_consumer("decode", decoder);
            let (display, stats) = DisplaySink::new();
            if with_buffer {
                // decode runs free into the buffer; a clocked pump feeds
                // the display at exactly 30 Hz.
                let pump_in = pipeline.add_pump("pump-in", FreePump::new());
                let buf = pipeline.add_buffer_with("jitter-buf", BufferSpec::bounded(16));
                let pump_out = pipeline.add_pump("pump-out", ClockedPump::hz(30.0));
                let sink = pipeline.add_consumer("display", display);
                let _ = source >> decode >> pump_in >> buf >> pump_out >> sink;
            } else {
                // The display sees frames straight out of the decoder.
                let pump = pipeline.add_pump("pump", FreePump::new());
                let sink = pipeline.add_consumer("display", display);
                let _ = source >> decode >> pump >> sink;
            }
            let running = pipeline.start().expect("plan");
            running.start_flow().expect("start");
            running.wait_quiescent();
            let s = stats.lock();
            (
                s.count(),
                format!("{:.1}", s.timing.jitter_us().unwrap_or(0.0)),
            )
        };
        kernel.shutdown();
        shown
    }

    // Every frame arrives either way; the buffer and the clocked pump cut
    // the jitter about 19-fold.
    assert_eq!(run(false), (60, "10523.4".to_owned()), "unbuffered");
    assert_eq!(run(true), (60, "555.4".to_owned()), "buffered");
}

/// The resizer reacts to window-resize events from the display side
/// (§2.2's local control interaction example).
#[test]
fn resizer_follows_window_resize_events() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        let pipeline = Pipeline::new(&kernel, "resize");
        let source = pipeline.add_producer(
            "mpeg-file",
            MpegFileSource::new(GopStructure::intra_only(), 20, 100.0, 100, 3),
        );
        let decode = pipeline.add_consumer(
            "decode",
            Decoder::new(GopStructure::intra_only(), DecodeCost::free()),
        );
        let (resizer, resize_count) = Resizer::new(640, 480);
        let resize = pipeline.add_function("resize", resizer);
        let pump = pipeline.add_pump("pump", ClockedPump::hz(100.0));
        let (display, stats) = DisplaySink::new();
        let sink = pipeline.add_consumer("display", display);
        let _ = source >> decode >> pump >> resize >> sink;

        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        // Mid-playback, the user resizes the window.
        std::thread::sleep(Duration::from_millis(20));
        running
            .send_event(infopipes::ControlEvent::WindowResize {
                width: 1280,
                height: 720,
            })
            .expect("send");
        running.wait_quiescent();
        assert_eq!(stats.lock().count(), 20);
        assert_eq!(*resize_count.lock(), 1);
    }
    kernel.shutdown();
}

/// §2.2's reference-frame release example: "Communication between the
/// decoder and downstream components must determine when the shared
/// frames can be deleted." The display reports each presented frame via
/// the event service; a release-aware decoder frees its reference copies.
#[test]
fn display_releases_decoder_reference_frames() {
    use infopipes::{ControlEvent, EventCtx, Item, Stage, StageCtx};
    use parking_lot::Mutex;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// A decoder wrapper that retains reference frames until released.
    struct RetainingDecoder {
        inner: media::Decoder,
        held: Arc<Mutex<BTreeSet<u64>>>,
    }
    impl Stage for RetainingDecoder {
        fn name(&self) -> &str {
            "retaining-decoder"
        }
        fn accepts(&self) -> typespec::Typespec {
            typespec::Typespec::with_item_type(infopipes::ItemType::of::<media::CompressedFrame>())
        }
        fn transform_spec(
            &self,
            input: &typespec::Typespec,
        ) -> Result<typespec::Typespec, typespec::TypeError> {
            Ok(input
                .clone()
                .map_item(infopipes::ItemType::of::<media::RawFrame>()))
        }
        fn on_event(&mut self, _ctx: &mut EventCtx<'_, '_>, ev: &ControlEvent) {
            if let ControlEvent::FrameRelease(seq) = ev {
                self.held.lock().remove(seq);
            }
        }
    }
    impl infopipes::Consumer for RetainingDecoder {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
            if let Some(f) = item.payload_ref::<media::CompressedFrame>() {
                if f.ftype.is_reference() {
                    self.held.lock().insert(f.seq);
                }
            }
            infopipes::Consumer::push(&mut self.inner, ctx, item);
        }
    }

    /// A display that releases every frame after presenting it.
    struct ReleasingDisplay;
    impl Stage for ReleasingDisplay {
        fn name(&self) -> &str {
            "releasing-display"
        }
    }
    impl infopipes::Consumer for ReleasingDisplay {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
            if let Some(f) = item.payload_ref::<media::RawFrame>() {
                ctx.broadcast(&ControlEvent::FrameRelease(f.seq));
            }
        }
    }

    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        let pipeline = Pipeline::new(&kernel, "release");
        let source = pipeline.add_producer(
            "mpeg-file",
            MpegFileSource::new(GopStructure::ibbp(), 18, 60.0, 200, 9),
        );
        let held = std::sync::Arc::new(parking_lot::Mutex::new(std::collections::BTreeSet::new()));
        let decode = pipeline.add_consumer(
            "decode",
            RetainingDecoder {
                inner: Decoder::new(GopStructure::ibbp(), DecodeCost::free()),
                held: std::sync::Arc::clone(&held),
            },
        );
        let pump = pipeline.add_pump("pump", ClockedPump::hz(60.0));
        let sink = pipeline.add_consumer("display", ReleasingDisplay);
        let _ = source >> decode >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        // Every reference frame the decoder retained was released by the
        // display's control events.
        assert!(
            held.lock().is_empty(),
            "unreleased frames: {:?}",
            held.lock()
        );
    }
    kernel.shutdown();
}
