//! The send-side congestion loop, end to end: a [`NetSendEnd`] pushed
//! against a saturated inproc link broadcasts its saturation readings, a
//! one-rule [`UnifiedCongestionController`] turns them into `SetDropLevel` commands,
//! and a producer-side [`PriorityDropFilter`] sheds load — the Fig. 1
//! adaptation driven by transport backpressure instead of (only) the
//! consumer's receive rate.

use feedback::readings::SEND_SATURATION;
use feedback::{FeedbackLoop, SignalRule, UnifiedCongestionController};
use infopipes::{ControlEvent, FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig};
use media::{CompressedFrame, GopStructure, MpegFileSource, PriorityDropFilter};
use netpipe::{Acceptor, InProcTransport, Link, Marshal, NetSendEnd, Transport};
use std::time::{Duration, Instant};

#[test]
fn send_saturation_raises_the_drop_level() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        // A 4-frame data lane that nobody drains: the send end sees Saturated
        // and Dropped almost immediately.
        let transport = InProcTransport::with_capacity(4);
        let acceptor = transport.listen("congested").unwrap();
        let link = transport.connect("congested").unwrap();
        let remote_end = acceptor.accept().unwrap();

        let pipeline = Pipeline::new(&kernel, "producer");
        let src = pipeline.add_producer(
            "mpeg-file",
            MpegFileSource::new(GopStructure::ibbp(), 240, 30.0, 2000, 5),
        );
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (filter, filter_stats) = PriorityDropFilter::new();
        let filter = pipeline.add_function("drop-filter", filter);
        let (fb, loop_stats) = FeedbackLoop::event_driven(
            "congestion-loop",
            UnifiedCongestionController::new().with_signal(SignalRule::new(SEND_SATURATION)),
        );
        let fb = pipeline.add_consumer("congestion-loop", fb);
        let marshal = pipeline.add_function("marshal", Marshal::<CompressedFrame>::new("marshal"));
        let send = pipeline.add_consumer(
            "send",
            NetSendEnd::new("send", link.clone()).with_congestion_reports(SEND_SATURATION, 16),
        );
        let _ = src >> pump >> filter >> fb >> marshal >> send;

        let running = pipeline.start().unwrap();
        let events = running.subscribe();
        running.start_flow().unwrap();
        running.wait_quiescent();

        // The link really pushed back...
        let stats = link.stats();
        assert!(
            stats.dropped > 0,
            "the tiny lane must shed frames: {stats:?}"
        );
        // ...the send end turned that into readings the loop consumed...
        let ls = *loop_stats.lock();
        assert!(
            ls.readings >= 1,
            "saturation readings must reach the loop: {ls:?}"
        );
        assert!(ls.commands >= 1, "the controller must escalate: {ls:?}");
        // ...and the drop filter actually moved off level 0 and shed load.
        let fs = *filter_stats.lock();
        assert!(
            fs.level >= 1,
            "drop level must rise under congestion: {fs:?}"
        );
        assert!(
            fs.dropped > 0,
            "the filter must shed frames at level >= 1: {fs:?}"
        );

        // The SetDropLevel command is visible to external subscribers too.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_cmd = false;
        while Instant::now() < deadline {
            match events.recv_timeout(Duration::from_millis(50)) {
                Some(ControlEvent::SetDropLevel(l)) if l >= 1 => {
                    saw_cmd = true;
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert!(saw_cmd, "SetDropLevel must be broadcast pipeline-wide");

        // The saturation reading is a local-loop signal: it must NOT be
        // forwarded over the (congested) link to the remote side.
        loop {
            match remote_end.recv(Duration::from_millis(100)) {
                netpipe::RecvOutcome::Frame(netpipe::Frame::Event(ev)) => {
                    if let ControlEvent::Custom { name, .. } = &ev {
                        assert_ne!(
                            name.as_ref(),
                            SEND_SATURATION,
                            "the send end's own congestion reading leaked onto the wire"
                        );
                    }
                }
                netpipe::RecvOutcome::Frame(_) => {}
                _ => break,
            }
        }
    }
    kernel.shutdown();
}
