//! Integration tests for the Infopipes middleware: the Fig. 9
//! thread/coroutine allocations, style equivalence, multi-section
//! pipelines, tees, merge buffers, control events, and planner errors.

use infopipes::helpers::{
    ActiveDefrag, ActiveRelay, CollectSink, FnFunction, IdentityFn, IterSource, PullDefrag,
    PushDefrag, PushFrag, RelayConsumer, RelayProducer,
};
use infopipes::{
    BufferSpec, ClockedPump, ControlEvent, EventCtx, Exec, FreePump, Function, Item, Mode, Node,
    OnEmpty, OnFull, PipeError, Pipeline, Producer, Stage, StageCtx,
};
use mbthread::{Kernel, KernelConfig};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

fn virtual_kernel() -> Kernel {
    Kernel::new(KernelConfig::virtual_time())
}

fn input() -> Vec<u32> {
    (0..20).collect()
}

/// Runs `build` against a fresh pipeline, starts it, waits for quiescence,
/// and returns what reached the sink plus the planner's thread total.
fn run_collecting(
    build: impl for<'p> FnOnce(&'p Pipeline, infopipes::Node<'p>, infopipes::Node<'p>),
) -> (Vec<u32>, usize) {
    let kernel = virtual_kernel();
    let result = {
        let pipeline = Pipeline::new(&kernel, "test");
        let source = pipeline.add_producer("source", IterSource::new("source", input()));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        build(&pipeline, source, sink);
        let running = pipeline.start().expect("plan");
        let threads = running.report().total_threads();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let collected = out.lock().clone();
        (collected, threads)
    };
    kernel.shutdown();
    result
}

// -------------------------------------------------------------------
// Fig. 9: the eight pipeline configurations and their thread counts
// -------------------------------------------------------------------

#[test]
fn fig9_a_producer_pump_consumer_is_one_thread() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_producer("x", RelayProducer::new("x"));
        let pump = p.add_pump("pump", FreePump::new());
        let y = p.add_consumer("y", RelayConsumer::new("y"));
        let _ = src >> x >> pump >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 1);
}

#[test]
fn fig9_b_function_pump_function_is_one_thread() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_function("x", IdentityFn::new("x"));
        let pump = p.add_pump("pump", FreePump::new());
        let y = p.add_function("y", IdentityFn::new("y"));
        let _ = src >> x >> pump >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 1);
}

#[test]
fn fig9_c_pump_consumer_consumer_is_one_thread() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let pump = p.add_pump("pump", FreePump::new());
        let x = p.add_consumer("x", RelayConsumer::new("x"));
        let y = p.add_consumer("y", RelayConsumer::new("y"));
        let _ = src >> pump >> x >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 1);
}

#[test]
fn fig9_d_active_pump_function_is_two_threads() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_active("x", ActiveRelay::new("x"));
        let pump = p.add_pump("pump", FreePump::new());
        let y = p.add_function("y", IdentityFn::new("y"));
        let _ = src >> x >> pump >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 2);
}

#[test]
fn fig9_e_consumer_pump_producer_is_three_threads() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_consumer("x", RelayConsumer::new("x"));
        let pump = p.add_pump("pump", FreePump::new());
        let y = p.add_producer("y", RelayProducer::new("y"));
        let _ = src >> x >> pump >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 3);
}

#[test]
fn fig9_f_active_pump_active_is_three_threads() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_active("x", ActiveRelay::new("x"));
        let pump = p.add_pump("pump", FreePump::new());
        let y = p.add_active("y", ActiveRelay::new("y"));
        let _ = src >> x >> pump >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 3);
}

#[test]
fn fig9_g_pump_consumer_active_is_two_threads() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let pump = p.add_pump("pump", FreePump::new());
        let x = p.add_consumer("x", RelayConsumer::new("x"));
        let y = p.add_active("y", ActiveRelay::new("y"));
        let _ = src >> pump >> x >> y >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 2);
}

#[test]
fn fig9_h_consumer_producer_pump_is_two_threads() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let x = p.add_consumer("x", RelayConsumer::new("x"));
        let y = p.add_producer("y", RelayProducer::new("y"));
        let pump = p.add_pump("pump", FreePump::new());
        let _ = src >> x >> y >> pump >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 2);
}

// -------------------------------------------------------------------
// Style equivalence: the defragmenter of Figs. 4/6/8 behaves identically
// in every style and position
// -------------------------------------------------------------------

fn run_defrag(
    add: impl for<'p> FnOnce(&'p Pipeline) -> infopipes::Node<'p>,
    pump_before: bool,
) -> (Vec<Vec<u8>>, usize) {
    let kernel = virtual_kernel();
    let result = {
        let pipeline = Pipeline::new(&kernel, "defrag");
        let fragments: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let source = pipeline.add_producer("source", IterSource::new("source", fragments));
        let (sink, out) = CollectSink::<Vec<u8>>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let defrag = add(&pipeline);
        let pump = pipeline.add_pump("pump", FreePump::new());
        if pump_before {
            // Defragmenter in push mode (downstream of the pump).
            let _ = source >> pump >> defrag >> sink;
        } else {
            // Defragmenter in pull mode (upstream of the pump).
            let _ = source >> defrag >> pump >> sink;
        }
        let running = pipeline.start().expect("plan");
        let threads = running.report().total_threads();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let collected = out.lock().clone();
        (collected, threads)
    };
    kernel.shutdown();
    result
}

fn expected_defragged() -> Vec<Vec<u8>> {
    (0..5u8)
        .map(|i| {
            let a = 2 * i;
            let b = 2 * i + 1;
            let mut v = vec![a; 4];
            v.extend_from_slice(&[b; 4]);
            v
        })
        .collect()
}

#[test]
fn defrag_styles_agree_in_push_mode() {
    let (push_out, push_threads) = run_defrag(|p| p.add_consumer("d", PushDefrag::new()), true);
    let (pull_out, pull_threads) = run_defrag(|p| p.add_producer("d", PullDefrag::new()), true);
    let (active_out, active_threads) = run_defrag(|p| p.add_active("d", ActiveDefrag::new()), true);

    let want = expected_defragged();
    assert_eq!(push_out, want, "consumer style in push mode");
    assert_eq!(pull_out, want, "producer style wrapped for push mode");
    assert_eq!(active_out, want, "active style wrapped for push mode");
    // The consumer matches push mode: direct calls. The other two need a
    // coroutine.
    assert_eq!(push_threads, 1);
    assert_eq!(pull_threads, 2);
    assert_eq!(active_threads, 2);
}

#[test]
fn defrag_styles_agree_in_pull_mode() {
    let (pull_out, pull_threads) = run_defrag(|p| p.add_producer("d", PullDefrag::new()), false);
    let (push_out, push_threads) = run_defrag(|p| p.add_consumer("d", PushDefrag::new()), false);
    let (active_out, active_threads) =
        run_defrag(|p| p.add_active("d", ActiveDefrag::new()), false);

    let want = expected_defragged();
    assert_eq!(pull_out, want, "producer style in pull mode");
    assert_eq!(push_out, want, "consumer style wrapped for pull mode");
    assert_eq!(active_out, want, "active style wrapped for pull mode");
    assert_eq!(pull_threads, 1);
    assert_eq!(push_threads, 2);
    assert_eq!(active_threads, 2);
}

#[test]
fn fragment_then_defragment_round_trips() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "frag-defrag");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 6]).collect();
        let source = pipeline.add_producer("source", IterSource::new("source", payloads.clone()));
        let frag = pipeline.add_consumer("frag", PushFrag::new());
        let pump = pipeline.add_pump("pump", FreePump::new());
        let defrag = pipeline.add_consumer("defrag", PushDefrag::new());
        let (sink, out) = CollectSink::<Vec<u8>>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        // frag is a consumer upstream of the pump: it gets a coroutine.
        let _ = source >> frag >> pump >> defrag >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 2);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), payloads);
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Multi-section pipelines, buffers, and timing
// -------------------------------------------------------------------

#[test]
fn two_sections_across_a_buffer() {
    let (out, threads) = run_collecting(|p, src, sink| {
        let pump1 = p.add_pump("pump1", FreePump::new());
        let buf = p.add_buffer("buf", 4);
        let pump2 = p.add_pump("pump2", FreePump::new());
        let _ = src >> pump1 >> buf >> pump2 >> sink;
    });
    assert_eq!(out, input());
    assert_eq!(threads, 2);
}

#[test]
fn clocked_pump_paces_items_in_virtual_time() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "clocked");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..5));
        let pump = pipeline.add_pump("pump", ClockedPump::hz(10.0)); // 100 ms
        let stamps = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stamps2 = Arc::clone(&stamps);

        struct StampSink {
            stamps: Arc<parking_lot::Mutex<Vec<u64>>>,
        }
        impl Stage for StampSink {
            fn name(&self) -> &str {
                "stamp-sink"
            }
        }
        impl infopipes::Consumer for StampSink {
            fn push(&mut self, ctx: &mut StageCtx<'_, '_>, _item: Item) {
                self.stamps.lock().push(ctx.now().as_millis());
            }
        }
        let sink = pipeline.add_consumer("sink", StampSink { stamps: stamps2 });
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        // 10 Hz under the virtual clock: items land at exact 100 ms marks.
        assert_eq!(*stamps.lock(), vec![100, 200, 300, 400, 500]);
    }
    kernel.shutdown();
}

#[test]
fn drop_oldest_buffer_keeps_freshest_items() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "lossy");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..10));
        // Fast producer fills a tiny lossy buffer; slow consumer drains.
        let pump1 = pipeline.add_pump("pump1", ClockedPump::hz(100.0));
        let buf = pipeline.add_buffer_with(
            "buf",
            BufferSpec::bounded(2)
                .on_full(OnFull::DropOldest)
                .on_empty(OnEmpty::ReturnNone),
        );
        let pump2 = pipeline.add_pump("pump2", ClockedPump::hz(10.0));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump1 >> buf >> pump2 >> sink;
        let running = pipeline.start().expect("plan");
        let probe = running.probe("buf").expect("buffer probe");
        running.start_flow().expect("start");
        running.wait_quiescent();
        let got = out.lock().clone();
        // The consumer is 10x slower: most items are dropped, the stream
        // stays ordered, and the last item always survives.
        assert!(got.len() < 10, "drops must occur: {got:?}");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "order kept: {got:?}");
        assert_eq!(*got.last().unwrap(), 9);
        assert!(probe.stats().drops > 0);
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Tees and merges
// -------------------------------------------------------------------

#[test]
fn multicast_tee_copies_to_both_branches() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "multicast");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..6));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let tee = pipeline.add_multicast("tee");
        let (sink_a, out_a) = CollectSink::<u32>::new("a");
        let (sink_b, out_b) = CollectSink::<u32>::new("b");
        let a = pipeline.add_consumer("a", sink_a);
        let b = pipeline.add_consumer("b", sink_b);
        let _ = source >> pump >> tee;
        pipeline.connect(tee, a).unwrap();
        pipeline.connect(tee, b).unwrap();
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 1);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out_a.lock(), (0..6).collect::<Vec<u32>>());
        assert_eq!(*out_b.lock(), (0..6).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

#[test]
fn router_tee_splits_by_predicate() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "router");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..10));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let tee = pipeline.add_router("tee", |item| {
            usize::from(item.payload_ref::<u32>().is_some_and(|v| v % 2 == 1))
        });
        let (sink_even, out_even) = CollectSink::<u32>::new("even");
        let (sink_odd, out_odd) = CollectSink::<u32>::new("odd");
        let even = pipeline.add_consumer("even", sink_even);
        let odd = pipeline.add_consumer("odd", sink_odd);
        let _ = source >> pump >> tee;
        pipeline.connect(tee, even).unwrap();
        pipeline.connect(tee, odd).unwrap();
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out_even.lock(), vec![0, 2, 4, 6, 8]);
        assert_eq!(*out_odd.lock(), vec![1, 3, 5, 7, 9]);
    }
    kernel.shutdown();
}

#[test]
fn merge_buffer_combines_two_flows() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "merge");
        let src_a = pipeline.add_producer("src-a", IterSource::new("src-a", 0u32..5));
        let src_b = pipeline.add_producer("src-b", IterSource::new("src-b", 100u32..105));
        let pump_a = pipeline.add_pump("pump-a", FreePump::new());
        let pump_b = pipeline.add_pump("pump-b", FreePump::new());
        let merge = pipeline.add_buffer("merge", 8);
        let pump_out = pipeline.add_pump("pump-out", FreePump::new());
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = src_a >> pump_a >> merge;
        let _ = src_b >> pump_b >> merge;
        let _ = merge >> pump_out >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 3);
        running.start_flow().expect("start");
        running.wait_quiescent();
        let got = out.lock().clone();
        // All ten items arrive, each source's items in its own order.
        let a: Vec<u32> = got.iter().copied().filter(|v| *v < 100).collect();
        let b: Vec<u32> = got.iter().copied().filter(|v| *v >= 100).collect();
        assert_eq!(a, (0..5).collect::<Vec<u32>>());
        assert_eq!(b, (100..105).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Active endpoints as activity owners
// -------------------------------------------------------------------

struct ActiveSource {
    items: Vec<u32>,
}

impl Stage for ActiveSource {
    fn name(&self) -> &str {
        "active-source"
    }
}

impl infopipes::ActiveObject for ActiveSource {
    fn run(&mut self, ctx: &mut StageCtx<'_, '_>) {
        for v in self.items.drain(..) {
            if ctx.stopping() {
                break;
            }
            ctx.put(Item::cloneable(v));
        }
    }
}

struct ActiveSink {
    out: Arc<parking_lot::Mutex<Vec<u32>>>,
}

impl Stage for ActiveSink {
    fn name(&self) -> &str {
        "active-sink"
    }
}

impl infopipes::ActiveObject for ActiveSink {
    fn run(&mut self, ctx: &mut StageCtx<'_, '_>) {
        while let Some(item) = ctx.get() {
            if let Some(v) = item.payload_ref::<u32>() {
                self.out.lock().push(*v);
            }
        }
    }
}

#[test]
fn active_source_drives_its_section() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "active-src");
        let src = pipeline.add_active(
            "src",
            ActiveSource {
                items: (0..7).collect(),
            },
        );
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = src >> f >> sink;
        let running = pipeline.start().expect("plan");
        // The active source owns the single section: one thread, no pump.
        assert_eq!(running.report().total_threads(), 1);
        assert_eq!(running.report().sections[0].owner_kind, "active-source");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..7).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

#[test]
fn active_sink_pulls_like_an_audio_device() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "active-sink");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..7));
        let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = pipeline.add_active(
            "sink",
            ActiveSink {
                out: Arc::clone(&out),
            },
        );
        let _ = source >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().sections[0].owner_kind, "active-sink");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..7).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Control events
// -------------------------------------------------------------------

#[test]
fn stop_event_halts_an_endless_flow() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "endless");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u64..));
        // 1 kHz pump: would run forever in virtual time without a stop.
        let pump = pipeline.add_pump("pump", ClockedPump::hz(1000.0));
        let (sink, out) = CollectSink::<u64>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        // Let some items through (real time), then stop.
        std::thread::sleep(Duration::from_millis(30));
        running.stop().expect("stop");
        running.wait_quiescent();
        let n = out.lock().len();
        assert!(n > 0, "some items flowed before the stop");
        // After quiescence no more items arrive.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(out.lock().len(), n);
    }
    kernel.shutdown();
}

#[test]
fn set_rate_event_reaches_the_pump() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "rated");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..10));
        let pump = pipeline.add_pump("pump", ClockedPump::hz(10.0));
        let stamps = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stamps2 = Arc::clone(&stamps);
        struct StampSink {
            stamps: Arc<parking_lot::Mutex<Vec<u64>>>,
        }
        impl Stage for StampSink {
            fn name(&self) -> &str {
                "stamps"
            }
        }
        impl infopipes::Consumer for StampSink {
            fn push(&mut self, ctx: &mut StageCtx<'_, '_>, _item: Item) {
                self.stamps.lock().push(ctx.now().as_millis());
                if self.stamps.lock().len() == 2 {
                    // Speed up 10x from inside the pipeline.
                    ctx.broadcast(&ControlEvent::SetRate(100.0));
                }
            }
        }
        let sink = pipeline.add_consumer("sink", StampSink { stamps: stamps2 });
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        let got = stamps.lock().clone();
        assert_eq!(got.len(), 10);
        // First two ticks at 100 ms spacing, the rest at 10 ms.
        assert_eq!(got[0], 100);
        assert_eq!(got[1], 200);
        let later: Vec<u64> = got.windows(2).skip(2).map(|w| w[1] - w[0]).collect();
        assert!(
            later.iter().all(|d| *d == 10),
            "post-SetRate spacing: {later:?}"
        );
    }
    kernel.shutdown();
}

#[test]
fn broadcast_events_reach_stages_in_coroutines() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "events");
        let fragments: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 2]).collect();
        let source = pipeline.add_producer("source", IterSource::new("source", fragments));
        // PushDefrag upstream of the pump: runs as a coroutine and counts
        // WindowResize events it sees.
        let defrag = pipeline.add_consumer("defrag", PushDefrag::new());
        let pump = pipeline.add_pump("pump", ClockedPump::hz(100.0));
        let (sink, out) = CollectSink::<Vec<u8>>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> defrag >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running
            .send_event(ControlEvent::WindowResize {
                width: 640,
                height: 480,
            })
            .expect("event");
        running.wait_quiescent();
        assert_eq!(out.lock().len(), 2);
    }
    kernel.shutdown();
}

#[test]
fn eos_event_reaches_external_subscribers() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "eos");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..3));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, _out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        let sub = running.subscribe();
        running.start_flow().expect("start");
        assert!(sub.wait_for("eos", Duration::from_secs(5)));
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Planner and composition errors
// -------------------------------------------------------------------

#[test]
fn section_without_activity_is_rejected() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "inactive");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        let (sink, _) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> f >> sink;
        match pipeline.start() {
            Err(PipeError::NoActivity { section }) => {
                assert!(section.iter().any(|s| s == "f"), "{section:?}");
            }
            other => panic!("expected NoActivity, got {other:?}"),
        }
    }
    kernel.shutdown();
}

#[test]
fn two_pumps_in_one_section_are_rejected() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "double");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let p1 = pipeline.add_pump("p1", FreePump::new());
        let p2 = pipeline.add_pump("p2", FreePump::new());
        let (sink, _) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        // Adjacent pumps: caught immediately as a polarity clash (+ to +).
        pipeline.connect(source, p1).unwrap();
        let err = pipeline.connect(p1, p2).unwrap_err();
        assert!(matches!(err, PipeError::Type(_)), "{err:?}");
        let _ = sink;
    }
    kernel.shutdown();
}

#[test]
fn pump_and_active_endpoint_in_one_section_are_rejected() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "double2");
        let src = pipeline.add_active("src", ActiveSource { items: vec![1] });
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, _) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = src >> pump >> sink;
        match pipeline.start() {
            Err(PipeError::MultipleActivity { owners }) => {
                assert_eq!(owners.len(), 2, "{owners:?}");
            }
            other => panic!("expected MultipleActivity, got {other:?}"),
        }
    }
    kernel.shutdown();
}

#[test]
fn tee_in_pull_path_is_rejected() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "pull-tee");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let tee = pipeline.add_multicast("tee");
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        let g = pipeline.add_function("g", IdentityFn::new("g"));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink_a, _) = CollectSink::<u32>::new("a");
        let a = pipeline.add_consumer("a", sink_a);
        // The tee feeds a filter that sits upstream of the pump: the tee
        // would have to operate in pull mode, which the planner rejects.
        let _ = source >> tee;
        pipeline.connect(tee, f).unwrap();
        let _ = f >> pump >> a;
        pipeline.connect(tee, g).unwrap();
        match pipeline.start() {
            Err(PipeError::TeeInPullPath { tee }) => assert_eq!(tee, "tee"),
            other => panic!("expected TeeInPullPath, got {other:?}"),
        }
    }
    kernel.shutdown();
}

#[test]
fn item_type_mismatch_is_rejected_at_start() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "mismatch");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let pump = pipeline.add_pump("pump", FreePump::new());
        // The sink expects Strings but the source offers u32.
        let (sink, _) = CollectSink::<String>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> sink;
        match pipeline.start() {
            Err(PipeError::Type(typespec::TypeError::ItemMismatch { .. })) => {}
            other => panic!("expected ItemMismatch, got {other:?}"),
        }
    }
    kernel.shutdown();
}

#[test]
fn stage_ports_cannot_be_connected_twice() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "ports");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        let g = pipeline.add_function("g", IdentityFn::new("g"));
        pipeline.connect(source, f).unwrap();
        let err = pipeline.connect(source, g).unwrap_err();
        assert!(matches!(err, PipeError::PortInUse { .. }), "{err:?}");
    }
    kernel.shutdown();
}

#[test]
fn query_spec_propagates_through_transformations() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "spec");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..1));
        let widen = pipeline.add_function(
            "widen",
            FnFunction::new("widen", |x: u32| Some(u64::from(x))),
        );
        let spec_src = pipeline.query_spec(source).unwrap();
        assert!(spec_src
            .item()
            .compatible_with(&infopipes::ItemType::of::<u32>()));
        let spec_widened = pipeline
            .connect(source, widen)
            .and_then(|()| pipeline.query_spec(widen));
        let spec = spec_widened.unwrap();
        assert!(spec
            .item()
            .compatible_with(&infopipes::ItemType::of::<u64>()));
        assert!(!spec
            .item()
            .compatible_with(&infopipes::ItemType::of::<u32>()));
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Inbox: externally fed flows (the netpipe consumer-side pattern)
// -------------------------------------------------------------------

#[test]
fn inbox_feeds_a_pipeline_from_outside() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "inbox");
        let (inbox, sender) = pipeline.add_inbox("inbox", BufferSpec::bounded(16));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = inbox >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        for v in 0..5u32 {
            assert!(sender.put(Item::cloneable(v)));
        }
        sender.finish();
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..5).collect::<Vec<u32>>());
        assert_eq!(sender.stats().puts, 5);
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// A producer that ends early while upstream continues (coroutine EOS)
// -------------------------------------------------------------------

struct TakeN {
    left: u32,
}

impl Stage for TakeN {
    fn name(&self) -> &str {
        "take-n"
    }
}

impl Producer for TakeN {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        ctx.get()
    }
}

#[test]
fn early_ending_producer_coroutine_propagates_eos() {
    // TakeN in push position becomes a coroutine; when it ends, the
    // upstream keeps pushing (acked and discarded) and the downstream
    // section drains out.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "early");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..100));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let take = pipeline.add_producer("take", TakeN { left: 5 });
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> take >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 2);
        running.start_flow().expect("start");
        running.wait_quiescent();
        let got = out.lock().clone();
        assert_eq!(got, (0..5).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

// -------------------------------------------------------------------
// Thread transparency: every style, every position, every section
// -------------------------------------------------------------------

const STYLES: [&str; 4] = ["producer", "consumer", "function", "active"];

/// Adds an identity relay of the named activity style.
fn add_relay<'p>(p: &'p Pipeline, style: &str, name: &str) -> Node<'p> {
    match style {
        "producer" => p.add_producer(name, RelayProducer::new(name)),
        "consumer" => p.add_consumer(name, RelayConsumer::new(name)),
        "function" => p.add_function(name, IdentityFn::new(name)),
        "active" => p.add_active(name, ActiveRelay::new(name)),
        other => panic!("no such style: {other}"),
    }
}

#[test]
fn exec_table_matches_paper() {
    // Every style once upstream and once downstream of the pump: the
    // report's eight placements are the paper's table, and the chain —
    // five coroutines deep — still delivers.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "table");
        let source = pipeline.add_producer("source", IterSource::new("source", input()));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let mut prev = source;
        for mode in ["pull", "push"] {
            if mode == "push" {
                let pump = pipeline.add_pump("pump", FreePump::new());
                prev = prev >> pump;
            }
            for style in STYLES {
                prev = prev >> add_relay(&pipeline, style, &format!("{style}-{mode}"));
            }
        }
        let _ = prev >> sink;
        let running = pipeline.start().expect("plan");
        let report = running.report();
        let exec_of = |name: &str, mode: Mode| {
            let stages = &report.sections[0].stages;
            let placed = stages.iter().find(|p| p.name == name).expect(name);
            assert_eq!(placed.mode, mode, "{name}");
            placed.exec
        };
        // Pull mode: producer and function direct, consumer and active
        // need coroutines.
        assert_eq!(exec_of("producer-pull", Mode::Pull), Exec::Direct);
        assert_eq!(exec_of("function-pull", Mode::Pull), Exec::Direct);
        assert_eq!(exec_of("consumer-pull", Mode::Pull), Exec::Coroutine);
        assert_eq!(exec_of("active-pull", Mode::Pull), Exec::Coroutine);
        // Push mode: consumer and function direct, producer and active
        // need coroutines.
        assert_eq!(exec_of("consumer-push", Mode::Push), Exec::Direct);
        assert_eq!(exec_of("function-push", Mode::Push), Exec::Direct);
        assert_eq!(exec_of("producer-push", Mode::Push), Exec::Coroutine);
        assert_eq!(exec_of("active-push", Mode::Push), Exec::Coroutine);
        assert_eq!(report.total_threads(), 5);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), input());
    }
    kernel.shutdown();
}

#[test]
fn every_style_delivers_in_either_position_of_a_buffer_fed_section() {
    // The first section announces `Eos` while its items still sit in the
    // buffer. That broadcast informs stages; it must not end the input of
    // a coroutine in the section below.
    for style in STYLES {
        for position in [Mode::Pull, Mode::Push] {
            for clocked in [false, true] {
                let kernel = virtual_kernel();
                {
                    let pipeline = Pipeline::new(&kernel, "buffer-fed");
                    let source =
                        pipeline.add_producer("source", IterSource::new("source", 0u32..6));
                    let feeder = pipeline.add_pump("feeder", FreePump::new());
                    let buffer = pipeline.add_buffer("buffer", 16);
                    let x = add_relay(&pipeline, style, "x");
                    let pump = if clocked {
                        pipeline.add_pump("pump", ClockedPump::hz(10.0))
                    } else {
                        pipeline.add_pump("pump", FreePump::new())
                    };
                    let (sink, out) = CollectSink::<u32>::new("sink");
                    let sink = pipeline.add_consumer("sink", sink);
                    let fed = source >> feeder >> buffer;
                    let _ = match position {
                        Mode::Pull => fed >> x >> pump >> sink,
                        Mode::Push => fed >> pump >> x >> sink,
                    };
                    let running = pipeline.start().expect("plan");
                    running.start_flow().expect("start");
                    running.wait_quiescent();
                    assert_eq!(
                        *out.lock(),
                        (0..6).collect::<Vec<u32>>(),
                        "{style} in {position} position, clocked pump: {clocked}"
                    );
                }
                kernel.shutdown();
            }
        }
    }
}

/// An identity function that logs the control events it is handed.
struct EventLogger {
    name: &'static str,
    log: Arc<Mutex<Vec<String>>>,
}

impl Stage for EventLogger {
    fn name(&self) -> &str {
        self.name
    }
    fn on_event(&mut self, _ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.log
            .lock()
            .push(format!("{}:{}", self.name, event.kind_name()));
    }
}

impl Function for EventLogger {
    fn convert(&mut self, item: Item) -> Option<Item> {
        Some(item)
    }
}

#[test]
fn eos_reaches_each_stage_once_across_a_push_position_coroutine() {
    for style in ["active", "producer"] {
        let kernel = virtual_kernel();
        {
            let pipeline = Pipeline::new(&kernel, "eos-once");
            let log = Arc::new(Mutex::new(Vec::new()));
            let logger = |name| EventLogger {
                name,
                log: Arc::clone(&log),
            };
            let source = pipeline.add_producer("source", IterSource::new("source", 0u32..3));
            let up = pipeline.add_function("up", logger("up"));
            let pump = pipeline.add_pump("pump", FreePump::new());
            let x = add_relay(&pipeline, style, "x");
            let down = pipeline.add_function("down", logger("down"));
            let (sink, out) = CollectSink::<u32>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = source >> up >> pump >> x >> down >> sink;
            let running = pipeline.start().expect("plan");
            running.start_flow().expect("start");
            running.wait_quiescent();
            assert_eq!(*out.lock(), vec![0, 1, 2]);
            let mut log = log.lock().clone();
            log.sort();
            assert_eq!(
                log,
                ["down:eos", "down:start", "up:eos", "up:start"],
                "{style}"
            );
        }
        kernel.shutdown();
    }
}

#[test]
fn an_empty_stream_crosses_a_push_position_coroutine() {
    // The coroutine never sees a `PUT`; the end of the stream must still
    // reach the buffer below it, so that the second section ends too.
    for style in ["active", "producer"] {
        let kernel = virtual_kernel();
        {
            let pipeline = Pipeline::new(&kernel, "empty");
            let source = pipeline.add_producer("source", IterSource::new("source", 0u32..0));
            let p1 = pipeline.add_pump("p1", FreePump::new());
            let x = add_relay(&pipeline, style, "x");
            let buffer = pipeline.add_buffer("buffer", 4);
            let p2 = pipeline.add_pump("p2", FreePump::new());
            let (sink, out) = CollectSink::<u32>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = source >> p1 >> x >> buffer >> p2 >> sink;
            let running = pipeline.start().expect("plan");
            let sub = running.subscribe();
            running.start_flow().expect("start");
            assert!(sub.wait_for("eos", Duration::from_secs(5)), "{style}: p1");
            assert!(sub.wait_for("eos", Duration::from_secs(5)), "{style}: p2");
            running.wait_quiescent();
            assert!(out.lock().is_empty());
        }
        kernel.shutdown();
    }
}

#[test]
fn a_failed_start_spawns_no_thread() {
    // The first section is valid and needs two coroutines; the second has
    // no activity. Every section validates before any thread exists.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "no-threads");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..3));
        let a1 = pipeline.add_active("a1", ActiveRelay::new("a1"));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let a2 = pipeline.add_active("a2", ActiveRelay::new("a2"));
        let buffer = pipeline.add_buffer("buffer", 4);
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        let (sink, _) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> a1 >> pump >> a2 >> buffer >> f >> sink;
        let before = kernel.stats().threads_spawned;
        match pipeline.start() {
            Err(PipeError::NoActivity { section }) => {
                assert!(section.iter().any(|s| s == "f"), "{section:?}");
            }
            other => panic!("expected NoActivity, got {other:?}"),
        }
        assert_eq!(kernel.stats().threads_spawned, before);
    }
    kernel.shutdown();
}
