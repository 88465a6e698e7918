//! Integration tests for the Infopipes middleware: the Fig. 9
//! thread/coroutine allocations, style equivalence, multi-section
//! pipelines, tees, merge buffers, control events, and planner errors.

use infopipes::helpers::{
    ActiveDefrag, ActiveRelay, CollectSink, FnFunction, IdentityFn, IterSource, PullDefrag,
    PullFrag, PushDefrag, PushFrag, RelayConsumer, RelayProducer,
};
use infopipes::{
    ActiveCtx, ActiveObject, ActiveRun, BufferSpec, ClockedPump, ControlEvent, EventCtx, Exec,
    FreePump, Function, Item, Mode, Node, OnEmpty, OnFull, PipeError, Pipeline, Producer, Stage,
    StageCtx,
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

/// Runs ten 4-byte fragments through a defragmenter added by `add`, in
/// push mode (after the pump) or pull mode (before it); returns the
/// output, the plan's thread count and the flow's context switches.
fn run_defrag(
    add: impl for<'p> FnOnce(&'p Pipeline) -> infopipes::Node<'p>,
    pump_before: bool,
) -> (Vec<Vec<u8>>, usize, u64) {
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
        // Count from every thread parked in its main loop, so the
        // switches are the flow's alone.
        kernel.wait_quiescent();
        let before = kernel.stats().context_switches;
        running.start_flow().expect("start");
        running.wait_quiescent();
        let switches = kernel.stats().context_switches - before;
        let collected = out.lock().clone();
        (collected, threads, switches)
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

/// E3 (Figs. 4, 6 and 8) in push mode: every style of defragmenter gives
/// the same output. The consumer matches push mode and is called
/// directly; the producer and the active object each need a coroutine.
#[test]
fn defrag_styles_agree_in_push_mode() {
    let push = run_defrag(|p| p.add_consumer("d", PushDefrag::new()), true);
    let pull = run_defrag(|p| p.add_producer("d", PullDefrag::new()), true);
    let active = run_defrag(|p| p.add_active("d", ActiveDefrag::new()), true);

    let want = expected_defragged();
    assert_eq!(push.0, want, "consumer style in push mode");
    assert_eq!(pull.0, want, "producer style wrapped for push mode");
    assert_eq!(active.0, want, "active style wrapped for push mode");
    // (threads, context switches): a coroutine is handed each of the 10
    // fragments (a `PUT` and its ack, 2 switches), plus 4 per stream.
    assert_eq!((push.1, push.2), (1, 0), "consumer");
    assert_eq!((pull.1, pull.2), (2, 24), "producer");
    assert_eq!((active.1, active.2), (2, 24), "active");
}

/// E3 in pull mode: the producer matches and is called directly; the
/// consumer and the active object each need a coroutine.
#[test]
fn defrag_styles_agree_in_pull_mode() {
    let pull = run_defrag(|p| p.add_producer("d", PullDefrag::new()), false);
    let push = run_defrag(|p| p.add_consumer("d", PushDefrag::new()), false);
    let active = run_defrag(|p| p.add_active("d", ActiveDefrag::new()), false);

    let want = expected_defragged();
    assert_eq!(pull.0, want, "producer style in pull mode");
    assert_eq!(push.0, want, "consumer style wrapped for pull mode");
    assert_eq!(active.0, want, "active style wrapped for pull mode");
    // (threads, context switches): the pump asks a coroutine for each of
    // the 5 whole items (a `GET` and its reply, 2 switches), plus 4 per
    // stream.
    assert_eq!((pull.1, pull.2), (1, 0), "producer");
    assert_eq!((push.1, push.2), (2, 14), "consumer");
    assert_eq!((active.1, active.2), (2, 14), "active");
}

#[test]
fn fragment_then_defragment_round_trips() {
    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 6]).collect();
    let run = |add_frag: &dyn for<'p> Fn(&'p Pipeline) -> Node<'p>| {
        let kernel = virtual_kernel();
        let result = {
            let pipeline = Pipeline::new(&kernel, "frag-defrag");
            let source =
                pipeline.add_producer("source", IterSource::new("source", payloads.clone()));
            let frag = add_frag(&pipeline);
            let pump = pipeline.add_pump("pump", FreePump::new());
            let defrag = pipeline.add_consumer("defrag", PushDefrag::new());
            let (sink, out) = CollectSink::<Vec<u8>>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = source >> frag >> pump >> defrag >> sink;
            let running = pipeline.start().expect("plan");
            let threads = running.report().total_threads();
            running.start_flow().expect("start");
            running.wait_quiescent();
            let collected = out.lock().clone();
            (collected, threads)
        };
        kernel.shutdown();
        result
    };
    // Fig. 4: the fragmenter upstream of the pump, in both styles. The
    // consumer is the easy direction to write but needs a coroutine in
    // pull position; the producer keeps the second half between calls
    // (Fig. 4a's difficulty) and is called directly.
    let (push_out, push_threads) = run(&|p| p.add_consumer("frag", PushFrag::new()));
    let (pull_out, pull_threads) = run(&|p| p.add_producer("frag", PullFrag::new()));
    assert_eq!(push_out, payloads, "consumer style in pull mode");
    assert_eq!(pull_out, push_out, "producer style in pull mode");
    assert_eq!(push_threads, 2);
    assert_eq!(pull_threads, 1);
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
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            for v in self.items.drain(..) {
                if ctx.stopping() {
                    break;
                }
                ctx.put(Item::cloneable(v)).await;
            }
        })
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
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            while let Some(item) = ctx.get().await {
                if let Some(v) = item.payload_ref::<u32>() {
                    self.out.lock().push(*v);
                }
            }
        })
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
fn a_request_taken_after_a_control_event_governs_the_coroutine() {
    // §4: a coroutine's messages carry the constraint of the request it
    // serves. A clocked pump gives every cycle its own deadline, and `Poke`
    // broadcasts an event between items, so each coroutine takes its next
    // GET (pull position) or PUT (push position) after a control message
    // instead of in the operation that answered the previous request.
    use mbthread::{MatchSpec, Message, Tag, ThreadId};
    const UP: Tag = Tag(1);
    const DOWN: Tag = Tag(2);

    struct Tap {
        probe: ThreadId,
        tag: Tag,
    }
    impl Stage for Tap {
        fn name(&self) -> &str {
            "tap"
        }
    }
    impl infopipes::Consumer for Tap {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
            ctx.post(self.probe, Message::signal(self.tag));
            ctx.put(item);
        }
    }
    impl infopipes::ActiveObject for Tap {
        fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
            Box::pin(async move {
                while let Some(item) = ctx.get().await {
                    ctx.post(self.probe, Message::signal(self.tag));
                    ctx.put(item).await;
                }
            })
        }
    }
    struct Poke;
    impl Stage for Poke {
        fn name(&self) -> &str {
            "poke"
        }
    }
    impl infopipes::Consumer for Poke {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
            ctx.broadcast(&ControlEvent::custom("poke", 0.0));
            ctx.put(item);
        }
    }

    let kernel = virtual_kernel();
    {
        let probe = kernel.external("probe");
        let tap = |tag| Tap {
            probe: probe.id(),
            tag,
        };
        let pipeline = Pipeline::new(&kernel, "governed");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..5));
        let up = pipeline.add_consumer("up", tap(UP));
        let pump = pipeline.add_pump("pump", ClockedPump::hz(1000.0));
        let poke = pipeline.add_consumer("poke", Poke);
        let down = pipeline.add_active("down", tap(DOWN));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> up >> pump >> poke >> down >> sink;
        let running = pipeline.start().expect("plan");
        // The pump's thread and one coroutine on each side of it.
        assert_eq!(running.report().total_threads(), 3);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..5).collect::<Vec<u32>>());

        let (mut ups, mut downs) = (Vec::new(), Vec::new());
        while let Some(env) = probe.recv_timeout(&MatchSpec::Any, Duration::from_millis(1)) {
            let deadline = env.constraint().and_then(|c| c.deadline);
            let side = if env.tag() == UP {
                &mut ups
            } else {
                &mut downs
            };
            side.push(deadline);
        }
        // Item n travels in cycle n on both sides, under that cycle's
        // deadline and no other.
        assert_eq!(ups.len(), 5);
        assert_eq!(ups, downs);
        assert!(
            ups.windows(2).all(|w| w[0].is_some() && w[0] < w[1]),
            "one deadline per cycle: {ups:?}"
        );
    }
    kernel.shutdown();
}

#[test]
fn a_stop_broadcast_reaches_a_blocked_polled_coroutine_within_one_hand_off() {
    // §4's receptivity while blocked, for a polled coroutine (item 9's
    // coroutine bound): `c` is blocked in a `PUT` (push position) or a
    // `GET` (pull position) to the active relay `d` when a stage `d` calls
    // directly broadcasts `Stop`. The broadcast cannot preempt `d` (a
    // polled thread gives the CPU away only where it suspends), so `d`
    // gives way at its next suspension point, and the blocked `PUT` or
    // `GET` returns to `c` with the stop heard, after that one hand-off.
    const AT: u32 = 3;
    /// Switch count when the stop was broadcast.
    type Broadcast = Arc<Mutex<Option<u64>>>;
    /// What the first `get` or `put` of `c` to return after the broadcast
    /// saw: whether it heard the stop, and the switch count.
    type Heard = Arc<Mutex<Option<(bool, u64)>>>;

    struct Stopper {
        kernel: Kernel,
        seen: u32,
        broadcast: Broadcast,
    }
    impl Stage for Stopper {}
    impl Stopper {
        fn step(&mut self, ctx: &mut StageCtx<'_, '_>) {
            self.seen += 1;
            if self.seen == AT {
                ctx.broadcast(&ControlEvent::Stop);
                *self.broadcast.lock() = Some(self.kernel.stats().context_switches);
            }
        }
    }
    impl infopipes::Consumer for Stopper {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, _item: Item) {
            self.step(ctx);
        }
    }
    impl Producer for Stopper {
        fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
            self.step(ctx);
            Some(Item::cloneable(self.seen))
        }
    }

    struct Heeds {
        kernel: Kernel,
        broadcast: Broadcast,
        heard: Heard,
    }
    impl Stage for Heeds {}
    impl Heeds {
        fn stopped(&self, ctx: &ActiveCtx<'_, '_>) -> bool {
            let mut heard = self.heard.lock();
            if self.broadcast.lock().is_some() && heard.is_none() {
                *heard = Some((ctx.stopping(), self.kernel.stats().context_switches));
            }
            ctx.stopping()
        }
    }
    impl ActiveObject for Heeds {
        fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
            Box::pin(async move {
                loop {
                    let got = ctx.get().await;
                    let stopped = self.stopped(ctx);
                    let Some(item) = got.filter(|_| !stopped) else {
                        break;
                    };
                    ctx.put(item).await;
                    if self.stopped(ctx) {
                        break;
                    }
                }
            })
        }
    }

    for push in [true, false] {
        let kernel = virtual_kernel();
        let broadcast = Broadcast::default();
        let heard = Heard::default();
        {
            let stopper = Stopper {
                kernel: kernel.clone(),
                seen: 0,
                broadcast: Arc::clone(&broadcast),
            };
            let heeds = Heeds {
                kernel: kernel.clone(),
                broadcast: Arc::clone(&broadcast),
                heard: Arc::clone(&heard),
            };
            let p = Pipeline::new(&kernel, "heeds");
            let pump = p.add_pump("pump", FreePump::new());
            let c = p.add_active("c", heeds);
            let d = p.add_active("d", ActiveRelay::new("d"));
            if push {
                let source = p.add_producer("source", IterSource::new("source", 0u32..10));
                let _ = source >> pump >> c >> d >> p.add_consumer("sink", stopper);
            } else {
                let (sink, _) = CollectSink::<u32>::new("sink");
                let _ = p.add_producer("source", stopper) >> d >> c >> pump;
                let _ = pump >> p.add_consumer("sink", sink);
            }
            let running = p.start().expect("plan");
            let report = running.report().to_string();
            assert_eq!(report.matches("coroutine polled").count(), 2, "{report}");
            running.start_flow().expect("start");
            running.wait_quiescent();
        }
        kernel.shutdown();
        let at = broadcast.lock().expect("the stop was broadcast");
        assert_eq!(*heard.lock(), Some((true, at + 1)), "push position: {push}");
    }
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

#[test]
fn query_spec_rejects_a_cycle_through_a_buffer() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "cycle");
        let buf = pipeline.add_buffer("buf", 4);
        let pump = pipeline.add_pump("pump", FreePump::new());
        let f = pipeline.add_function("f", IdentityFn::new("f"));
        pipeline.connect(buf, pump).unwrap();
        pipeline.connect(pump, f).unwrap();
        pipeline.connect(f, buf).unwrap();
        match pipeline.query_spec(f) {
            Err(PipeError::Type(typespec::TypeError::Rejected(msg))) => {
                assert_eq!(msg, "pipeline graph contains a cycle through 'f'");
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
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
fn a_polled_coroutine_sleeps_on_the_kernel_clock() {
    // A clock-driven active object (§3.1) between the pump and the sink:
    // its coroutine is polled, so its sleep suspends it, and the timer the
    // dispatcher fires under the virtual clock grants it the CPU again.
    struct Pacer;
    impl Stage for Pacer {}
    impl ActiveObject for Pacer {
        fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
            Box::pin(async move {
                while let Some(item) = ctx.get().await {
                    let at = ctx.now() + Duration::from_millis(1);
                    if !ctx.sleep_until(at).await {
                        break;
                    }
                    ctx.put(item).await;
                }
            })
        }
    }
    let kernel = virtual_kernel();
    {
        let clock = kernel.clone();
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&arrivals);
        let p = Pipeline::new(&kernel, "paced");
        let source = p.add_producer("source", IterSource::new("source", 0u32..3));
        let sink = p.add_consumer(
            "sink",
            infopipes::helpers::FnSink::new("sink", move |v: u32, _| {
                log.lock().push((v, clock.now().as_millis()));
            }),
        );
        let _ = source >> p.add_pump("pump", FreePump::new()) >> p.add_active("x", Pacer) >> sink;
        let running = p.start().expect("plan");
        let report = running.report().to_string();
        assert!(report.contains("coroutine polled"), "{report}");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*arrivals.lock(), vec![(0, 1), (1, 2), (2, 3)]);
    }
    kernel.shutdown();
}

#[test]
fn an_active_coroutine_is_polled_only_where_nothing_it_calls_blocks() {
    // Each topology puts one coroutine `x` before or after the pump; the
    // report says how it is backed, and the section's first line how many
    // OS threads carry its kernel threads. Every flow still delivers.
    type Build = fn(&Pipeline, Node<'_>, Node<'_>);
    let cases: [(&str, Build, &str); 6] = [
        // Direct stages that never block: a sink, a function run.
        (
            "polled",
            |p, source, sink| {
                let x = p.add_active("x", ActiveRelay::new("x"));
                let _ = source >> p.add_pump("pump", FreePump::new()) >> x >> sink;
            },
            "2 thread(s) on 1 OS thread(s)",
        ),
        (
            "polled",
            |p, source, sink| {
                let x = p.add_active("x", ActiveRelay::new("x"));
                let f = p.add_function("f", IdentityFn::new("f"));
                let _ = source >> f >> x >> p.add_pump("pump", FreePump::new()) >> sink;
            },
            "2 thread(s) on 1 OS thread(s)",
        ),
        // A buffer right after the run is awaited, not called.
        (
            "polled",
            |p, source, sink| {
                let pump = p.add_pump("pump", FreePump::new());
                let x = p.add_active("x", ActiveRelay::new("x"));
                let buf = p.add_buffer("buf", 2);
                let _ = source >> pump >> x >> buf >> p.add_pump("drain", FreePump::new()) >> sink;
            },
            "2 thread(s) on 1 OS thread(s)",
        ),
        // A consumer `x` calls directly puts into a buffer: that blocks.
        (
            "os-thread",
            |p, source, sink| {
                let pump = p.add_pump("pump", FreePump::new());
                let x = p.add_active("x", ActiveRelay::new("x"));
                let relay = p.add_consumer("relay", RelayConsumer::new("relay"));
                let buf = p.add_buffer("buf", 2);
                let drain = p.add_pump("drain", FreePump::new());
                let _ = source >> pump >> x >> relay >> buf >> drain >> sink;
            },
            "2 thread(s) on 2 OS thread(s)",
        ),
        // So does a producer `x` calls that takes from a buffer.
        (
            "os-thread",
            |p, source, sink| {
                let buf = p.add_buffer("buf", 2);
                let relay = p.add_producer("relay", RelayProducer::new("relay"));
                let x = p.add_active("x", ActiveRelay::new("x"));
                let _ = source >> p.add_pump("fill", FreePump::new()) >> buf >> relay >> x;
                let _ = x >> p.add_pump("pump", FreePump::new()) >> sink;
            },
            "2 thread(s) on 2 OS thread(s)",
        ),
        // A passive component in the opposite polarity needs a real stack.
        (
            "os-thread",
            |p, source, sink| {
                let x = p.add_consumer("x", RelayConsumer::new("x"));
                let _ = source >> x >> p.add_pump("pump", FreePump::new()) >> sink;
            },
            "2 thread(s) on 2 OS thread(s)",
        ),
    ];
    for (backing, build, threads) in cases {
        let kernel = virtual_kernel();
        {
            let p = Pipeline::new(&kernel, "backing");
            let source = p.add_producer("source", IterSource::new("source", 0u32..5));
            let (sink, out) = CollectSink::<u32>::new("sink");
            build(&p, source, p.add_consumer("sink", sink));
            let running = p.start().expect("plan");
            let report = running.report().to_string();
            let line = report
                .lines()
                .find(|l| l.trim_start().starts_with("x "))
                .expect("x is in the report");
            assert!(line.ends_with(&format!("coroutine {backing}")), "{report}");
            assert!(report.contains(threads), "{report}");
            running.start_flow().expect("start");
            running.wait_quiescent();
            assert_eq!(*out.lock(), (0..5).collect::<Vec<u32>>(), "{report}");
        }
        kernel.shutdown();
    }
}

#[test]
fn every_style_delivers_in_either_position_of_a_buffer_fed_section() {
    // The first section ends while its items still sit in the buffer: only
    // the drained, end-marked buffer ends the input of a coroutine in the
    // section below.
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

/// An identity function that logs each item it converts and each control
/// event it is handed.
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
        self.log.lock().push(format!("{}:item", self.name));
        Some(item)
    }
}

/// Broadcasts a `custom` event, which stays queued on the calling thread
/// while an active run goes on.
fn announce(ctx: &mut ActiveCtx<'_, '_>) {
    ctx.broadcast(&ControlEvent::custom("custom", 0.0));
}

/// An active source: its run puts `0..n` and returns, announcing after
/// its first item when `announces` is set.
struct ActiveCount {
    n: u32,
    announces: bool,
}

impl Stage for ActiveCount {}

impl ActiveObject for ActiveCount {
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            for i in 0..self.n {
                ctx.put(Item::cloneable(i)).await;
                if i == 0 && self.announces {
                    announce(ctx);
                }
            }
        })
    }
}

/// An active relay that returns after `limit` items or at the end of its
/// input, announcing after its first item when `announces` is set.
struct ActiveTake {
    limit: usize,
    announces: bool,
}

impl Stage for ActiveTake {}

impl ActiveObject for ActiveTake {
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            for i in 0..self.limit {
                let Some(item) = ctx.get().await else { return };
                ctx.put(item).await;
                if i == 0 && self.announces {
                    announce(ctx);
                }
            }
        })
    }
}

/// What a passive sink collected.
type Collected = Option<Arc<Mutex<Vec<u32>>>>;

/// Builds one topology over three items, its loggers made by the closure;
/// returns what its sink collects, if it has a passive one.
type Topology = fn(&Pipeline, &dyn Fn(&'static str) -> EventLogger) -> Collected;

#[test]
fn eos_reaches_each_stage_once_after_its_last_item() {
    fn sink(p: &Pipeline) -> (Node<'_>, Arc<Mutex<Vec<u32>>>) {
        let (sink, out) = CollectSink::<u32>::new("sink");
        (p.add_consumer("sink", sink), out)
    }
    fn source(p: &Pipeline) -> Node<'_> {
        p.add_producer("source", IterSource::new("source", 0u32..3))
    }
    const PLAIN: &[&str] = &["start", "item", "item", "item", "eos"];
    // An event queued during an active run is heard before `Eos`.
    const ANNOUNCED: &[&str] = &["start", "item", "item", "item", "custom", "eos"];
    // (what, the loggers, each one's log, the topology): every stage is in
    // one thread's tree, and every thread's stream ends once.
    let cases: [(&str, &[&str], &[&str], Topology); 10] = [
        ("a section below a buffer", &["down"], PLAIN, |p, logger| {
            let (p1, p2) = (
                p.add_pump("p1", FreePump::new()),
                p.add_pump("p2", FreePump::new()),
            );
            let down = p.add_function("down", logger("down"));
            let (sink, out) = sink(p);
            let _ = source(p) >> p1 >> p.add_buffer("buffer", 16) >> p2 >> down >> sink;
            Some(out)
        }),
        (
            "an active push-position coroutine",
            &["up", "down"],
            PLAIN,
            |p, logger| {
                let (up, down) = (
                    p.add_function("up", logger("up")),
                    p.add_function("down", logger("down")),
                );
                let (x, (sink, out)) = (add_relay(p, "active", "x"), sink(p));
                let _ = source(p) >> up >> p.add_pump("pump", FreePump::new()) >> x >> down >> sink;
                Some(out)
            },
        ),
        (
            "a producer push-position coroutine",
            &["up", "down"],
            PLAIN,
            |p, logger| {
                let (up, down) = (
                    p.add_function("up", logger("up")),
                    p.add_function("down", logger("down")),
                );
                let (x, (sink, out)) = (add_relay(p, "producer", "x"), sink(p));
                let _ = source(p) >> up >> p.add_pump("pump", FreePump::new()) >> x >> down >> sink;
                Some(out)
            },
        ),
        (
            "a consumer pull-position coroutine",
            &["up"],
            PLAIN,
            |p, logger| {
                let (up, x) = (
                    p.add_function("up", logger("up")),
                    add_relay(p, "consumer", "x"),
                );
                let (sink, out) = sink(p);
                let _ = source(p) >> up >> x >> p.add_pump("pump", FreePump::new()) >> sink;
                Some(out)
            },
        ),
        (
            "an active pull-position coroutine",
            &["up"],
            PLAIN,
            |p, logger| {
                let (up, x) = (
                    p.add_function("up", logger("up")),
                    add_relay(p, "active", "x"),
                );
                let (sink, out) = sink(p);
                let _ = source(p) >> up >> x >> p.add_pump("pump", FreePump::new()) >> sink;
                Some(out)
            },
        ),
        (
            "an announcing active pull-position coroutine",
            &["up"],
            ANNOUNCED,
            |p, logger| {
                let up = p.add_function("up", logger("up"));
                let take = ActiveTake {
                    limit: usize::MAX,
                    announces: true,
                };
                let (sink, out) = sink(p);
                let x = p.add_active("x", take);
                let _ = source(p) >> up >> x >> p.add_pump("pump", FreePump::new()) >> sink;
                Some(out)
            },
        ),
        ("an active-source section", &["down"], PLAIN, |p, logger| {
            let count = ActiveCount {
                n: 3,
                announces: false,
            };
            let (sink, out) = sink(p);
            let _ = p.add_active("source", count) >> p.add_function("down", logger("down")) >> sink;
            Some(out)
        }),
        (
            "an announcing active-source section",
            &["down"],
            ANNOUNCED,
            |p, logger| {
                let count = ActiveCount {
                    n: 3,
                    announces: true,
                };
                let (sink, out) = sink(p);
                let _ =
                    p.add_active("source", count) >> p.add_function("down", logger("down")) >> sink;
                Some(out)
            },
        ),
        ("an active-sink section", &["up"], PLAIN, |p, logger| {
            let x = add_relay(p, "active", "x");
            let _ = source(p) >> p.add_function("up", logger("up")) >> x;
            None
        }),
        // Returning on its own ends an active sink's stream as well.
        (
            "an active-sink section that returns early",
            &["up"],
            &["start", "item", "item", "eos"],
            |p, logger| {
                let take = ActiveTake {
                    limit: 2,
                    announces: false,
                };
                let _ = source(p) >> p.add_function("up", logger("up")) >> p.add_active("x", take);
                None
            },
        ),
    ];
    for (what, loggers, expected, build) in cases {
        let kernel = virtual_kernel();
        {
            let pipeline = Pipeline::new(&kernel, "eos-once");
            let log = Arc::new(Mutex::new(Vec::new()));
            let logger = |name| EventLogger {
                name,
                log: Arc::clone(&log),
            };
            let out = build(&pipeline, &logger);
            let running = pipeline.start().expect("plan");
            let sub = running.subscribe();
            running.start_flow().expect("start");
            assert!(sub.wait_for("eos", Duration::from_secs(5)), "{what}");
            running.wait_quiescent();
            let log = log.lock().clone();
            // Stages on different threads hear `Start` in either order;
            // each stage's own log is exact.
            for name in loggers {
                let own: Vec<&str> = log
                    .iter()
                    .filter_map(|entry| entry.strip_prefix(name)?.strip_prefix(':'))
                    .collect();
                assert_eq!(own, expected, "{what}: {name}");
            }
            assert_eq!(log.len(), expected.len() * loggers.len(), "{what}: {log:?}");
            if let Some(out) = out {
                assert_eq!(*out.lock(), [0, 1, 2], "{what}");
            }
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

/// A run of three function stages on each side of the pump is one run
/// node per side. A control event reaches each of the six stages exactly
/// once: the push-side run in flow order, and the pull-side run, as every
/// pull chain, nearest the owner first.
#[test]
fn an_event_reaches_each_stage_of_a_run_once_in_order() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "run-events");
        let log = Arc::new(Mutex::new(Vec::new()));
        let logger = |name: &'static str| {
            let stage = EventLogger {
                name,
                log: Arc::clone(&log),
            };
            pipeline.add_function(name, stage)
        };
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..3));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source
            >> logger("a")
            >> logger("b")
            >> logger("c")
            >> pipeline.add_pump("pump", FreePump::new())
            >> logger("d")
            >> logger("e")
            >> logger("f")
            >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 1);
        let sub = running.subscribe();
        running.start_flow().expect("start");
        assert!(sub.wait_for("eos", Duration::from_secs(5)));
        running.wait_quiescent();
        running
            .send_event(ControlEvent::custom("poke", 0.0))
            .expect("send");
        running.wait_quiescent();
        let log = log.lock().clone();
        for kind in ["start", "poke", "eos"] {
            let heard: Vec<&str> = log
                .iter()
                .filter_map(|entry| entry.strip_suffix(kind)?.strip_suffix(':'))
                .collect();
            assert_eq!(heard, ["c", "b", "a", "d", "e", "f"], "{kind}: {log:?}");
        }
        assert_eq!(*out.lock(), [0, 1, 2]);
    }
    kernel.shutdown();
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
