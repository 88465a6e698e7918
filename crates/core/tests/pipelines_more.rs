//! Additional middleware scenarios: stacked coroutines, the
//! activity-routing switch, multi-writer EOS, event targeting, and
//! restart semantics.

use infopipes::helpers::{
    ActiveRelay, CollectSink, FnFunction, IterSource, RelayConsumer, RelayProducer,
};
use infopipes::{ControlEvent, FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig};
use std::sync::Arc;

fn virtual_kernel() -> Kernel {
    Kernel::new(KernelConfig::virtual_time())
}

#[test]
fn stacked_coroutines_still_deliver_in_order() {
    // Three style-mismatched stages in a row upstream of the pump: each
    // gets its own coroutine, nested three deep.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "stacked");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..25));
        let c1 = pipeline.add_consumer("c1", RelayConsumer::new("c1"));
        let a2 = pipeline.add_active("a2", ActiveRelay::new("a2"));
        let c3 = pipeline.add_consumer("c3", RelayConsumer::new("c3"));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> c1 >> a2 >> c3 >> pump >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 4);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..25).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

#[test]
fn stacked_push_coroutines_downstream() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "stacked-push");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..25));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let p1 = pipeline.add_producer("p1", RelayProducer::new("p1"));
        let a2 = pipeline.add_active("a2", ActiveRelay::new("a2"));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> p1 >> a2 >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 3);
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..25).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

#[test]
fn multi_reader_buffer_is_an_activity_switch() {
    // §3.3's exception: a switch that routes by *activity* — both
    // out-ports passive, each pull takes the next available item. Two
    // competing consumer sections drain one buffer; together they see
    // every item exactly once.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "switch");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..40));
        let pump_in = pipeline.add_pump("pump-in", FreePump::new());
        let switch = pipeline.add_buffer("switch", 8);
        let pump_a = pipeline.add_pump("pump-a", FreePump::new());
        let pump_b = pipeline.add_pump("pump-b", FreePump::new());
        let (sink_a, out_a) = CollectSink::<u32>::new("a");
        let (sink_b, out_b) = CollectSink::<u32>::new("b");
        let a = pipeline.add_consumer("a", sink_a);
        let b = pipeline.add_consumer("b", sink_b);
        let _ = source >> pump_in >> switch;
        let _ = switch >> pump_a >> a;
        pipeline.connect(switch, pump_b).unwrap();
        let _ = pump_b >> b;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 3);
        running.start_flow().expect("start");
        running.wait_quiescent();
        let got_a = out_a.lock().clone();
        let got_b = out_b.lock().clone();
        let mut all: Vec<u32> = got_a.iter().chain(got_b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<u32>>(), "exactly-once delivery");
        // Each branch sees an ordered subsequence.
        assert!(got_a.windows(2).all(|w| w[0] < w[1]));
        assert!(got_b.windows(2).all(|w| w[0] < w[1]));
    }
    kernel.shutdown();
}

#[test]
fn start_is_idempotent_and_stop_is_final() {
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "idem");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u64..));
        let pump = pipeline.add_pump("pump", infopipes::ClockedPump::hz(1000.0));
        let (sink, out) = CollectSink::<u64>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        // A second Start must not double-schedule ticks.
        running.start_flow().expect("start again");
        std::thread::sleep(std::time::Duration::from_millis(30));
        running.stop().expect("stop");
        running.wait_quiescent();
        let n = out.lock().len();
        assert!(n > 0);
        // No duplicates (double-scheduling would deliver items twice).
        let got = out.lock().clone();
        assert_eq!(got, (0..n as u64).collect::<Vec<u64>>());
        // Start after stop stays stopped (pumps are terminal).
        running.start_flow().expect("send");
        running.wait_quiescent();
        assert_eq!(out.lock().len(), n);
    }
    kernel.shutdown();
}

#[test]
fn adjacent_stage_events_travel_upstream() {
    // §2.2's local control interaction. On a broadcast "poke" only `b`
    // reacts, telling its neighbours "up" and "down"; whoever hears "up"
    // passes it one hop further. `c` is a consumer in pull position, so it
    // and everything upstream of it live on a coroutine thread: "up" skips
    // the pump, crosses that thread boundary, and reaches nobody else.
    use infopipes::{EventCtx, Item, Stage, StageCtx};
    use parking_lot::Mutex;

    struct Hop {
        name: &'static str,
        log: Arc<Mutex<Vec<String>>>,
    }
    impl Stage for Hop {
        fn name(&self) -> &str {
            self.name
        }
        fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, ev: &ControlEvent) {
            match ev.kind_name() {
                "poke" if self.name == "b" => {
                    ctx.send_upstream(&ControlEvent::custom("up", 0.0));
                    ctx.send_downstream(&ControlEvent::custom("down", 0.0));
                }
                kind @ ("up" | "down") => {
                    self.log.lock().push(format!("{}:{kind}", self.name));
                    if kind == "up" {
                        ctx.send_upstream(ev);
                    }
                }
                _ => {}
            }
        }
    }
    impl infopipes::Function for Hop {
        fn convert(&mut self, item: Item) -> Option<Item> {
            Some(item)
        }
    }
    impl infopipes::Consumer for Hop {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
            ctx.put(item);
        }
    }

    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "adjacent");
        let log = Arc::new(Mutex::new(Vec::new()));
        let hop = |name| Hop {
            name,
            log: Arc::clone(&log),
        };
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..5));
        let a = pipeline.add_function("a", hop("a"));
        let c = pipeline.add_consumer("c", hop("c"));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let b = pipeline.add_function("b", hop("b"));
        let d = pipeline.add_function("d", hop("d"));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> a >> c >> pump >> b >> d >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 2);
        running
            .send_event(ControlEvent::custom("poke", 0.0))
            .expect("poke");
        running.wait_quiescent();
        let mut heard = log.lock().clone();
        heard.sort();
        assert_eq!(heard, ["a:up", "c:up", "d:down"]);
        // The flow is none the worse for it.
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), (0..5).collect::<Vec<u32>>());
    }
    kernel.shutdown();
}

#[test]
fn type_conversion_chain_checks_and_runs() {
    // u32 -> u64 -> String through typed FnFunctions: the spec threading
    // must accept this chain and reject a reversed one.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "convert");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..5));
        let widen = pipeline.add_function(
            "widen",
            FnFunction::new("widen", |x: u32| Some(u64::from(x) + 1)),
        );
        let stringify = pipeline.add_function(
            "stringify",
            FnFunction::new("stringify", |x: u64| Some(x.to_string())),
        );
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = CollectSink::<String>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> widen >> stringify >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(
            *out.lock(),
            (1..=5).map(|x| x.to_string()).collect::<Vec<_>>()
        );
    }
    kernel.shutdown();

    // The reversed chain cannot type-check.
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "bad-convert");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..5));
        let stringify = pipeline.add_function(
            "stringify",
            FnFunction::new("stringify", |x: u64| Some(x.to_string())),
        );
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, _) = CollectSink::<String>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> stringify >> pump >> sink;
        assert!(pipeline.start().is_err());
    }
    kernel.shutdown();
}

#[test]
fn dropping_function_in_pull_mode_multiplies_upstream_pulls() {
    // A filter that keeps one item in three, upstream of the pump: each
    // sink delivery costs several source pulls (the Fig. 4b shape).
    let kernel = virtual_kernel();
    {
        let pipeline = Pipeline::new(&kernel, "sieve");
        let source = pipeline.add_producer("source", IterSource::new("source", 0u32..30));
        let sieve = pipeline.add_function(
            "sieve",
            FnFunction::new("sieve", |x: u32| x.is_multiple_of(3).then_some(x)),
        );
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = source >> sieve >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(*out.lock(), vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }
    kernel.shutdown();
}
