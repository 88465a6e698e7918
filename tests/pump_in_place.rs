//! A free-running pump runs cycle after cycle without a kernel message in
//! between, so nothing returns it to its main loop by itself: these tests
//! hold it to what the message per cycle used to give for free. Control
//! events are handled between items (§3.2), a more urgent thread gets the
//! CPU at the next item (when the kernel preempts at all), a stop request
//! ends the flow, and two pumps sharing a blocking buffer still take
//! turns, the same way every run.
//!
//! A pump that never looks up is a hang, so every body runs under
//! [`within`], which fails the test instead.

use infopipes::helpers::{FnSink, IterSource};
use infopipes::{Consumer, ControlEvent, EventCtx, FreePump, Item, Pipeline, Stage, StageCtx};
use mbthread::{
    ClockMode, Ctx, Envelope, Flow, Kernel, KernelConfig, Message, Priority, SpawnOptions, Tag,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const PING: Tag = Tag(1);
const CLOCKS: [ClockMode; 2] = [ClockMode::Real, ClockMode::Virtual];

/// Runs `body` on its own OS thread and fails if it has not finished
/// after `limit`.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress after {limit:?}: the pump never gave way")
        }
    }
}

/// Passes items on; while pushing the one with sequence number `at` it
/// broadcasts a control event.
struct Announcer {
    at: u64,
}

impl Stage for Announcer {
    fn name(&self) -> &str {
        "announcer"
    }
}

impl Consumer for Announcer {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        if item.meta.seq == self.at {
            ctx.broadcast(&ControlEvent::custom("mark", 1.0));
        }
        ctx.put(item);
    }
}

/// Counts items; its event handler notes how many had arrived when the
/// announcer's event was delivered.
struct CountingSink {
    arrived: u64,
    arrived_at_mark: Arc<Mutex<Vec<u64>>>,
}

impl Stage for CountingSink {
    fn name(&self) -> &str {
        "counting-sink"
    }

    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        if event.kind_name() == "mark" {
            self.arrived_at_mark.lock().push(self.arrived);
        }
    }
}

impl Consumer for CountingSink {
    fn push(&mut self, _: &mut StageCtx<'_, '_>, _: Item) {
        self.arrived += 1;
    }
}

/// (a) An event raised while item K is on its way is handled once that
/// item is through and before the next one starts.
#[test]
fn an_event_raised_during_an_item_is_handled_before_the_next_item() {
    const ITEMS: u64 = 5_000;
    const MARKED: u64 = 1_234;
    for clock in CLOCKS {
        within(Duration::from_secs(60), move || {
            let kernel = Kernel::new(KernelConfig {
                clock,
                ..KernelConfig::default()
            });
            let arrived_at_mark = Arc::new(Mutex::new(Vec::new()));
            {
                let pipeline = Pipeline::new(&kernel, "marked");
                let source = pipeline.add_producer("source", IterSource::new("source", 0..ITEMS));
                let pump = pipeline.add_pump("pump", FreePump::new());
                // The K-th item carries sequence number K - 1.
                let announcer = pipeline.add_consumer("announcer", Announcer { at: MARKED - 1 });
                let sink = pipeline.add_consumer(
                    "sink",
                    CountingSink {
                        arrived: 0,
                        arrived_at_mark: Arc::clone(&arrived_at_mark),
                    },
                );
                let _ = source >> pump >> announcer >> sink;
                let running = pipeline.start().expect("plan");
                assert_eq!(running.report().total_threads(), 1);
                running.start_flow().expect("start");
                running.wait_quiescent();
            }
            kernel.shutdown();
            assert_eq!(*arrived_at_mark.lock(), [MARKED], "{clock:?}");
        });
    }
}

/// A `Priority::HIGH` thread that answers every request.
fn spawn_urgent_echo(kernel: &Kernel) -> mbthread::ThreadId {
    kernel
        .spawn(
            SpawnOptions::new("urgent").priority(Priority::HIGH),
            |ctx: &mut Ctx<'_>, env: Envelope| {
                if env.wants_reply() {
                    ctx.reply(&env, Message::signal(PING)).expect("reply");
                }
                Flow::Continue
            },
        )
        .expect("spawn")
}

/// (b) A pump over a source that never ends keeps the CPU busy for good,
/// yet a more urgent thread is served and a stop request gets through.
#[test]
fn a_saturated_pump_gives_way_to_an_urgent_thread_and_to_stop() {
    for clock in CLOCKS {
        within(Duration::from_secs(60), move || {
            let kernel = Kernel::new(KernelConfig {
                clock,
                ..KernelConfig::default()
            });
            let urgent = spawn_urgent_echo(&kernel);
            let arrived = Arc::new(AtomicU64::new(0));
            {
                let pipeline = Pipeline::new(&kernel, "endless");
                let source = pipeline.add_producer("source", IterSource::new("source", 0u64..));
                let pump = pipeline.add_pump("pump", FreePump::new());
                let counter = Arc::clone(&arrived);
                let sink = pipeline.add_consumer(
                    "sink",
                    FnSink::new("sink", move |_: u64, _| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }),
                );
                let _ = source >> pump >> sink;
                let running = pipeline.start().expect("plan");
                assert_eq!(running.report().total_threads(), 1);
                running.start_flow().expect("start");

                let port = kernel.external("main");
                let wait_for_more = |than: u64| {
                    while arrived.load(Ordering::SeqCst) <= than {
                        std::thread::yield_now();
                    }
                };
                wait_for_more(0);
                for _ in 0..100 {
                    let reply = port
                        .send_sync(urgent, Message::signal(PING))
                        .expect("answer");
                    assert_eq!(reply.tag(), PING);
                    // The pump carries on after each answer.
                    wait_for_more(arrived.load(Ordering::SeqCst));
                }
                running.stop().expect("stop");
                running.wait_quiescent();
                let stopped_at = arrived.load(Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(arrived.load(Ordering::SeqCst), stopped_at, "{clock:?}");
            }
            kernel.shutdown();
        });
    }
}

/// Starts `items` items through a direct chain whose sink, at item
/// `hold_at`, keeps the CPU until the test has sent a message to a
/// `Priority::HIGH` thread. Returns how many items had arrived when that
/// thread got to run.
fn arrivals_before_an_urgent_thread_runs(config: KernelConfig, items: u64, hold_at: u64) -> u64 {
    let kernel = Kernel::new(config);
    let arrived = Arc::new(AtomicU64::new(0));
    let seen_by_urgent = Arc::new(AtomicU64::new(0));
    let urgent = {
        let (arrived, seen) = (Arc::clone(&arrived), Arc::clone(&seen_by_urgent));
        kernel
            .spawn(
                SpawnOptions::new("urgent").priority(Priority::HIGH),
                move |_: &mut Ctx<'_>, _: Envelope| {
                    seen.store(arrived.load(Ordering::SeqCst), Ordering::SeqCst);
                    Flow::Continue
                },
            )
            .expect("spawn")
    };
    let (holding, held) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    {
        let pipeline = Pipeline::new(&kernel, "held");
        let source = pipeline.add_producer("source", IterSource::new("source", 0..items));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let counter = Arc::clone(&arrived);
        let sink = pipeline.add_consumer(
            "sink",
            FnSink::new("sink", move |_: u64, seq| {
                if seq == hold_at {
                    holding.send(()).expect("test listens");
                    released.recv().expect("test releases");
                }
                counter.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let _ = source >> pump >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        held.recv().expect("the sink reaches the held item");
        // The pump's thread holds the CPU inside the sink: the message
        // makes the urgent thread runnable and nothing more.
        let port = kernel.external("main");
        port.send(urgent, Message::signal(PING)).expect("send");
        release.send(()).expect("sink waits");
        running.wait_quiescent();
    }
    kernel.shutdown();
    assert_eq!(arrived.load(Ordering::SeqCst), items);
    seen_by_urgent.load(Ordering::SeqCst)
}

/// (b, exactly) A preemptive kernel hands the CPU over at the end of the
/// item during which the urgent thread became runnable.
#[test]
fn a_preemptive_kernel_preempts_the_pump_at_the_next_item() {
    for clock in CLOCKS {
        within(Duration::from_secs(60), move || {
            let config = KernelConfig {
                clock,
                ..KernelConfig::default()
            };
            let seen = arrivals_before_an_urgent_thread_runs(config, 20_000, 700);
            assert_eq!(seen, 701, "{clock:?}");
        });
    }
}

/// (c) Without preemption the urgent thread waits until the pump blocks,
/// which a free pump does only once its source has ended.
#[test]
fn a_non_preemptive_kernel_lets_the_pump_run_until_it_blocks() {
    for clock in CLOCKS {
        within(Duration::from_secs(60), move || {
            let config = KernelConfig {
                clock,
                preemptive: false,
                ..KernelConfig::default()
            };
            let seen = arrivals_before_an_urgent_thread_runs(config, 20_000, 700);
            assert_eq!(seen, 20_000, "{clock:?}");
        });
    }
}

/// Occupies the kernel's CPU with a thread more urgent than any other
/// until the returned sender is used: what the test sends meanwhile is
/// queued, and scheduled from the same state on every run.
fn hold_cpu(kernel: &Kernel) -> mpsc::Sender<()> {
    // Every thread spawned so far has reached its main loop.
    kernel.wait_quiescent();
    let (holding, held) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let gate = kernel
        .spawn(
            SpawnOptions::new("gate").priority(Priority(1_000)),
            move |_: &mut Ctx<'_>, _: Envelope| {
                holding.send(()).expect("test listens");
                released.recv().expect("test releases");
                Flow::Stop
            },
        )
        .expect("spawn");
    let opener = kernel.external("gate-opener");
    opener.send(gate, Message::signal(PING)).expect("send");
    held.recv().expect("the gate gets the CPU");
    release
}

const CAPACITY: usize = 4;

/// One free pump fills a blocking buffer of `CAPACITY` slots and another,
/// of equal priority, drains it. Returns, per arrival at the sink, how
/// many items the source had handed out by then.
fn produced_at_each_arrival(items: u64) -> Vec<u64> {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let produced = Arc::new(AtomicU64::new(0));
    let trace = Arc::new(Mutex::new(Vec::new()));
    {
        let pipeline = Pipeline::new(&kernel, "shared-buffer");
        let counter = Arc::clone(&produced);
        let source = pipeline.add_producer(
            "source",
            IterSource::new(
                "source",
                (0..items).inspect(move |_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            ),
        );
        let pump_in = pipeline.add_pump("pump-in", FreePump::new());
        let buffer = pipeline.add_buffer("buffer", CAPACITY);
        let pump_out = pipeline.add_pump("pump-out", FreePump::new());
        let (produced, trace_in) = (Arc::clone(&produced), Arc::clone(&trace));
        let mut next = 0;
        let sink = pipeline.add_consumer(
            "sink",
            FnSink::new("sink", move |value: u64, _| {
                assert_eq!(value, next, "arrival order");
                next += 1;
                trace_in.lock().push(produced.load(Ordering::SeqCst));
            }),
        );
        let _ = source >> pump_in >> buffer >> pump_out >> sink;
        let running = pipeline.start().expect("plan");
        assert_eq!(running.report().total_threads(), 2);
        // Both pumps find their start event queued when the CPU comes
        // free, however fast this thread sends the two.
        let release = hold_cpu(&kernel);
        running.start_flow().expect("start");
        release.send(()).expect("gate waits");
        running.wait_quiescent();
    }
    kernel.shutdown();
    let trace = trace.lock().clone();
    trace
}

/// (d) Neither pump runs away with the CPU: the filling one blocks on the
/// full buffer, the draining one on the empty buffer, so the source is
/// never further ahead of the sink than the buffer and the two items in
/// flight allow, and the interleaving is the same on every run.
#[test]
fn pumps_sharing_a_blocking_buffer_take_turns_deterministically() {
    const ITEMS: u64 = 5_000;
    within(Duration::from_secs(60), || {
        let first = produced_at_each_arrival(ITEMS);
        assert_eq!(first.len() as u64, ITEMS);
        for (arrived, produced) in (1u64..).zip(&first) {
            let ahead = produced - arrived;
            assert!(
                ahead <= CAPACITY as u64 + 2,
                "the source was {ahead} items ahead at arrival {arrived}"
            );
        }
        assert_eq!(produced_at_each_arrival(ITEMS), first);
    });
}
