//! The paper's quantitative claims, one exact test each, and the report
//! binaries.
//!
//! # Claim index
//!
//! Each claim's figures live in its test's assertions; this index names
//! the sentence and the test that gates it.
//!
//! | Claim | The paper | Test |
//! |---|---|---|
//! | E1 | §4: "A context switch between the user level threads takes about 1 µs; the time for a mere function call is two orders of magnitude shorter." | `tests::a_switch_costs_more_than_ten_calls` |
//! | E2 | Fig. 9 and §4: "a), b), and c) [need one thread]; for configurations d), g), and h) there is a set of two coroutines and for e) and f) … three" | `tests::all_fig9_configs_match_the_paper` |
//! | E3 | Figs. 4, 6 and 8: a defragmenter written in any activity style runs in either position; a style that matches its position is called directly | `crates/core/tests/pipelines.rs::defrag_styles_agree_in_push_mode` and `…_pull_mode` |
//! | E4 | Fig. 1: feedback-controlled dropping against arbitrary network dropping | the `fig1_feedback_report` binary (not yet gated) |
//! | E5 | Fig. 1: a jitter buffer and a clocked output pump smooth bursty decoding | `tests/local_player.rs::jitter_buffer_smooths_bursty_decoding` |
//! | E6 | §4: "for pipelines that handle many control events or many small data items such as a MIDI mixer … allocating a thread for each pipeline component would introduce a significant context switching overhead" | `tests::midi_overhead_rows_are_exact` |
//! | E7 | §2.2 and §3.2: control events are handled "with higher priority than potentially long-running data processing" | `tests::control_events_overtake_busy_sections` |
//! | E8 | §4: priority inheritance through the message queue resolves priority inversion | `crates/mbthread/tests/kernel_behavior.rs::priority_inheritance_resolves_inversion` |
//! | E9 | §2.3: "let each pipeline component transform a Typespec on each port to Typespecs on its other ports" | `tests::each_stage_transforms_its_spec_once_per_query` |

use infopipes::helpers::{
    ActiveRelay, CollectSink, IdentityFn, IterSource, RelayConsumer, RelayProducer,
};
use infopipes::{FreePump, Pipeline, PlanReport};
use mbthread::{Kernel, KernelConfig, KernelStats};
use media::{MidiSink, MidiSource};
use std::time::{Duration, Instant};

/// Which of the three slots (upstream, downstream) holds which style in a
/// Fig. 9 configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Pull-style identity relay.
    Producer,
    /// Push-style identity relay.
    Consumer,
    /// Function-style identity.
    Function,
    /// Active-object relay.
    Active,
}

/// One of the paper's Fig. 9 pipeline configurations: two components and
/// a pump in one of three positions.
#[derive(Copy, Clone, Debug)]
pub struct Fig9Config {
    /// The figure's sub-label (a–h).
    pub label: &'static str,
    /// Component styles, upstream to downstream.
    pub components: [Slot; 2],
    /// Index of the pump among the three positions (0 = before both,
    /// 1 = between, 2 = after both).
    pub pump_position: usize,
    /// The thread count the paper's §4 implementation notes prescribe.
    pub expected_threads: usize,
}

/// The eight configurations of Fig. 9 with their expected coroutine-set
/// sizes ("a), b), and c) [need one thread]; for configurations d), g),
/// and h) there is a set of two coroutines and for e) and f) … three").
pub const FIG9: [Fig9Config; 8] = [
    Fig9Config {
        label: "a",
        components: [Slot::Producer, Slot::Consumer],
        pump_position: 1,
        expected_threads: 1,
    },
    Fig9Config {
        label: "b",
        components: [Slot::Function, Slot::Function],
        pump_position: 1,
        expected_threads: 1,
    },
    Fig9Config {
        label: "c",
        components: [Slot::Consumer, Slot::Consumer],
        pump_position: 0,
        expected_threads: 1,
    },
    Fig9Config {
        label: "d",
        components: [Slot::Active, Slot::Function],
        pump_position: 1,
        expected_threads: 2,
    },
    Fig9Config {
        label: "e",
        components: [Slot::Consumer, Slot::Producer],
        pump_position: 1,
        expected_threads: 3,
    },
    Fig9Config {
        label: "f",
        components: [Slot::Active, Slot::Active],
        pump_position: 1,
        expected_threads: 3,
    },
    Fig9Config {
        label: "g",
        components: [Slot::Consumer, Slot::Active],
        pump_position: 0,
        expected_threads: 2,
    },
    Fig9Config {
        label: "h",
        components: [Slot::Consumer, Slot::Producer],
        pump_position: 2,
        expected_threads: 2,
    },
];

/// What one [`run_fig9`] flow did.
#[derive(Debug)]
pub struct Fig9Run {
    /// The configuration's plan.
    pub report: PlanReport,
    /// Items that reached the sink.
    pub delivered: usize,
    /// The kernel-counter delta of the flow alone.
    pub stats: KernelStats,
    /// Real time from starting the flow to its end.
    pub elapsed: Duration,
}

/// Runs one Fig. 9 configuration over `items` integers on a kernel
/// configured by `kernel_cfg`.
#[must_use]
pub fn run_fig9(cfg: &Fig9Config, items: u32, kernel_cfg: KernelConfig) -> Fig9Run {
    let kernel = Kernel::new(kernel_cfg);
    let result = {
        let pipeline = Pipeline::new(&kernel, "fig9");
        let source = pipeline.add_producer("source", IterSource::new("source", 0..items));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);

        let mut nodes = Vec::new();
        for (i, slot) in cfg.components.iter().enumerate() {
            if cfg.pump_position == i {
                nodes.push(pipeline.add_pump("pump", FreePump::new()));
            }
            let name = format!("x{i}");
            nodes.push(match slot {
                Slot::Producer => pipeline.add_producer(&name, RelayProducer::new(&name)),
                Slot::Consumer => pipeline.add_consumer(&name, RelayConsumer::new(&name)),
                Slot::Function => pipeline.add_function(&name, IdentityFn::new(&name)),
                Slot::Active => pipeline.add_active(&name, ActiveRelay::new(&name)),
            });
        }
        if cfg.pump_position >= cfg.components.len() {
            nodes.push(pipeline.add_pump("pump", FreePump::new()));
        }

        let mut prev = source;
        for node in nodes {
            pipeline.connect(prev, node).expect("chain connects");
            prev = node;
        }
        pipeline.connect(prev, sink).expect("sink connects");

        let running = pipeline.start().expect("plan");
        // Every thread `start` spawned parks before the snapshot, so the
        // delta counts the flow alone and repeats exactly.
        kernel.wait_quiescent();
        let before = kernel.stats();
        let started = Instant::now();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let elapsed = started.elapsed();
        let delivered = out.lock().len();
        Fig9Run {
            report: running.report().clone(),
            delivered,
            stats: kernel.stats().delta_since(&before),
            elapsed,
        }
    };
    kernel.shutdown();
    result
}

/// MIDI events per [`run_midi`] chain.
pub const MIDI_EVENTS: u64 = 300;

/// §4's MIDI motivation: "for pipelines that handle many control events or
/// many small data items such as a MIDI mixer … allocating a thread for
/// each pipeline component would introduce a significant context switching
/// overhead." Runs [`MIDI_EVENTS`] events through a pump and `chain_len`
/// identity components — active relays, one kernel thread each, when
/// `per_component_threads`, directly called functions otherwise — on a
/// virtual-time kernel; returns the events delivered and the context
/// switches of the flow.
#[must_use]
pub fn run_midi(chain_len: usize, per_component_threads: bool) -> (usize, u64) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let result = {
        let pipeline = Pipeline::new(&kernel, "midi");
        let src = pipeline.add_producer("src", MidiSource::new(0, MIDI_EVENTS, 100));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = MidiSink::new();
        let sink = pipeline.add_consumer("sink", sink);
        let mut prev = pipeline.connect(src, pump).map(|()| pump).expect("connect");
        for i in 0..chain_len {
            let name = format!("s{i}");
            let node = if per_component_threads {
                pipeline.add_active(&name, ActiveRelay::new(&name))
            } else {
                pipeline.add_function(&name, IdentityFn::new(&name))
            };
            pipeline.connect(prev, node).expect("connect");
            prev = node;
        }
        pipeline.connect(prev, sink).expect("connect");

        let running = pipeline.start().expect("plan");
        // The spawned threads switch their way to their first receive;
        // count from the point where they are all parked there, or the
        // row reads one or two short depending on who ran last.
        kernel.wait_quiescent();
        let before = kernel.stats();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let delta = kernel.stats().delta_since(&before);
        let n = out.lock().len();
        (n, delta.context_switches)
    };
    kernel.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use infopipes::{
        Consumer, ControlEvent, CycleOutcome, EventCtx, Function, Item, Node, Pump, Schedule,
        Stage, StageCtx, TypeError, Typespec,
    };
    use mbthread::Time;
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};

    #[test]
    fn all_fig9_configs_match_the_paper() {
        // (context switches, kernel messages) for 50 items, a–h: per item
        // and coroutine, two switches and two messages (a `GET` or `PUT`
        // and its reply). The rest is per stream: a `Start` per thread, the
        // pump's `TICK`, and the end on the data path (a last `GET`
        // answered `None`, or an `END`). No coroutine is sent an `Eos`.
        const COST: [(u64, u64); 8] = [
            (0, 2),
            (0, 2),
            (0, 2),
            (104, 105),
            (207, 207),
            (207, 207),
            (104, 104),
            (104, 105),
        ];
        for (cfg, (switches, messages)) in FIG9.iter().zip(COST) {
            let run = run_fig9(cfg, 50, KernelConfig::virtual_time());
            assert_eq!(
                run.report.total_threads(),
                cfg.expected_threads,
                "config {}: {}",
                cfg.label,
                run.report
            );
            assert_eq!(run.delivered, 50, "config {} lost items", cfg.label);
            assert_eq!(
                (run.stats.context_switches, run.stats.messages_sent),
                (switches, messages),
                "config {}: (switches, messages)",
                cfg.label
            );
        }
    }

    #[test]
    fn midi_overhead_rows_are_exact() {
        // Direct calls make no switch. A chain of n active relays makes 2
        // per event and relay (a `PUT` and its deferred ack), plus 1 + 3n
        // per stream.
        for (n, switches) in [(1, 604), (2, 1207), (4, 2413), (8, 4825)] {
            assert_eq!(run_midi(n, false), (300, 0), "{n} functions");
            assert_eq!(run_midi(n, true), (300, switches), "{n} active relays");
        }
    }

    /// Real time of one boxed `Function::convert` on [`IdentityFn`], the
    /// call a directly-called stage costs, averaged over `calls`.
    fn call_ns(calls: u32) -> f64 {
        let mut stage: Box<dyn Function> = Box::new(IdentityFn::new("f"));
        let mut item = Some(Item::cloneable(0u64));
        let started = Instant::now();
        for _ in 0..calls {
            item = black_box(stage.convert(item.take().expect("identity keeps the item")));
        }
        started.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
    }

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    /// E1. Configurations: Fig. 9 b (two direct functions), d (an active
    /// relay, a polled coroutine) and h (a passive consumer in pull
    /// position, an OS-backed coroutine). Gates: per item, b makes
    /// exactly 0 switches and d and h exactly 2 (a 100-item flow against
    /// a 50-item one, virtual clock); on the real clock, each backing's ns
    /// per switch (what its median flow adds to b's, per switch) is at
    /// least 10 times the median of one boxed `Function::convert`.
    #[test]
    fn a_switch_costs_more_than_ten_calls() {
        const ITEMS: u32 = 2000;
        const ROUNDS: usize = 7;
        let [_, b, _, d, _, _, _, h] = &FIG9;
        for (cfg, per_item, backing) in [
            (b, 0, "1 thread(s) on 1 OS thread(s)"),
            (d, 2, "2 thread(s) on 1 OS thread(s)"),
            (h, 2, "2 thread(s) on 2 OS thread(s)"),
        ] {
            let short = run_fig9(cfg, 50, KernelConfig::virtual_time());
            let long = run_fig9(cfg, 100, KernelConfig::virtual_time());
            assert!(
                short.report.to_string().contains(backing),
                "{}",
                short.report
            );
            assert_eq!(
                long.stats.context_switches - short.stats.context_switches,
                50 * per_item,
                "config {}: switches per item",
                cfg.label
            );
        }

        // Medians over rounds of one call and of each configuration's
        // flow, taken apart so that a round slowed by the tests running
        // beside this one moves neither much.
        let mut calls = Vec::new();
        let mut flows: [Vec<f64>; 3] = Default::default();
        for _ in 0..ROUNDS {
            calls.push(call_ns(100_000));
            for (cfg, ns) in [b, d, h].into_iter().zip(&mut flows) {
                let run = run_fig9(cfg, ITEMS, KernelConfig::default());
                ns.push(run.elapsed.as_secs_f64() * 1e9);
            }
        }
        let call = median(calls);
        let [base, polled, os] = flows.map(median);
        // Two switches per item, as gated above; the 4 per stream are left
        // in the numerator.
        let per_switch = |flow: f64| (flow - base) / f64::from(2 * ITEMS);
        let (polled, os) = (per_switch(polled), per_switch(os));
        println!(
            "E1: call {call:.1} ns; switch {polled:.0} ns polled ({:.0}x), \
             {os:.0} ns OS-backed ({:.0}x)",
            polled / call,
            os / call
        );
        assert!(
            polled >= 10.0 * call,
            "polled switch {polled:.0} ns, call {call:.1} ns"
        );
        assert!(
            os >= 10.0 * call,
            "OS-backed switch {os:.0} ns, call {call:.1} ns"
        );
    }

    /// Items per busy section in [`control_latency`].
    const BUSY_ITEMS: u64 = 32;
    /// Busy sections in [`control_latency`].
    const BUSY_SECTIONS: u64 = 4;
    /// The item of the first busy section after which it broadcasts.
    const PROBE_AFTER: u64 = 8;

    /// Runs its section's first cycle at one fixed virtual time, then
    /// free: busy sections started together are runnable together.
    struct BurstPump;

    impl Pump for BurstPump {
        fn on_start(&mut self, _now: Time) -> Schedule {
            Schedule::At(Time::from_millis(1))
        }

        fn after_cycle(&mut self, _now: &dyn Fn() -> Time, outcome: CycleOutcome) -> Schedule {
            match outcome {
                CycleOutcome::Moved | CycleOutcome::UpstreamEmpty => Schedule::Immediately,
                CycleOutcome::Eos | CycleOutcome::Interrupted => Schedule::Stopped,
            }
        }
    }

    /// A busy section's sink: counts the items it takes into `moved`. The
    /// one holding `sent` broadcasts the probe event after its
    /// [`PROBE_AFTER`]th item and records `moved` then.
    struct BusySink {
        moved: Arc<AtomicU64>,
        sent: Option<Arc<OnceLock<u64>>>,
        taken: u64,
    }

    impl Stage for BusySink {}

    impl Consumer for BusySink {
        fn push(&mut self, ctx: &mut StageCtx<'_, '_>, _item: Item) {
            self.taken += 1;
            let moved = self.moved.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(sent) = self.sent.as_ref().filter(|_| self.taken == PROBE_AFTER) {
                let _ = sent.set(moved);
                ctx.broadcast(&ControlEvent::custom("probe", 0.0));
            }
        }
    }

    /// Records `moved` when its handler first hears the probe event.
    struct Probe {
        moved: Arc<AtomicU64>,
        seen: Arc<OnceLock<u64>>,
    }

    impl Stage for Probe {
        fn on_event(&mut self, _ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
            if event.kind_name() == "probe" {
                let _ = self.seen.set(self.moved.load(Ordering::Relaxed));
            }
        }
    }

    impl Consumer for Probe {
        fn push(&mut self, _ctx: &mut StageCtx<'_, '_>, _item: Item) {}
    }

    /// The data items [`BUSY_SECTIONS`] free-running sections move between
    /// a broadcast from the first of them and the handler of an idle
    /// section. Every thread is parked in its main loop before `Start`
    /// goes out, so the sections arm their first cycles in the order they
    /// were added; the virtual clock is held until all have, so they
    /// start at one instant in that order, and the count repeats exactly.
    fn control_latency(priority_scheduling: bool) -> u64 {
        // A broadcast event lands in every thread's queue; with
        // queue-based inheritance it would raise the busy sections too,
        // which hides the scheduling policy this compares.
        let kernel = Kernel::new(KernelConfig {
            priority_scheduling,
            priority_inheritance: false,
            ..KernelConfig::virtual_time()
        });
        let count = {
            let pipeline = Pipeline::new(&kernel, "control-latency");
            let moved = Arc::new(AtomicU64::new(0));
            let (sent, seen) = (Arc::new(OnceLock::new()), Arc::new(OnceLock::new()));
            for i in 0..BUSY_SECTIONS {
                let name = format!("busy{i}");
                let src = pipeline.add_producer(&name, IterSource::new(&name, 0..BUSY_ITEMS));
                let pump = pipeline.add_pump(&format!("{name}-pump"), BurstPump);
                let sink = BusySink {
                    moved: Arc::clone(&moved),
                    sent: (i == 0).then(|| Arc::clone(&sent)),
                    taken: 0,
                };
                let sink = pipeline.add_consumer(&format!("{name}-sink"), sink);
                let _ = src >> pump >> sink;
            }
            let idle = pipeline.add_producer("idle", IterSource::new("idle", 0u64..0));
            let pump = pipeline.add_pump("idle-pump", FreePump::new());
            let probe = Probe {
                moved: Arc::clone(&moved),
                seen: Arc::clone(&seen),
            };
            let probe = pipeline.add_consumer("probe", probe);
            let _ = idle >> pump >> probe;

            let running = pipeline.start().expect("plan");
            kernel.wait_quiescent();
            let hold = kernel.freeze_clock();
            running.start_flow().expect("start");
            hold.release();
            running.wait_quiescent();
            assert_eq!(moved.load(Ordering::Relaxed), BUSY_SECTIONS * BUSY_ITEMS);
            let (sent, seen) = (sent.get().expect("sent"), seen.get().expect("handled"));
            seen - sent
        };
        kernel.shutdown();
        count
    }

    /// E7. Configuration: [`BUSY_SECTIONS`] sections each moving
    /// [`BUSY_ITEMS`] items with no pause; the first broadcasts an event
    /// after its [`PROBE_AFTER`]th item to an idle section's stage; queue
    /// inheritance off. Gate: the data items moved between the broadcast
    /// and the handler, exactly. With priority scheduling none: the
    /// broadcasting section is preempted at the end of its cycle and the
    /// handler runs first. With the FIFO ablation every item still to
    /// move: no thread is more urgent than another, so none is preempted,
    /// and the broadcasting section and every section queued ahead of the
    /// handler run to their ends before it gets the CPU.
    #[test]
    fn control_events_overtake_busy_sections() {
        assert_eq!(
            (control_latency(true), control_latency(false)),
            (0, BUSY_SECTIONS * BUSY_ITEMS - PROBE_AFTER),
            "(priority, FIFO)"
        );
    }

    /// An identity function counting its `transform_spec` calls.
    struct SpecCounter(Arc<AtomicU32>);

    impl SpecCounter {
        fn new(calls: &mut Vec<Arc<AtomicU32>>) -> SpecCounter {
            calls.push(Arc::new(AtomicU32::new(0)));
            SpecCounter(Arc::clone(calls.last().expect("just pushed")))
        }
    }

    impl Stage for SpecCounter {
        fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(input.clone())
        }
    }

    impl Function for SpecCounter {
        fn convert(&mut self, item: Item) -> Option<Item> {
            Some(item)
        }
    }

    /// Builds `source → pump → … → sink`, `build` adding the middle after
    /// the node it is given and returning its last node, then asserts
    /// that one `query_spec` of the sink and then `start` each run every
    /// counting stage's `transform_spec` exactly once.
    fn assert_spec_once(
        shape: &str,
        build: impl for<'p> FnOnce(&'p Pipeline, Node<'p>, &mut Vec<Arc<AtomicU32>>) -> Node<'p>,
    ) {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        {
            let pipeline = Pipeline::new(&kernel, shape);
            let src = pipeline.add_producer("src", IterSource::new("src", 0u64..1));
            let pump = pipeline.add_pump("pump", FreePump::new());
            let sink = pipeline.add_consumer("sink", CollectSink::<u64>::new("sink").0);
            let mut calls = Vec::new();
            pipeline.connect(src, pump).expect("connect");
            let last = build(&pipeline, pump, &mut calls);
            pipeline.connect(last, sink).expect("connect");
            let counts =
                || -> Vec<u32> { calls.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
            pipeline.query_spec(sink).expect("specs meet");
            assert_eq!(counts(), vec![1; calls.len()], "{shape}: after the query");
            let _running = pipeline.start().expect("plan");
            assert_eq!(counts(), vec![2; calls.len()], "{shape}: after start");
        }
        kernel.shutdown();
    }

    /// E9. Configurations: a chain of 64 counting functions, and a ladder
    /// of 16 diamonds (a tee, a counting function on each branch, both
    /// into one buffer, a pump). Gate: `Pipeline::query_spec` and
    /// `Pipeline::start` each run every stage's `transform_spec` exactly
    /// once, so checking costs one transformation per stage however the
    /// branches meet.
    #[test]
    fn each_stage_transforms_its_spec_once_per_query() {
        assert_spec_once("chain", |p, mut prev, calls| {
            for i in 0..64 {
                let f = p.add_function(&format!("f{i}"), SpecCounter::new(calls));
                p.connect(prev, f).expect("connect");
                prev = f;
            }
            prev
        });
        assert_spec_once("ladder", |p, mut prev, calls| {
            for d in 0..16 {
                let tee = p.add_multicast(&format!("tee{d}"));
                let buf = p.add_buffer(&format!("buf{d}"), 4);
                p.connect(prev, tee).expect("connect");
                for side in ["a", "b"] {
                    let f = p.add_function(&format!("f{d}{side}"), SpecCounter::new(calls));
                    p.connect(tee, f).expect("connect");
                    p.connect(f, buf).expect("connect");
                }
                prev = p.add_pump(&format!("pump{d}"), FreePump::new());
                p.connect(buf, prev).expect("connect");
            }
            prev
        });
    }
}
