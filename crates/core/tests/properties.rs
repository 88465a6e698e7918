//! Property-based tests for the middleware core: the planner's allocation
//! rule on arbitrary chains, buffer invariants under arbitrary operation
//! sequences, and pipeline output correctness for random style chains.

use infopipes::helpers::{
    ActiveRelay, CollectSink, IdentityFn, IterSource, RelayConsumer, RelayProducer,
};
use infopipes::{BufferSpec, Exec, FreePump, Mode, OnEmpty, OnFull, Pipeline};
use mbthread::{Kernel, KernelConfig};
use proptest::prelude::*;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum StyleKind {
    Producer,
    Consumer,
    Function,
    Active,
}

fn arb_style() -> impl Strategy<Value = StyleKind> {
    prop_oneof![
        Just(StyleKind::Producer),
        Just(StyleKind::Consumer),
        Just(StyleKind::Function),
        Just(StyleKind::Active),
    ]
}

/// The paper's allocation rule (§3.3), written out here so that the
/// planner is checked against the table and not against itself.
fn expected_exec(style: StyleKind, mode: Mode) -> Exec {
    match (style, mode) {
        (StyleKind::Producer, Mode::Pull) => Exec::Direct,
        (StyleKind::Producer, Mode::Push) => Exec::Coroutine,
        (StyleKind::Consumer, Mode::Pull) => Exec::Coroutine,
        (StyleKind::Consumer, Mode::Push) => Exec::Direct,
        (StyleKind::Function, Mode::Pull) => Exec::Direct,
        (StyleKind::Function, Mode::Push) => Exec::Direct,
        (StyleKind::Active, Mode::Pull) => Exec::Coroutine,
        (StyleKind::Active, Mode::Push) => Exec::Coroutine,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For an arbitrary chain of identity components around one pump, the
    /// planner places every stage as the paper's rule demands, the kernel
    /// spawns exactly the threads the report counts, and the pipeline
    /// still delivers every item in order — in the source's own section
    /// and, `buffer_fed`, in a section downstream of a buffer.
    #[test]
    fn planner_matches_the_rule_on_arbitrary_chains(
        chain in proptest::collection::vec(arb_style(), 0..5),
        pump_at in 0usize..6,
        buffer_fed in any::<bool>(),
    ) {
        let pump_at = pump_at.min(chain.len());
        let kernel = Kernel::new(KernelConfig::virtual_time());
        {
            let pipeline = Pipeline::new(&kernel, "prop");
            let source = pipeline.add_producer("source", IterSource::new("source", 0u32..30));
            let (sink, out) = CollectSink::<u32>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);

            let mut nodes = Vec::new();
            // What the report of the chain's section must read, stage by
            // stage, source to sink.
            let mut expected = Vec::new();
            if buffer_fed {
                nodes.push(pipeline.add_pump("feeder", FreePump::new()));
                nodes.push(pipeline.add_buffer("buffer", 4));
            } else {
                expected.push(("source".to_owned(), Mode::Pull, Exec::Direct));
            }
            for (i, style) in chain.iter().enumerate() {
                if i == pump_at {
                    nodes.push(pipeline.add_pump("pump", FreePump::new()));
                }
                let name = format!("s{i}");
                nodes.push(match style {
                    StyleKind::Producer => pipeline.add_producer(&name, RelayProducer::new(&name)),
                    StyleKind::Consumer => pipeline.add_consumer(&name, RelayConsumer::new(&name)),
                    StyleKind::Function => pipeline.add_function(&name, IdentityFn::new(&name)),
                    StyleKind::Active => pipeline.add_active(&name, ActiveRelay::new(&name)),
                });
                let mode = if i < pump_at { Mode::Pull } else { Mode::Push };
                expected.push((name, mode, expected_exec(*style, mode)));
            }
            if pump_at >= chain.len() {
                nodes.push(pipeline.add_pump("pump", FreePump::new()));
            }
            expected.push(("sink".to_owned(), Mode::Push, Exec::Direct));
            let mut prev = source;
            for n in nodes {
                pipeline.connect(prev, n).expect("connect");
                prev = n;
            }
            pipeline.connect(prev, sink).expect("connect");

            let threads_before = kernel.stats().threads_spawned;
            let running = pipeline.start().expect("plan");
            let report = running.report();
            prop_assert_eq!(report.sections.len(), 1 + usize::from(buffer_fed));
            let section = report.sections.iter().find(|s| s.owner == "pump").expect("section");
            let placed: Vec<(String, Mode, Exec)> = section
                .stages
                .iter()
                .map(|p| (p.name.clone(), p.mode, p.exec))
                .collect();
            prop_assert_eq!(&placed, &expected, "pump at {}:\n{}", pump_at, report);
            let coroutines = expected.iter().filter(|e| e.2 == Exec::Coroutine).count();
            prop_assert_eq!(report.sections.iter().map(|s| s.coroutines).sum::<usize>(), coroutines);
            // The report and the running threads come from one tree.
            prop_assert_eq!(
                kernel.stats().threads_spawned - threads_before,
                report.total_threads() as u64
            );

            running.start_flow().expect("start");
            running.wait_quiescent();
            let got = out.lock().clone();
            prop_assert_eq!(got, (0..30).collect::<Vec<u32>>(), "{}", report);
        }
        kernel.shutdown();
    }

    /// Buffers deliver a prefix-preserving subsequence under any capacity
    /// and drop policy, and never exceed capacity.
    #[test]
    fn buffers_preserve_order_under_any_policy(
        capacity in 1usize..8,
        on_full in prop_oneof![
            Just(OnFull::Block),
            Just(OnFull::DropNewest),
            Just(OnFull::DropOldest)
        ],
        items in 1u32..60,
    ) {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        {
            let pipeline = Pipeline::new(&kernel, "buf-prop");
            let source = pipeline.add_producer("source", IterSource::new("source", 0..items));
            let p1 = pipeline.add_pump("p1", FreePump::new());
            let buf = pipeline.add_buffer_with(
                "buf",
                BufferSpec::bounded(capacity).on_full(on_full).on_empty(OnEmpty::Block),
            );
            let p2 = pipeline.add_pump("p2", FreePump::new());
            let (sink, out) = CollectSink::<u32>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = source >> p1 >> buf >> p2 >> sink;
            let running = pipeline.start().expect("plan");
            let probe = running.probe("buf").expect("probe");
            running.start_flow().expect("start");
            running.wait_quiescent();

            let got = out.lock().clone();
            // Strictly increasing subsequence of the input.
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
            prop_assert!(got.iter().all(|v| *v < items));
            let stats = probe.stats();
            prop_assert!(stats.fill <= stats.capacity);
            // Conservation: everything put was taken or dropped.
            prop_assert_eq!(stats.puts, stats.takes + if on_full == OnFull::DropOldest {
                stats.drops
            } else {
                0
            });
            // With blocking policies nothing is lost at all.
            if on_full == OnFull::Block {
                prop_assert_eq!(got.len() as u32, items);
            }
        }
        kernel.shutdown();
    }

    /// GOP dependency closures are acyclic, strictly decreasing, and end
    /// at an I frame.
    #[test]
    fn gop_dependency_closure_terminates(
        gop_size in 1u64..30,
        b_run in 0u64..5,
        seq in 0u64..1000,
    ) {
        let gop = media::GopStructure::new(gop_size, b_run);
        let closure = gop.dependency_closure(seq);
        // Strictly decreasing and within the same GOP.
        let mut prev = seq;
        for &dep in &closure {
            prop_assert!(dep < prev);
            prop_assert_eq!(dep / gop_size, seq / gop_size, "no GOP crossing");
            prev = dep;
        }
        // The chain ends at a frame with no dependency (an I frame).
        let last = closure.last().copied().unwrap_or(seq);
        if gop.dependency(seq).is_some() {
            prop_assert_eq!(gop.frame_type(last), media::FrameType::I);
        }
    }
}
