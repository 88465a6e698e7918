//! The benchmark's two 8-stage chains (`benchmark/src/workloads/chain.rs`)
//! rebuilt from the public API: over a window of steady flow the planner's
//! decisions cost exactly what the benchmark gates — 1 thread, 0 switches
//! and no kernel message per item with every stage a direct call (the
//! pump cycles in place), 5 threads, 8 switches and 8 messages with four
//! active objects — and the dispatcher OS thread is never woken.

use infopipes::helpers::{ActiveRelay, FnFunction, FnSink, IdentityFn, IterSource};
use infopipes::{FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig, KernelStats};
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Copy, Clone)]
enum StageKind {
    Identity,
    Fold,
    Active,
}
use StageKind::{Active, Fold, Identity};

const WARM: u64 = 200;
const MEASURED: u64 = 2_000;
/// Messages the measured window may hold that are not per item: a pump
/// asks for a cycle through its main loop once after each disturbance.
const STRAY_MESSAGES: u64 = 4;

/// Runs `source → pump → stages → sink` on a real-clock kernel; returns the
/// planned thread count and the kernel-counter delta between the arrival
/// of item `WARM` and of item `WARM + MEASURED` at the sink.
fn run_chain(stages: &[StageKind]) -> (usize, KernelStats) {
    let kernel = Kernel::new(KernelConfig::default());
    let marks = Arc::new(Mutex::new(Vec::new()));
    let threads = {
        let pipeline = Pipeline::new(&kernel, "chain");
        let mut nodes = vec![
            pipeline.add_producer("source", IterSource::new("source", 0..WARM + MEASURED + 50)),
            pipeline.add_pump("pump", FreePump::new()),
        ];
        for (i, kind) in stages.iter().enumerate() {
            let name = format!("s{i}");
            nodes.push(match kind {
                Identity => pipeline.add_function(&name, IdentityFn::new(&name)),
                Fold => pipeline.add_function(
                    &name,
                    FnFunction::new(&name, |x: u64| Some(x.rotate_left(7) ^ 0x9e37)),
                ),
                Active => pipeline.add_active(&name, ActiveRelay::new(&name)),
            });
        }
        let (stats_of, marks_in) = (kernel.clone(), Arc::clone(&marks));
        let mut arrived = 0u64;
        nodes.push(pipeline.add_consumer(
            "sink",
            FnSink::new("sink", move |_: u64, _| {
                if arrived == WARM || arrived == WARM + MEASURED {
                    marks_in.lock().push(stats_of.stats());
                }
                arrived += 1;
            }),
        ));
        for pair in nodes.windows(2) {
            pipeline.connect(pair[0], pair[1]).expect("chain connects");
        }
        let running = pipeline.start().expect("plan");
        let threads = running.report().total_threads();
        running.start_flow().expect("start");
        running.wait_quiescent();
        threads
    };
    kernel.shutdown();
    let marks = marks.lock();
    assert_eq!(marks.len(), 2, "the sink saw both window edges");
    (threads, marks[1].delta_since(&marks[0]))
}

#[test]
fn direct_chain_costs_no_message_per_item_and_no_dispatcher_wake() {
    let (threads, delta) = run_chain(&[
        Identity, Identity, Identity, Identity, Identity, Identity, Identity, Fold,
    ]);
    assert_eq!(threads, 1);
    assert_eq!(delta.context_switches, 0);
    assert!(
        delta.messages_sent <= STRAY_MESSAGES,
        "{} messages over {MEASURED} items",
        delta.messages_sent
    );
    assert_eq!(delta.sync_sends, 0);
    assert_eq!(delta.dispatcher_wakeups, 0);
}

#[test]
fn coroutine_chain_costs_eight_switches_per_item_and_no_dispatcher_wake() {
    let (threads, delta) = run_chain(&[
        Identity, Active, Identity, Active, Identity, Active, Fold, Active,
    ]);
    assert_eq!(threads, 5);
    assert_eq!(delta.context_switches, 8 * MEASURED);
    let per_item = 8 * MEASURED;
    assert!(
        (per_item..=per_item + STRAY_MESSAGES).contains(&delta.messages_sent),
        "{} messages over {MEASURED} items",
        delta.messages_sent
    );
    assert_eq!(delta.sync_sends, 4 * MEASURED);
    assert_eq!(delta.dispatcher_wakeups, 0);
}
