//! The benchmark's two 8-stage chains (`benchmark/src/workloads/chain.rs`)
//! rebuilt from the public API: over a window of steady flow the planner's
//! decisions cost exactly what the benchmark gates — 1 thread, 0 switches
//! and no kernel message per item with every stage a direct call (the
//! pump cycles in place), 5 threads, 8 switches and 8 messages with four
//! active objects — and the kernel notifies no condvar: the dispatcher
//! OS thread is never woken, and neither is any other. The kernel's own
//! work per item is pinned too: the direct chain takes the kernel mutex
//! not at all, the coroutine chain 23 times and polls a coroutine's body
//! 7 times (one per hand-off to a coroutine; the eighth goes back to the
//! pump).
//!
//! The four active objects' coroutines are polled kernel threads: the
//! coroutine chain runs on two OS threads, the pump's and the
//! dispatcher's, and every hand-off is a poll on the pump's OS thread,
//! which therefore goes through the window without sleeping. Both counts
//! come from procfs, so the two tests run one at a time.

#![cfg(target_os = "linux")]

use infopipes::helpers::{ActiveRelay, FnFunction, FnSink, IdentityFn, IterSource};
use infopipes::{FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig, KernelStats};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serializes the tests: each counts the process's kernel OS threads.
static ALONE: Mutex<()> = Mutex::new(());

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
/// Kernel-mutex acquisitions the measured window may hold that are not per
/// item: the test's own thread starting its wait for quiescence, or the
/// dispatcher's OS thread taking its first look at the kernel, late on a
/// busy host.
const STRAY_LOCKS: u64 = 4;
/// OS threads that back the kernel in either chain: the section's, which
/// also polls every coroutine, and the dispatcher's.
const KERNEL_OS_THREADS: usize = 2;

fn comm(dir: &std::path::Path) -> std::io::Result<String> {
    std::fs::read_to_string(dir.join("comm")).map(|name| name.trim().to_owned())
}

/// OS threads of this process that back the kernel (named `mbt…`). An OS
/// thread takes its name when it first runs, so one that has not run yet
/// is not counted.
fn kernel_os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| comm(&task.ok()?.path()).ok())
        .filter(|name| name.starts_with("mbt"))
        .count()
}

/// What the OS says about the thread that delivers an item to the sink.
#[derive(Debug)]
struct OsView {
    /// Name of the delivering OS thread.
    thread: String,
    /// Its voluntary context switches so far.
    voluntary_switches: u64,
    /// [`kernel_os_threads`].
    kernel_os_threads: usize,
}

impl OsView {
    fn now() -> OsView {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
        let voluntary_switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches");
        OsView {
            thread: comm(std::path::Path::new("/proc/thread-self")).expect("procfs"),
            voluntary_switches,
            kernel_os_threads: kernel_os_threads(),
        }
    }
}

/// Runs `source → pump → stages → sink` on a real-clock kernel; returns the
/// planned thread count and the kernel-counter delta between the arrival
/// of item `WARM` and of item `WARM + MEASURED` at the sink, with the OS
/// view at both.
fn run_chain(stages: &[StageKind]) -> (usize, KernelStats, [OsView; 2]) {
    let _alone = ALONE.lock();
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
                    marks_in.lock().push((stats_of.stats(), OsView::now()));
                }
                arrived += 1;
            }),
        ));
        for pair in nodes.windows(2) {
            pipeline.connect(pair[0], pair[1]).expect("chain connects");
        }
        let running = pipeline.start().expect("plan");
        let threads = running.report().total_threads();
        // The flow starts once every kernel OS thread has run, so none
        // comes up inside the window: `Kernel::new` returns before its
        // dispatcher's OS thread first runs, which on a busy host can be
        // milliseconds later.
        let deadline = Instant::now() + Duration::from_secs(10);
        while kernel_os_threads() < KERNEL_OS_THREADS {
            assert!(Instant::now() < deadline, "kernel OS threads never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        running.start_flow().expect("start");
        running.wait_quiescent();
        threads
    };
    kernel.shutdown();
    let marks = std::mem::take(&mut *marks.lock());
    let Ok([(first, start), (last, end)]) = <[_; 2]>::try_from(marks) else {
        panic!("the sink saw both window edges");
    };
    (threads, last.delta_since(&first), [start, end])
}

#[test]
fn direct_chain_costs_no_message_per_item_and_no_dispatcher_wake() {
    let (threads, delta, _) = run_chain(&[
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
    assert_eq!(delta.os_wakes, 0);
    assert!(
        delta.lock_acquisitions <= STRAY_LOCKS,
        "{} kernel-mutex acquisitions over {MEASURED} items",
        delta.lock_acquisitions
    );
    assert_eq!(delta.polls, 0);
}

#[test]
fn coroutine_chain_costs_eight_switches_per_item_and_no_dispatcher_wake() {
    let (threads, delta, [start, end]) = run_chain(&[
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
    // Per item: the pump's `PUT` and its check for disturbances before
    // the next cycle; one critical section per hand-off side in the
    // coroutines (3 `PUT`s and 4 acks, each with its wait); and two per
    // poll, 7 polls (the poller's re-lock when the body returns, and the
    // resumed future's retake of its message): 23.
    let locks = 23 * MEASURED;
    assert!(
        (locks..=locks + STRAY_LOCKS).contains(&delta.lock_acquisitions),
        "{} kernel-mutex acquisitions over {MEASURED} items",
        delta.lock_acquisitions
    );
    assert_eq!(delta.polls, 7 * MEASURED);
    assert_eq!(delta.dispatcher_wakeups, 0);
    // Every hand-off back to the pump finds its OS thread awake, polling:
    // no condvar notification, so no futex syscall.
    assert_eq!(delta.os_wakes, 0);
    // Five kernel threads on two OS threads: the pump's, which polls the
    // four coroutines and so delivers to the sink, and the dispatcher's.
    for view in [&start, &end] {
        assert_eq!(view.thread, "mbt-section-pum", "{view:?}");
        assert_eq!(view.kernel_os_threads, KERNEL_OS_THREADS, "{view:?}");
    }
    // 16 000 hand-offs, none of them a sleep of the pump's OS thread.
    let slept = end.voluntary_switches - start.voluntary_switches;
    assert!(slept <= 4, "the pump's OS thread slept {slept} times");
}
