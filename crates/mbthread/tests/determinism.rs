//! Determinism of the virtual clock: the same program produces the same
//! trace, timers and messages interleave identically, and counters match
//! run for run.

use mbthread::{Ctx, Envelope, Flow, Kernel, KernelConfig, Message, Priority, SpawnOptions, Tag};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TICK: Tag = Tag(1);
const DATA: Tag = Tag(2);
const GO: Tag = Tag(3);

type Trace = Arc<Mutex<Vec<(String, u64)>>>;

/// A small program: two tickers at co-prime periods and a relay that
/// forwards with per-message work, all logging (who, virtual-us).
///
/// Construction follows the same pattern as the pipeline layer: nothing
/// sets a timer until a single in-kernel `GO` fans out to every ticker.
/// While no timer exists the virtual clock cannot advance, so the whole
/// schedule is anchored at t=0 no matter how slowly the external main
/// thread performs the spawns — timers set from `on_start` would race
/// the virtual clock against the spawning thread.
fn run_program() -> (Vec<(String, u64)>, mbthread::KernelStats) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));

    struct Ticker {
        name: &'static str,
        period: Duration,
        remaining: u32,
        relay: mbthread::ThreadId,
        trace: Trace,
    }
    impl mbthread::CodeFn for Ticker {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
            if env.tag() == GO {
                let at = ctx.now() + self.period;
                let _ = ctx.set_timer(at, Message::signal(TICK), None);
                return Flow::Continue;
            }
            self.trace
                .lock()
                .unwrap()
                .push((self.name.to_string(), ctx.now().as_micros()));
            let _ = ctx.send(self.relay, Message::new(DATA, self.name.to_string()));
            self.remaining -= 1;
            if self.remaining == 0 {
                return Flow::Stop;
            }
            let at = ctx.now() + self.period;
            let _ = ctx.set_timer(at, Message::signal(TICK), None);
            Flow::Continue
        }
    }

    let trace_relay = Arc::clone(&trace);
    let relay = kernel
        .spawn(
            SpawnOptions::new("relay").priority(Priority::HIGH),
            move |ctx: &mut Ctx<'_>, env: Envelope| {
                let from = env.expect_body::<String>();
                // Scheduling-visible work.
                let _ = ctx.yield_now();
                trace_relay
                    .lock()
                    .unwrap()
                    .push((format!("relay<-{from}"), ctx.now().as_micros()));
                Flow::Continue
            },
        )
        .unwrap();

    let mut tickers = Vec::new();
    for (name, period_us, count) in [("a", 700u64, 20u32), ("b", 1100, 13)] {
        let id = kernel
            .spawn(
                name,
                Ticker {
                    name: if name == "a" { "a" } else { "b" },
                    period: Duration::from_micros(period_us),
                    remaining: count,
                    relay,
                    trace: Arc::clone(&trace),
                },
            )
            .unwrap();
        tickers.push(id);
    }

    // Single in-kernel starter: fans GO out to every ticker in one
    // message-processing step, atomically with respect to virtual time.
    let starter = kernel
        .spawn("starter", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            for &t in &tickers {
                let _ = ctx.send(t, Message::signal(GO));
            }
            Flow::Stop
        })
        .unwrap();
    let port = kernel.external("main");
    port.send(starter, Message::signal(GO)).unwrap();

    kernel.wait_quiescent();
    let stats = kernel.stats();
    kernel.shutdown();
    let t = trace.lock().unwrap().clone();
    (t, stats)
}

#[test]
fn virtual_time_traces_are_reproducible() {
    let (t1, s1) = run_program();
    let (t2, s2) = run_program();
    assert_eq!(t1, t2, "traces must be identical run to run");
    assert_eq!(s1.messages_sent, s2.messages_sent);
    assert_eq!(s1.timer_fires, s2.timer_fires);
    // 20 + 13 ticks and one relay entry each.
    assert_eq!(t1.len(), 33 * 2);
    // Virtual timestamps follow the periods exactly.
    let a_times: Vec<u64> = t1
        .iter()
        .filter(|(n, _)| n == "a")
        .map(|(_, at)| *at)
        .collect();
    assert_eq!(a_times[0], 700);
    assert!(a_times.windows(2).all(|w| w[1] - w[0] == 700));
}

#[test]
fn trace_is_ordered_by_virtual_time() {
    let (t, _) = run_program();
    assert!(
        t.windows(2).all(|w| w[0].1 <= w[1].1),
        "events must be logged in nondecreasing virtual time"
    );
}

/// The kernel-level construction barrier: timers armed directly from
/// `on_start` — the racy pattern the GO fan-out above exists to avoid —
/// are safe when the clock is frozen during construction, however slowly
/// the external thread spawns.
#[test]
fn freeze_clock_closes_the_construction_race() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let fires: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    struct EagerTimer {
        fires: Arc<Mutex<Vec<u64>>>,
    }
    impl mbthread::CodeFn for EagerTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Armed at construction time, not behind a GO barrier.
            let at = ctx.now() + Duration::from_millis(1);
            let _ = ctx.set_timer(at, Message::signal(TICK), None);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
            self.fires.lock().unwrap().push(ctx.now().as_micros());
            Flow::Stop
        }
    }

    let hold = kernel.freeze_clock();
    kernel
        .spawn(
            "eager-a",
            EagerTimer {
                fires: Arc::clone(&fires),
            },
        )
        .unwrap();
    // A deliberately slow external construction phase: without the
    // barrier the kernel goes idle here and the clock jumps to the
    // first deadline before the second thread even exists.
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(
        kernel.now().as_micros(),
        0,
        "a frozen virtual clock must not advance while construction stalls"
    );
    kernel
        .spawn(
            "eager-b",
            EagerTimer {
                fires: Arc::clone(&fires),
            },
        )
        .unwrap();
    hold.release();

    kernel.wait_quiescent();
    kernel.shutdown();
    assert_eq!(
        *fires.lock().unwrap(),
        vec![1000, 1000],
        "both timers must fire at the same virtual instant, anchored at t=0"
    );
}

/// Holds nest, and dropping a hold releases it: the clock stays frozen
/// until the *last* hold is gone.
#[test]
fn clock_holds_nest_and_release_on_drop() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let fires: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    struct OneShot {
        fires: Arc<Mutex<Vec<u64>>>,
    }
    impl mbthread::CodeFn for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let at = ctx.now() + Duration::from_millis(2);
            let _ = ctx.set_timer(at, Message::signal(TICK), None);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
            self.fires.lock().unwrap().push(ctx.now().as_micros());
            Flow::Stop
        }
    }

    let outer = kernel.freeze_clock();
    let inner = kernel.freeze_clock();
    kernel
        .spawn(
            "one-shot",
            OneShot {
                fires: Arc::clone(&fires),
            },
        )
        .unwrap();
    drop(inner); // implicit release
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        kernel.now().as_micros(),
        0,
        "the outer hold must still pin the clock after the inner drops"
    );
    outer.release();
    kernel.wait_quiescent();
    kernel.shutdown();
    assert_eq!(*fires.lock().unwrap(), vec![2000]);
}
