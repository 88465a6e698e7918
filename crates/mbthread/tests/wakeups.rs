//! Who gets woken, and when: the dispatcher stays off the message path,
//! every legitimate reason to wake it still does, the wake-after-unlock
//! hand-off loses no wake-up, and a thread that keeps the CPU by asking
//! [`Ctx::undisturbed`] hears of everything it has to give way to.
//!
//! A lost wake-up is a hang, so every test that could hang runs its body
//! under [`within`], which fails the test instead.

use mbthread::{
    ClockMode, Ctx, Envelope, Flow, Kernel, KernelConfig, KernelError, KernelStats, Message,
    PolledFn, Priority, SpawnOptions, Tag, ThreadId, Time,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const GO: Tag = Tag(1);
const PING: Tag = Tag(2);
const DONE: Tag = Tag(3);
const FLOOD: Tag = Tag(4);

fn config(clock: ClockMode) -> KernelConfig {
    KernelConfig {
        clock,
        ..KernelConfig::default()
    }
}

/// Runs `body` on its own OS thread and fails if it has not finished
/// after `limit`.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().expect("test body panicked"),
        // The body panicked before reporting: surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress after {limit:?}: lost wake-up?")
        }
    }
}

/// Spawns an echo thread: replies to every request.
fn spawn_echo(kernel: &Kernel) -> mbthread::ThreadId {
    kernel
        .spawn("echo", |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.wants_reply() {
                ctx.reply(&env, Message::signal(PING)).unwrap();
            }
            Flow::Continue
        })
        .unwrap()
}

/// The counter delta a kernel thread measured around its own work,
/// reported to the external port that started it.
fn measured_delta(kernel: &Kernel, worker: mbthread::ThreadId) -> KernelStats {
    let port = kernel.external("main");
    port.send(worker, Message::new(GO, port.id())).unwrap();
    let report = port.recv().unwrap();
    assert_eq!(report.tag(), DONE);
    report.expect_body::<KernelStats>()
}

#[test]
fn self_sends_never_wake_the_dispatcher() {
    const SENDS: u64 = 10_000;
    for clock in [ClockMode::Real, ClockMode::Virtual] {
        within(Duration::from_secs(60), move || {
            let kernel = Kernel::new(config(clock));
            let mut before = KernelStats::default();
            let mut reply_to = None;
            let mut handled = 0u64;
            let worker = kernel
                .spawn("self-sender", move |ctx: &mut Ctx<'_>, env: Envelope| {
                    if env.tag() == GO {
                        reply_to = Some(env.expect_body::<mbthread::ThreadId>());
                        before = ctx.kernel().stats();
                    } else {
                        handled += 1;
                    }
                    if handled < SENDS {
                        let me = ctx.id();
                        ctx.send(me, Message::signal(PING)).unwrap();
                    } else {
                        let delta = ctx.kernel().stats().delta_since(&before);
                        let to = reply_to.expect("started by GO");
                        ctx.send(to, Message::new(DONE, delta)).unwrap();
                    }
                    Flow::Continue
                })
                .unwrap();
            let delta = measured_delta(&kernel, worker);
            assert_eq!(delta.messages_sent, SENDS, "{clock:?}");
            assert_eq!(delta.context_switches, 0, "{clock:?}");
            assert_eq!(delta.dispatcher_wakeups, 0, "{clock:?}");
            kernel.shutdown();
        });
    }
}

#[test]
fn sync_ping_pong_never_wakes_the_dispatcher() {
    const ROUNDS: u64 = 1_000;
    for clock in [ClockMode::Real, ClockMode::Virtual] {
        within(Duration::from_secs(60), move || {
            let kernel = Kernel::new(config(clock));
            let echo = spawn_echo(&kernel);
            let worker = kernel
                .spawn("pinger", move |ctx: &mut Ctx<'_>, env: Envelope| {
                    let to = env.expect_body::<mbthread::ThreadId>();
                    let before = ctx.kernel().stats();
                    for _ in 0..ROUNDS {
                        ctx.send_sync(echo, Message::signal(PING)).unwrap();
                    }
                    let delta = ctx.kernel().stats().delta_since(&before);
                    ctx.send(to, Message::new(DONE, delta)).unwrap();
                    Flow::Continue
                })
                .unwrap();
            let delta = measured_delta(&kernel, worker);
            assert_eq!(delta.sync_sends, ROUNDS, "{clock:?}");
            assert_eq!(delta.context_switches, 2 * ROUNDS, "{clock:?}");
            assert_eq!(delta.dispatcher_wakeups, 0, "{clock:?}");
            kernel.shutdown();
        });
    }
}

/// Replies to every request.
struct PolledEcho;

impl PolledFn for PolledEcho {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        ctx.reply_async(&env, Message::signal(PING)).await.unwrap();
        Flow::Continue
    }
}

/// Forwards every request synchronously to `next`, then replies.
struct PolledRelay {
    next: ThreadId,
}

impl PolledFn for PolledRelay {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        ctx.call_async(self.next, Message::signal(PING), None, &[])
            .await
            .unwrap();
        ctx.reply_async(&env, Message::signal(PING)).await.unwrap();
        Flow::Continue
    }
}

/// Regression: the dispatcher, woken for a timer, polled whichever polled
/// thread held the CPU. Inside a relay's poll the relay grants the CPU to
/// the echo and the poll returns; before the polling OS thread takes the
/// kernel mutex again to poll the echo, a dispatcher that got the mutex
/// first polled it instead, and the pinger's OS thread, finding the body
/// away, went to sleep, to be woken by a condvar notification. Here the
/// dispatcher wakes every 50 µs for timers that deliver to a thread
/// waiting for something else, while an OS-backed pinger calls a polled
/// relay that calls a polled echo: the hand-offs must still notify no
/// condvar.
#[test]
fn a_dispatcher_woken_for_a_timer_takes_over_no_hand_off() {
    const TIMERS: u32 = 2_000;
    const SPACING: Duration = Duration::from_micros(50);
    within(Duration::from_secs(60), || {
        let kernel = Kernel::new(KernelConfig::default());
        let echo = kernel.spawn_polled("echo", PolledEcho).unwrap();
        let relay = kernel
            .spawn_polled("relay", PolledRelay { next: echo })
            .unwrap();
        let pinger = kernel
            .spawn("pinger", move |ctx: &mut Ctx<'_>, env: Envelope| {
                let (to, until) = env.expect_body::<(ThreadId, Instant)>();
                let before = ctx.kernel().stats();
                while Instant::now() < until {
                    ctx.send_sync(relay, Message::signal(PING)).unwrap();
                }
                let delta = ctx.kernel().stats().delta_since(&before);
                ctx.send(to, Message::new(DONE, delta)).unwrap();
                Flow::Continue
            })
            .unwrap();
        // The flooder arms the timers for itself, then waits for a `GO`
        // that never comes: a thread is woken only by a message its wait
        // matches, so each firing only wakes the dispatcher.
        let flooder = kernel
            .spawn("flooder", |ctx: &mut Ctx<'_>, mut env: Envelope| {
                let first = env.message_mut().take_body::<Time>().unwrap();
                for i in 0..TIMERS {
                    let _ = ctx.set_timer(first + SPACING * i, Message::signal(FLOOD), None);
                }
                ctx.reply(&env, Message::signal(DONE)).unwrap();
                // Only shutdown ends this wait.
                let _ = ctx.receive_tags(&[GO]);
                Flow::Stop
            })
            .unwrap();
        // Every thread has run to its first receive before the timers and
        // the window, which then hold nothing of the set-up.
        kernel.wait_quiescent();
        let port = kernel.external("main");
        let first = kernel.now() + Duration::from_millis(2);
        port.send_sync(flooder, Message::new(GO, first)).unwrap();
        let until = Instant::now() + Duration::from_millis(2) + SPACING * TIMERS;
        port.send(pinger, Message::new(GO, (port.id(), until)))
            .unwrap();
        let report = port.recv().unwrap();
        assert_eq!(report.tag(), DONE);
        let delta = report.expect_body::<KernelStats>();
        assert!(delta.sync_sends > 0, "{delta:?}");
        assert!(delta.dispatcher_wakeups > 0, "{delta:?}");
        assert_eq!(delta.os_wakes, 0, "{delta:?}");
        kernel.shutdown();
    });
}

/// Regression: `sleep_until` arms a wake timer, and with the dispatcher
/// parked without a deadline only an explicit notification makes it look
/// at the new timer.
#[test]
fn real_clock_sleep_returns_with_the_dispatcher_parked() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::default());
        let sleeper = kernel
            .spawn("sleeper", |ctx: &mut Ctx<'_>, env: Envelope| {
                let began = Instant::now();
                ctx.sleep(Duration::from_millis(5)).unwrap();
                ctx.reply(&env, Message::new(DONE, began.elapsed()))
                    .unwrap();
                Flow::Continue
            })
            .unwrap();
        let port = kernel.external("main");
        // No timer exists, so once the dispatcher has looked around it
        // parks without a deadline; give it the time to get there.
        std::thread::sleep(Duration::from_millis(50));
        let slept = port
            .send_sync(sleeper, Message::signal(GO))
            .unwrap()
            .expect_body::<Duration>();
        assert!(slept >= Duration::from_millis(5), "woke early: {slept:?}");
        assert!(slept < Duration::from_millis(500), "woke late: {slept:?}");
        drop(port);
        kernel.shutdown();
    });
}

/// Wake reason: the kernel goes idle while a `wait_quiescent` caller is
/// registered (under the real clock nothing else would tell it).
#[test]
fn wait_quiescent_returns_when_the_last_thread_blocks() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::default());
        let (release, held) = mpsc::channel::<()>();
        let busy = kernel
            .spawn("busy", move |_: &mut Ctx<'_>, _: Envelope| {
                // Keeps the CPU (the kernel is not idle) until released.
                held.recv().unwrap();
                Flow::Continue
            })
            .unwrap();
        let port = kernel.external("main");
        port.send(busy, Message::signal(GO)).unwrap();

        let (entering, entered) = mpsc::channel();
        let waiter = {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                entering.send(()).unwrap();
                kernel.wait_quiescent();
            })
        };
        entered.recv().unwrap();
        // Let the waiter register before the thread blocks; either order
        // must end the wait.
        std::thread::sleep(Duration::from_millis(20));
        release.send(()).unwrap();
        waiter.join().unwrap();
        drop(port);
        kernel.shutdown();
    });
}

/// `wait_quiescent` callers sleep on a condvar of their own: the idle
/// rule that wakes them leaves the dispatcher asleep when the clock is
/// real and no timer is armed. Each round the waiter registers while an
/// OS-backed thread spins, and is woken when that thread blocks.
#[test]
fn quiescence_waiters_never_wake_the_dispatcher() {
    const ROUNDS: u64 = 40;
    within(Duration::from_secs(60), || {
        let kernel = Kernel::new(config(ClockMode::Real));
        let spinner = kernel
            .spawn("spinner", |_: &mut Ctx<'_>, _: Envelope| {
                // Busy long enough for the waiter to register first.
                let until = Instant::now() + Duration::from_millis(3);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                Flow::Continue
            })
            .unwrap();
        let port = kernel.external("main");
        kernel.wait_quiescent();
        let before = kernel.stats();
        for _ in 0..ROUNDS {
            port.send(spinner, Message::signal(GO)).unwrap();
            kernel.wait_quiescent();
        }
        let delta = kernel.stats().delta_since(&before);
        assert_eq!(delta.dispatcher_wakeups, 0, "{delta:?}");
        drop(port);
        kernel.shutdown();
    });
}

/// A thread whose only activity is a timer `after_ms` from its start.
fn spawn_timer_only(kernel: &Kernel, after_ms: u64, fired_at: &Arc<AtomicU64>) {
    struct TimerOnly {
        after: Duration,
        fired_at: Arc<AtomicU64>,
    }
    impl mbthread::CodeFn for TimerOnly {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let _ = ctx.set_timer(ctx.now() + self.after, Message::signal(PING), None);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: Envelope) -> Flow {
            self.fired_at.store(ctx.now().as_nanos(), Ordering::SeqCst);
            Flow::Stop
        }
    }
    kernel
        .spawn(
            "timer-only",
            TimerOnly {
                after: Duration::from_millis(after_ms),
                fired_at: Arc::clone(fired_at),
            },
        )
        .unwrap();
}

/// Wake reason: the kernel goes idle under the virtual clock with a timer
/// pending, so the dispatcher must jump to it.
#[test]
fn timer_only_kernel_advances_virtual_time() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let fired_at = Arc::new(AtomicU64::new(0));
        spawn_timer_only(&kernel, 10, &fired_at);
        kernel.wait_quiescent();
        assert_eq!(
            fired_at.load(Ordering::SeqCst),
            Time::from_millis(10).as_nanos()
        );
        kernel.shutdown();
    });
}

/// Wake reason: releasing the last clock hold permits the jump the
/// dispatcher had to refuse.
#[test]
fn clock_hold_release_permits_the_jump() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let hold = kernel.freeze_clock();
        let fired_at = Arc::new(AtomicU64::new(0));
        spawn_timer_only(&kernel, 5, &fired_at);
        // The thread arms its timer and blocks; the dispatcher sees the
        // hold and parks.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(fired_at.load(Ordering::SeqCst), 0, "jumped under a hold");
        hold.release();
        kernel.wait_quiescent();
        assert_eq!(
            fired_at.load(Ordering::SeqCst),
            Time::from_millis(5).as_nanos()
        );
        kernel.shutdown();
    });
}

/// Wake reason: shutdown reaches every kind of blocked OS thread.
#[test]
fn shutdown_unblocks_everyone() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::default());
        let (outcomes, collected) = mpsc::channel();

        let receiver_out = outcomes.clone();
        let receiver = kernel
            .spawn("receiver", move |ctx: &mut Ctx<'_>, _: Envelope| {
                receiver_out.send(("receive", ctx.receive().err())).unwrap();
                Flow::Stop
            })
            .unwrap();
        let sleeper_out = outcomes.clone();
        let sleeper = kernel
            .spawn("sleeper", move |ctx: &mut Ctx<'_>, _: Envelope| {
                // The pending timer also keeps the kernel from ever being
                // quiescent.
                let err = ctx.sleep(Duration::from_secs(3600)).err();
                sleeper_out.send(("sleep", err)).unwrap();
                Flow::Stop
            })
            .unwrap();
        let starter = kernel.external("starter");
        for worker in [receiver, sleeper] {
            starter.send(worker, Message::signal(GO)).unwrap();
        }

        let port_out = outcomes.clone();
        let port_kernel = kernel.clone();
        let port_waiter = std::thread::spawn(move || {
            let port = port_kernel.external("blocked-port");
            port_out.send(("recv", port.recv().err())).unwrap();
        });
        let quiescence_kernel = kernel.clone();
        let quiescence_waiter = std::thread::spawn(move || {
            quiescence_kernel.wait_quiescent();
            outcomes
                .send(("wait_quiescent", Some(KernelError::Shutdown)))
                .unwrap();
        });

        // Let everyone block first; shutdown must end all four waits
        // whatever they had reached.
        std::thread::sleep(Duration::from_millis(50));
        drop(starter);
        kernel.shutdown();
        port_waiter.join().unwrap();
        quiescence_waiter.join().unwrap();
        let mut seen: Vec<_> = collected.try_iter().collect();
        seen.sort_by_key(|(what, _)| *what);
        let names: Vec<_> = seen.iter().map(|(what, _)| *what).collect();
        assert_eq!(names, ["receive", "recv", "sleep", "wait_quiescent"]);
        for (what, err) in seen {
            assert_eq!(err, Some(KernelError::Shutdown), "{what}");
        }
    });
}

/// Hunts lost wake-ups in the unlock → notify → relock window: kernel
/// threads hand the CPU back and forth while an external thread floods
/// sends and another keeps registering as a quiescence waiter. The kernel
/// goes idle between batches, so every kind of wake is in play.
#[test]
fn hand_off_survives_external_floods_and_quiescence_waiters() {
    const BATCHES: u64 = 100;
    const ROUNDS_PER_BATCH: u64 = 1_000;
    // Pings queue behind floods in the echo thread's mailbox, so the
    // backlog bounds how long a round trip can take.
    const MAX_FLOOD_BACKLOG: u64 = 4;
    within(Duration::from_secs(300), || {
        let kernel = Kernel::new(KernelConfig::default());
        let flooded = Arc::new(AtomicU64::new(0));
        let echo = {
            let flooded = Arc::clone(&flooded);
            kernel
                .spawn("echo", move |ctx: &mut Ctx<'_>, env: Envelope| {
                    if env.wants_reply() {
                        ctx.reply(&env, Message::signal(PING)).unwrap();
                    } else {
                        flooded.fetch_add(1, Ordering::SeqCst);
                    }
                    Flow::Continue
                })
                .unwrap()
        };
        let pinger = kernel
            .spawn("pinger", move |ctx: &mut Ctx<'_>, env: Envelope| {
                for _ in 0..ROUNDS_PER_BATCH {
                    ctx.send_sync(echo, Message::signal(PING)).unwrap();
                }
                ctx.reply(&env, Message::signal(DONE)).unwrap();
                Flow::Continue
            })
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let flooder = {
            let (kernel, stop, flooded) = (kernel.clone(), Arc::clone(&stop), flooded);
            std::thread::spawn(move || {
                let port = kernel.external("flooder");
                let mut sent = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    if sent - flooded.load(Ordering::SeqCst) < MAX_FLOOD_BACKLOG {
                        port.send(echo, Message::signal(FLOOD)).unwrap();
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                sent
            })
        };
        let quiescence_looper = {
            let (kernel, stop) = (kernel.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut returns = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    kernel.wait_quiescent();
                    returns += 1;
                }
                returns
            })
        };

        let port = kernel.external("main");
        let before = kernel.stats();
        for _ in 0..BATCHES {
            let done = port.send_sync(pinger, Message::signal(GO)).unwrap();
            assert_eq!(done.tag(), DONE);
        }
        let delta = kernel.stats().delta_since(&before);
        stop.store(true, Ordering::SeqCst);
        let sent = flooder.join().unwrap();
        let returns = quiescence_looper.join().unwrap();
        assert_eq!(delta.sync_sends, BATCHES * (ROUNDS_PER_BATCH + 1));
        assert!(
            sent > 0 && returns > 0,
            "flooded {sent}, quiescent {returns}"
        );
        drop(port);
        kernel.shutdown();
    });
}

/// A thread that, on `GO`, reports in, keeps the CPU until the test lets
/// it go on, and then sends what `probe` makes of its [`Ctx`] back. What
/// the test does in between happens while this thread is the running one.
fn spawn_holder<R: Send + 'static>(
    kernel: &Kernel,
    mut probe: impl FnMut(&mut Ctx<'_>) -> R + Send + 'static,
) -> (
    mbthread::ThreadId,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
    mpsc::Receiver<R>,
) {
    let (holding, held) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let (report, reported) = mpsc::channel();
    let holder = kernel
        .spawn("holder", move |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.tag() == GO {
                // Nothing has happened since this message was taken.
                assert!(ctx.undisturbed());
                holding.send(()).unwrap();
                released.recv().unwrap();
                report.send(probe(ctx)).unwrap();
            }
            Flow::Continue
        })
        .unwrap();
    (holder, held, release, reported)
}

/// A thread of the given priority that counts the messages it handles.
fn spawn_counter(kernel: &Kernel, priority: Priority) -> (mbthread::ThreadId, Arc<AtomicU64>) {
    let handled = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&handled);
    let id = kernel
        .spawn(
            SpawnOptions::new("counter").priority(priority),
            move |_: &mut Ctx<'_>, _: Envelope| {
                count.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            },
        )
        .unwrap();
    (id, handled)
}

#[test]
fn a_quiet_kernel_leaves_the_running_thread_undisturbed() {
    const CHECKS: u64 = 100_000;
    for clock in [ClockMode::Real, ClockMode::Virtual] {
        within(Duration::from_secs(60), move || {
            let kernel = Kernel::new(config(clock));
            let worker = kernel
                .spawn("checker", |ctx: &mut Ctx<'_>, env: Envelope| {
                    let to = env.expect_body::<mbthread::ThreadId>();
                    let before = ctx.kernel().stats();
                    let quiet = (0..CHECKS).filter(|_| ctx.undisturbed()).count() as u64;
                    let delta = ctx.kernel().stats().delta_since(&before);
                    assert_eq!(quiet, CHECKS);
                    ctx.send(to, Message::new(DONE, delta)).unwrap();
                    Flow::Continue
                })
                .unwrap();
            let delta = measured_delta(&kernel, worker);
            assert_eq!(delta.messages_sent, 0, "{clock:?}");
            assert_eq!(delta.context_switches, 0, "{clock:?}");
            kernel.shutdown();
        });
    }
}

#[test]
fn a_message_for_the_running_thread_disturbs_it_until_received() {
    for clock in [ClockMode::Real, ClockMode::Virtual] {
        within(Duration::from_secs(30), move || {
            let kernel = Kernel::new(config(clock));
            let (holder, held, release, reported) = spawn_holder(&kernel, |ctx| {
                // Asking again does not make the message go away.
                (ctx.undisturbed(), ctx.undisturbed())
            });
            let port = kernel.external("main");
            port.send(holder, Message::signal(GO)).unwrap();
            held.recv().unwrap();
            port.send(holder, Message::signal(PING)).unwrap();
            release.send(()).unwrap();
            assert_eq!(reported.recv().unwrap(), (false, false), "{clock:?}");

            // With the message received the thread is undisturbed again.
            kernel.wait_quiescent();
            port.send(holder, Message::signal(GO)).unwrap();
            held.recv().unwrap();
            release.send(()).unwrap();
            assert_eq!(reported.recv().unwrap(), (true, true), "{clock:?}");
            drop(port);
            kernel.shutdown();
        });
    }
}

#[test]
fn waking_a_less_urgent_thread_does_not_disturb_the_running_one() {
    for clock in [ClockMode::Real, ClockMode::Virtual] {
        within(Duration::from_secs(30), move || {
            let kernel = Kernel::new(config(clock));
            let (background, handled) = spawn_counter(&kernel, Priority::LOW);
            let handled_in = Arc::clone(&handled);
            let (holder, held, release, reported) = spawn_holder(&kernel, move |ctx| {
                let stays = ctx.undisturbed() && ctx.undisturbed();
                (stays, handled_in.load(Ordering::SeqCst))
            });
            let port = kernel.external("main");
            port.send(holder, Message::signal(GO)).unwrap();
            held.recv().unwrap();
            port.send(background, Message::signal(PING)).unwrap();
            release.send(()).unwrap();
            // The holder kept the CPU: the woken thread had not run yet.
            assert_eq!(reported.recv().unwrap(), (true, 0), "{clock:?}");
            kernel.wait_quiescent();
            assert_eq!(handled.load(Ordering::SeqCst), 1, "{clock:?}");
            drop(port);
            kernel.shutdown();
        });
    }
}

#[test]
fn waking_a_more_urgent_thread_takes_the_cpu_and_gives_it_back() {
    for preemptive in [true, false] {
        within(Duration::from_secs(30), move || {
            let kernel = Kernel::new(KernelConfig {
                preemptive,
                ..KernelConfig::default()
            });
            let (urgent, handled) = spawn_counter(&kernel, Priority::HIGH);
            let handled_in = Arc::clone(&handled);
            let (holder, held, release, reported) = spawn_holder(&kernel, move |ctx| {
                (ctx.undisturbed(), handled_in.load(Ordering::SeqCst))
            });
            let port = kernel.external("main");
            port.send(holder, Message::signal(GO)).unwrap();
            held.recv().unwrap();
            port.send(urgent, Message::signal(PING)).unwrap();
            release.send(()).unwrap();
            // The check itself is where the urgent thread ran, and the
            // holder went on afterwards; a kernel that does not preempt
            // makes the urgent thread wait for the holder to block.
            let ran_first = u64::from(preemptive);
            assert_eq!(
                reported.recv().unwrap(),
                (true, ran_first),
                "preemptive: {preemptive}"
            );
            kernel.wait_quiescent();
            assert_eq!(handled.load(Ordering::SeqCst), 1);
            drop(port);
            kernel.shutdown();
        });
    }
}

#[test]
fn shutdown_disturbs_the_running_thread() {
    within(Duration::from_secs(30), || {
        let kernel = Kernel::new(KernelConfig::default());
        let (holder, held, release, reported) = spawn_holder(&kernel, |ctx| {
            // Shutdown begins on another OS thread once this one is let
            // go, and waits for this thread to return.
            while ctx.undisturbed() {
                std::thread::yield_now();
            }
        });
        let port = kernel.external("main");
        port.send(holder, Message::signal(GO)).unwrap();
        held.recv().unwrap();
        release.send(()).unwrap();
        drop(port);
        kernel.shutdown();
        reported.recv().unwrap();
    });
}
