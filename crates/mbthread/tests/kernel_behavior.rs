//! Behavioural tests for the message-based thread kernel: scheduling,
//! synchronous sends, timers, virtual time, priority inheritance, and
//! preemption.

use mbthread::{
    ClockMode, Constraint, Ctx, Envelope, Flow, Kernel, KernelConfig, KernelError, MatchSpec,
    Message, Priority, SpawnOptions, Tag, Time,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DATA: Tag = Tag(1);
const CTL: Tag = Tag(2);
const TICK: Tag = Tag(3);

type Log = Arc<Mutex<Vec<String>>>;

fn log(l: &Log, s: impl Into<String>) {
    l.lock().unwrap().push(s.into());
}

fn entries(l: &Log) -> Vec<String> {
    l.lock().unwrap().clone()
}

#[test]
fn sync_ping_pong_round_trips() {
    let kernel = Kernel::new(KernelConfig::default());
    let server = kernel
        .spawn("server", |ctx: &mut Ctx<'_>, mut env: Envelope| {
            let n: u64 = env.message_mut().take_body().unwrap();
            ctx.reply(&env, Message::new(DATA, n * 2)).unwrap();
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    for i in 0..100u64 {
        let reply = port.send_sync(server, Message::new(DATA, i)).unwrap();
        assert_eq!(reply.expect_body::<u64>(), i * 2);
    }
    kernel.shutdown();
}

#[test]
fn async_messages_are_fifo_per_sender() {
    let kernel = Kernel::new(KernelConfig::default());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let sink = kernel
        .spawn("sink", move |_: &mut Ctx<'_>, env: Envelope| {
            seen2.lock().unwrap().push(env.expect_body::<u64>());
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    for i in 0..50u64 {
        port.send(sink, Message::new(DATA, i)).unwrap();
    }
    kernel.wait_quiescent();
    assert_eq!(*seen.lock().unwrap(), (0..50).collect::<Vec<u64>>());
    kernel.shutdown();
}

#[test]
fn higher_priority_thread_is_scheduled_first() {
    // Queue work for a low- and a high-priority thread while the kernel is
    // busy, then observe which one runs first.
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));

    let mk = |name: &'static str, order: Log| {
        move |_: &mut Ctx<'_>, _env: Envelope| {
            log(&order, name);
            Flow::Continue
        }
    };
    let low = kernel
        .spawn(
            SpawnOptions::new("low").priority(Priority::LOW),
            mk("low", Arc::clone(&order)),
        )
        .unwrap();
    let high = kernel
        .spawn(
            SpawnOptions::new("high").priority(Priority::HIGH),
            mk("high", Arc::clone(&order)),
        )
        .unwrap();
    kernel.wait_quiescent();

    // A "gate" thread holds the CPU while both messages are enqueued, so
    // the scheduler has to choose between low and high when it blocks.
    let order2 = Arc::clone(&order);
    let gate = kernel
        .spawn("gate", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            ctx.send_with(low, Message::signal(DATA), None).unwrap();
            ctx.send_with(high, Message::signal(DATA), None).unwrap();
            log(&order2, "gate-done");
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(gate, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();

    let seen = entries(&order);
    // Waking `high` preempts the NORMAL-priority gate immediately; `low`
    // runs only after both have finished.
    assert_eq!(seen, vec!["high", "gate-done", "low"]);
    kernel.shutdown();
}

#[test]
fn preemption_hands_cpu_to_more_urgent_thread_mid_turn() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));

    let order_hi = Arc::clone(&order);
    let urgent = kernel
        .spawn(
            SpawnOptions::new("urgent").priority(Priority::CONTROL),
            move |_: &mut Ctx<'_>, _env: Envelope| {
                log(&order_hi, "urgent-ran");
                Flow::Continue
            },
        )
        .unwrap();
    kernel.wait_quiescent();

    let order_lo = Arc::clone(&order);
    let sender = kernel
        .spawn("sender", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            log(&order_lo, "before-send");
            // Waking a CONTROL-priority thread preempts us immediately.
            ctx.send_with(urgent, Message::signal(DATA), None).unwrap();
            log(&order_lo, "after-send");
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(sender, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();

    assert_eq!(
        entries(&order),
        vec!["before-send", "urgent-ran", "after-send"]
    );
    kernel.shutdown();
}

#[test]
fn non_preemptive_kernel_defers_urgent_thread() {
    let mut cfg = KernelConfig::virtual_time();
    cfg.preemptive = false;
    let kernel = Kernel::new(cfg);
    let order: Log = Arc::new(Mutex::new(Vec::new()));

    let order_hi = Arc::clone(&order);
    let urgent = kernel
        .spawn(
            SpawnOptions::new("urgent").priority(Priority::CONTROL),
            move |_: &mut Ctx<'_>, _env: Envelope| {
                log(&order_hi, "urgent-ran");
                Flow::Continue
            },
        )
        .unwrap();
    kernel.wait_quiescent();

    let order_lo = Arc::clone(&order);
    let sender = kernel
        .spawn("sender", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            ctx.send_with(urgent, Message::signal(DATA), None).unwrap();
            log(&order_lo, "after-send");
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(sender, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();

    assert_eq!(entries(&order), vec!["after-send", "urgent-ran"]);
    kernel.shutdown();
}

#[test]
fn virtual_clock_is_deterministic_for_timers() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let stamps2 = Arc::clone(&stamps);

    struct Ticker {
        period: Duration,
        remaining: u32,
        stamps: Arc<Mutex<Vec<Time>>>,
    }
    impl mbthread::CodeFn for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let at = ctx.now() + self.period;
            let _ = ctx.set_timer(at, Message::signal(TICK), None);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
            self.stamps.lock().unwrap().push(ctx.now());
            self.remaining -= 1;
            if self.remaining == 0 {
                return Flow::Stop;
            }
            let at = ctx.now() + self.period;
            let _ = ctx.set_timer(at, Message::signal(TICK), None);
            Flow::Continue
        }
    }

    kernel
        .spawn(
            "ticker",
            Ticker {
                period: Duration::from_millis(10),
                remaining: 5,
                stamps: stamps2,
            },
        )
        .unwrap();
    kernel.wait_quiescent();

    let got: Vec<u64> = stamps
        .lock()
        .unwrap()
        .iter()
        .map(|t| t.as_millis())
        .collect();
    assert_eq!(got, vec![10, 20, 30, 40, 50]);
    kernel.shutdown();
}

#[test]
fn sleep_until_orders_wakeups_by_deadline() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let mut ids = Vec::new();
    for (name, delay_ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
        let order = Arc::clone(&order);
        let id = kernel
            .spawn(name, move |ctx: &mut Ctx<'_>, _env: Envelope| {
                ctx.sleep(Duration::from_millis(delay_ms)).unwrap();
                log(&order, name);
                Flow::Stop
            })
            .unwrap();
        ids.push(id);
    }
    let port = kernel.external("test");
    // Kick all three threads.
    for id in ids {
        port.send(id, Message::signal(DATA)).unwrap();
    }
    kernel.wait_quiescent();
    assert_eq!(entries(&order), vec!["a", "b", "c"]);
    kernel.shutdown();
}

#[test]
fn wait_or_delivers_control_while_blocked_for_reply() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));

    // The "slow" peer replies only after it receives a NUDGE message.
    let slow = kernel
        .spawn("slow", |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.wants_reply() {
                // Hold the request until nudged.
                let nudge = ctx.receive_tags(&[TICK]).unwrap();
                drop(nudge);
                ctx.reply(&env, Message::signal(DATA)).unwrap();
            }
            Flow::Continue
        })
        .unwrap();

    let order2 = Arc::clone(&order);
    let client = kernel
        .spawn("client", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            let pending = ctx.begin_sync(slow, Message::signal(DATA)).unwrap();
            let mut pending = Some(pending);
            loop {
                match ctx.wait_or(pending.take().unwrap(), &[CTL]).unwrap() {
                    mbthread::SyncOutcome::Reply(_) => {
                        log(&order2, "reply");
                        break;
                    }
                    mbthread::SyncOutcome::Interrupted(p, ctl) => {
                        assert_eq!(ctl.tag(), CTL);
                        log(&order2, "control");
                        pending = Some(p);
                    }
                }
            }
            Flow::Stop
        })
        .unwrap();

    let port = kernel.external("test");
    port.send(client, Message::signal(DATA)).unwrap();
    // Let the client block on its sync send, then deliver a control event,
    // then let the peer reply.
    std::thread::sleep(Duration::from_millis(20));
    port.send(client, Message::signal(CTL)).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    port.send(slow, Message::signal(TICK)).unwrap();
    kernel.wait_quiescent();

    assert_eq!(entries(&order), vec!["control", "reply"]);
    kernel.shutdown();
}

#[test]
fn receive_matching_leaves_other_messages_queued() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let order2 = Arc::clone(&order);
    let t = kernel
        .spawn("selective", move |ctx: &mut Ctx<'_>, env: Envelope| {
            // First delivery: wait specifically for a CTL message even
            // though DATA messages arrive first.
            assert_eq!(env.tag(), Tag(0));
            let ctl = ctx.receive_tags(&[CTL]).unwrap();
            log(&order2, format!("got-{}", ctl.tag().0));
            // The earlier DATA messages are still queued, in order.
            let d1 = ctx.receive().unwrap();
            let d2 = ctx.receive().unwrap();
            log(&order2, format!("data-{}", d1.expect_body::<u64>()));
            log(&order2, format!("data-{}", d2.expect_body::<u64>()));
            Flow::Stop
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(t, Message::signal(Tag(0))).unwrap();
    port.send(t, Message::new(DATA, 1u64)).unwrap();
    port.send(t, Message::new(DATA, 2u64)).unwrap();
    port.send(t, Message::signal(CTL)).unwrap();
    kernel.wait_quiescent();
    assert_eq!(entries(&order), vec!["got-2", "data-1", "data-2"]);
    kernel.shutdown();
}

#[test]
fn priority_inheritance_resolves_inversion() {
    // Classic inversion: LOW is mid-way through processing an unconstrained
    // message when a HIGH-constraint request queues behind it and a MEDIUM
    // thread becomes runnable. With queue-based inheritance (§4), the
    // queued HIGH request raises LOW's effective priority, so LOW finishes
    // its work before MEDIUM runs; without inheritance, MEDIUM preempts
    // LOW and the HIGH requester is effectively inverted behind MEDIUM.
    for (inherit, expect_low_before_medium) in [(true, true), (false, false)] {
        let mut cfg = KernelConfig::virtual_time();
        cfg.priority_inheritance = inherit;
        let kernel = Kernel::new(cfg);
        let order: Log = Arc::new(Mutex::new(Vec::new()));

        // MEDIUM: logs each time it runs.
        let order_med = Arc::clone(&order);
        let medium = kernel
            .spawn(
                SpawnOptions::new("medium").priority(Priority::NORMAL),
                move |_: &mut Ctx<'_>, _env: Envelope| {
                    log(&order_med, "medium-ran");
                    Flow::Continue
                },
            )
            .unwrap();

        // LOW: first receives WORK (unconstrained, so it runs at static
        // LOW priority). Mid-work it triggers HIGH and MEDIUM, then keeps
        // working across several yields. It answers HIGH's request only in
        // a later code-function invocation.
        let order_low = Arc::clone(&order);
        let kernel2 = kernel.clone();
        let low = kernel
            .spawn(
                SpawnOptions::new("low").priority(Priority::LOW),
                move |ctx: &mut Ctx<'_>, env: Envelope| {
                    if env.wants_reply() {
                        log(&order_low, "low-replied");
                        ctx.reply(&env, Message::signal(DATA)).unwrap();
                        return Flow::Continue;
                    }
                    // WORK message: wake HIGH, which sync-sends to us and
                    // blocks; its request now sits in our queue.
                    let high = env.expect_body::<mbthread::ThreadId>();
                    ctx.send_with(high, Message::signal(DATA), None).unwrap();
                    // Make MEDIUM runnable, then do more "work".
                    ctx.send_with(medium, Message::signal(DATA), None).unwrap();
                    for _ in 0..3 {
                        ctx.yield_now().unwrap();
                    }
                    log(&order_low, "low-work-done");
                    let _ = &kernel2;
                    Flow::Continue
                },
            )
            .unwrap();

        // HIGH: sync-sends to LOW with a HIGH constraint.
        let order_high = Arc::clone(&order);
        let high = kernel
            .spawn(
                SpawnOptions::new("high").priority(Priority::HIGH),
                move |ctx: &mut Ctx<'_>, _env: Envelope| {
                    let pending = ctx
                        .begin_sync_with(
                            low,
                            Message::signal(DATA),
                            Some(Constraint::priority(Priority::HIGH)),
                        )
                        .unwrap();
                    ctx.wait(pending).unwrap();
                    log(&order_high, "high-done");
                    Flow::Stop
                },
            )
            .unwrap();
        kernel.wait_quiescent();

        let port = kernel.external("test");
        port.send(low, Message::new(DATA, high)).unwrap();
        kernel.wait_quiescent();

        let seen = entries(&order);
        let low_pos = seen.iter().position(|s| s == "low-work-done").unwrap();
        let med_pos = seen.iter().position(|s| s == "medium-ran").unwrap();
        if expect_low_before_medium {
            assert!(
                low_pos < med_pos,
                "with inheritance, low (boosted by the queued HIGH request) \
                 should finish before medium: {seen:?}"
            );
        } else {
            assert!(
                med_pos < low_pos,
                "without inheritance, medium preempts low: {seen:?}"
            );
        }
        kernel.shutdown();
    }
}

#[test]
fn peer_gone_detected_on_sync_send_to_dying_thread() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let quitter = kernel
        .spawn("quitter", |_: &mut Ctx<'_>, _env: Envelope| Flow::Stop)
        .unwrap();
    let result = Arc::new(Mutex::new(None));
    let result2 = Arc::clone(&result);
    let caller = kernel
        .spawn("caller", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            let r = ctx.send_sync(quitter, Message::signal(DATA));
            *result2.lock().unwrap() = Some(r.map(|_| ()));
            Flow::Stop
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(caller, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let got = result.lock().unwrap().take().unwrap();
    assert_eq!(got, Err(KernelError::PeerGone(quitter)));
    kernel.shutdown();
}

#[test]
fn timer_cancel_prevents_delivery() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let fired = Arc::new(Mutex::new(0u32));
    let fired2 = Arc::clone(&fired);
    let t = kernel
        .spawn("timed", move |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.tag() == TICK {
                *fired2.lock().unwrap() += 1;
                return Flow::Continue;
            }
            // Set two timers, cancel one.
            let keep = ctx.set_timer(
                ctx.now() + Duration::from_millis(5),
                Message::signal(TICK),
                None,
            );
            let cancel = ctx.set_timer(
                ctx.now() + Duration::from_millis(6),
                Message::signal(TICK),
                None,
            );
            assert!(ctx.cancel_timer(cancel));
            let _ = keep;
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(t, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    assert_eq!(*fired.lock().unwrap(), 1);
    assert_eq!(kernel.stats().timer_fires, 1);
    kernel.shutdown();
}

#[test]
fn context_switches_are_counted() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let a = kernel
        .spawn("a", |ctx: &mut Ctx<'_>, env: Envelope| {
            ctx.reply(&env, Message::signal(DATA)).unwrap();
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    for _ in 0..10 {
        port.send_sync(a, Message::signal(DATA)).unwrap();
    }
    let delta = kernel.stats().delta_since(&before);
    assert!(delta.messages_sent >= 20, "10 requests + 10 replies");
    assert_eq!(delta.sync_sends, 10);
    kernel.shutdown();
}

#[test]
fn stale_reply_is_rejected() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let server = kernel
        .spawn("server", move |ctx: &mut Ctx<'_>, env: Envelope| {
            let first = ctx.reply(&env, Message::signal(DATA));
            let second = ctx.reply(&env, Message::signal(DATA));
            seen2.lock().unwrap().push((first.is_ok(), second.is_err()));
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    port.send_sync(server, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    assert_eq!(*seen.lock().unwrap(), vec![(true, true)]);
    kernel.shutdown();
}

#[test]
fn real_clock_timers_fire() {
    assert_eq!(KernelConfig::default().clock, ClockMode::Real);
    let kernel = Kernel::new(KernelConfig::default());
    let fired = Arc::new(Mutex::new(false));
    let fired2 = Arc::clone(&fired);
    let t = kernel
        .spawn("rt", move |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.tag() == TICK {
                *fired2.lock().unwrap() = true;
                Flow::Stop
            } else {
                let _ = ctx.set_timer(
                    ctx.now() + Duration::from_millis(5),
                    Message::signal(TICK),
                    None,
                );
                Flow::Continue
            }
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(t, Message::signal(DATA)).unwrap();
    // Real time: give it a moment.
    std::thread::sleep(Duration::from_millis(100));
    assert!(*fired.lock().unwrap());
    kernel.shutdown();
}

#[test]
fn external_recv_timeout_expires() {
    let kernel = Kernel::new(KernelConfig::default());
    let port = kernel.external("test");
    let got = port.recv_timeout(&MatchSpec::Any, Duration::from_millis(10));
    assert!(got.is_none());
    kernel.shutdown();
}
