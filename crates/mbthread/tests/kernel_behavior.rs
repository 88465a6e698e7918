//! Behavioural tests for the message-based thread kernel: scheduling,
//! synchronous sends, timers, virtual time, priority inheritance, and
//! preemption.

use mbthread::{
    ClockMode, Constraint, Ctx, Envelope, Flow, Kernel, KernelConfig, KernelError, KernelStats,
    MatchSpec, Message, OnOsThread, PolledFn, Priority, SpawnOptions, SyncOutcome, Tag, ThreadId,
    Time,
};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// What a scenario cost the kernel: context switches, messages, sync sends.
type Cost = (u64, u64, u64);

fn cost_since(kernel: &Kernel, before: &KernelStats) -> Cost {
    let d = kernel.stats().delta_since(before);
    (d.context_switches, d.messages_sent, d.sync_sends)
}

/// Spawns `code` as a polled thread, or as the same code on an OS thread of
/// its own: a scenario run both ways must log the same and cost the same.
fn spawn_backed(
    kernel: &Kernel,
    polled: bool,
    opts: impl Into<SpawnOptions>,
    code: impl PolledFn,
) -> ThreadId {
    if polled {
        kernel.spawn_polled(opts, code)
    } else {
        kernel.spawn(opts, OnOsThread(code))
    }
    .unwrap()
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

/// Logs around an awaited send that wakes a more urgent thread.
struct SendsUrgent {
    urgent: ThreadId,
    log: Log,
}

impl PolledFn for SendsUrgent {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        log(&self.log, "before-send");
        // Waking a CONTROL-priority thread preempts us immediately.
        let send = ctx.send_with_async(self.urgent, Message::signal(DATA), None);
        send.await.unwrap();
        log(&self.log, "after-send");
        Flow::Continue
    }
}

#[test]
fn preemption_hands_cpu_to_more_urgent_thread_mid_turn() {
    let [os, polled] = [false, true].map(preempt_mid_turn);
    assert_eq!(os, polled);
    assert_eq!(os.0, vec!["before-send", "urgent-ran", "after-send"]);
}

fn preempt_mid_turn(polled: bool) -> (Vec<String>, Cost) {
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
    let log = Arc::clone(&order);
    let sender = spawn_backed(&kernel, polled, "sender", SendsUrgent { urgent, log });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    port.send(sender, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
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

/// Sleeps for `delay` on its first message, then logs its name and stops.
struct Sleeper {
    name: &'static str,
    delay: Duration,
    log: Log,
}

impl PolledFn for Sleeper {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let at = ctx.now() + self.delay;
        ctx.sleep_until_async(at).await.unwrap();
        log(&self.log, self.name);
        Flow::Stop
    }
}

#[test]
fn sleep_until_orders_wakeups_by_deadline() {
    let [os, polled] = [false, true].map(sleepers_wake);
    assert_eq!(os, polled);
    assert_eq!(os.0, vec!["a", "b", "c"]);
}

fn sleepers_wake(polled: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let ids = [("c", 30u64), ("a", 10), ("b", 20)].map(|(name, delay_ms)| {
        let sleeper = Sleeper {
            name,
            delay: Duration::from_millis(delay_ms),
            log: Arc::clone(&order),
        };
        spawn_backed(&kernel, polled, name, sleeper)
    });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    // Kick all three threads before the clock may jump to a deadline.
    let hold = kernel.freeze_clock();
    for id in ids {
        port.send(id, Message::signal(DATA)).unwrap();
    }
    hold.release();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
}

/// Calls `slow` with `CTL` as the interrupt tag, logging each interrupt and
/// the reply.
struct InterruptibleCall {
    slow: ThreadId,
    log: Log,
}

impl PolledFn for InterruptibleCall {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let mut outcome = ctx
            .call_async(self.slow, Message::signal(DATA), None, &[CTL])
            .await;
        loop {
            match outcome.unwrap() {
                SyncOutcome::Reply(_) => {
                    log(&self.log, "reply");
                    break;
                }
                SyncOutcome::Interrupted(pending, ctl) => {
                    assert_eq!(ctl.tag(), CTL);
                    log(&self.log, "control");
                    outcome = ctx.wait_or_async(pending, &[CTL]).await;
                }
            }
        }
        Flow::Stop
    }
}

#[test]
fn wait_or_delivers_control_while_blocked_for_reply() {
    // The blocking forms, then their async forms on either backing.
    let blocking = control_while_blocked(|kernel, slow, order| {
        kernel
            .spawn("client", move |ctx: &mut Ctx<'_>, _env: Envelope| {
                let mut outcome = ctx.call(slow, Message::signal(DATA), None, &[CTL]);
                loop {
                    match outcome.unwrap() {
                        SyncOutcome::Reply(_) => {
                            log(&order, "reply");
                            break;
                        }
                        SyncOutcome::Interrupted(pending, ctl) => {
                            assert_eq!(ctl.tag(), CTL);
                            log(&order, "control");
                            outcome = ctx.wait_or(pending, &[CTL]);
                        }
                    }
                }
                Flow::Stop
            })
            .unwrap()
    });
    let [os, polled] = [false, true].map(|polled| {
        control_while_blocked(|kernel, slow, log| {
            spawn_backed(kernel, polled, "client", InterruptibleCall { slow, log })
        })
    });
    assert_eq!(os, polled);
    assert_eq!(blocking, os);
    assert_eq!(os.0, vec!["control", "reply"]);
}

/// The client `spawn_client` makes calls a peer that replies only once
/// nudged, and gets a control message while it waits.
fn control_while_blocked(
    spawn_client: impl FnOnce(&Kernel, ThreadId, Log) -> ThreadId,
) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));

    // The "slow" peer replies only after it receives a nudge.
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
    let client = spawn_client(&kernel, slow, Arc::clone(&order));
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    // Let the client block on its sync send, then deliver a control event,
    // then let the peer reply.
    port.send(client, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    port.send(client, Message::signal(CTL)).unwrap();
    kernel.wait_quiescent();
    port.send(slow, Message::signal(TICK)).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
}

/// Waits specifically for a `CTL` message although `DATA` messages arrive
/// first, then takes those.
struct Selective {
    log: Log,
}

impl PolledFn for Selective {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        assert_eq!(env.tag(), Tag(0));
        let ctl = ctx.receive_tags_async(&[CTL]).await.unwrap();
        log(&self.log, format!("got-{}", ctl.tag().0));
        // The earlier DATA messages are still queued, in order.
        for _ in 0..2 {
            let data = ctx.receive_tags_async(&[DATA]).await.unwrap();
            log(&self.log, format!("data-{}", data.expect_body::<u64>()));
        }
        Flow::Stop
    }
}

#[test]
fn receive_matching_leaves_other_messages_queued() {
    let [os, polled] = [false, true].map(receive_selectively);
    assert_eq!(os, polled);
    assert_eq!(os.0, vec!["got-2", "data-1", "data-2"]);
}

fn receive_selectively(polled: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    let t = spawn_backed(&kernel, polled, "selective", Selective { log });
    // Queues all four in one turn, so `selective` runs only once they are
    // all there.
    let feeder = kernel
        .spawn("feeder", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            ctx.send(t, Message::signal(Tag(0))).unwrap();
            ctx.send(t, Message::new(DATA, 1u64)).unwrap();
            ctx.send(t, Message::new(DATA, 2u64)).unwrap();
            ctx.send(t, Message::signal(CTL)).unwrap();
            Flow::Continue
        })
        .unwrap();
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    port.send(feeder, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
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
                    ctx.call(
                        low,
                        Message::signal(DATA),
                        Some(Constraint::priority(Priority::HIGH)),
                        &[],
                    )
                    .unwrap();
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

/// Sends synchronously to `peer` and logs the outcome.
struct CallsPeer {
    peer: ThreadId,
    log: Log,
}

impl PolledFn for CallsPeer {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let r = ctx.call_async(self.peer, Message::signal(DATA), None, &[]);
        let r = r.await.map(|_| ());
        log(&self.log, format!("{r:?}"));
        Flow::Stop
    }
}

#[test]
fn peer_gone_detected_on_sync_send_to_dying_thread() {
    let [os, polled] = [false, true].map(call_a_quitter);
    assert_eq!(os, polled);
    let (log, quitter) = os.0;
    let gone: Result<(), _> = Err(KernelError::PeerGone(quitter));
    assert_eq!(log, vec![format!("{gone:?}")]);
}

fn call_a_quitter(polled: bool) -> ((Vec<String>, ThreadId), Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let quitter = kernel
        .spawn("quitter", |_: &mut Ctx<'_>, _env: Envelope| Flow::Stop)
        .unwrap();
    let log = Arc::clone(&order);
    let caller = spawn_backed(&kernel, polled, "caller", CallsPeer { peer: quitter, log });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    port.send(caller, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    ((entries(&order), quitter), cost)
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

/// Replies twice to each request and logs both outcomes.
struct RepliesTwice {
    log: Log,
}

impl PolledFn for RepliesTwice {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        let first = ctx.reply_async(&env, Message::signal(DATA)).await;
        let second = ctx.reply_async(&env, Message::signal(DATA)).await;
        log(&self.log, format!("{first:?} {second:?}"));
        Flow::Continue
    }
}

#[test]
fn stale_reply_is_rejected() {
    let [os, polled] = [false, true].map(reply_twice);
    assert_eq!(os, polled);
    assert_eq!(os.0, vec!["Ok(()) Err(StaleReply)"]);
}

fn reply_twice(polled: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    let server = spawn_backed(&kernel, polled, "server", RepliesTwice { log });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    port.send_sync(server, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
}

/// The tag a [`spawn_nudged`] peer answers with: no scenario's thread
/// sends it otherwise, so one that receives it got a reply.
const ANSWER: Tag = Tag(4);

/// Spawns a peer that holds each request until a `TICK` nudge, then
/// answers it with `ANSWER` and logs the outcome of its reply.
fn spawn_nudged(kernel: &Kernel, name: &'static str, order: &Log) -> ThreadId {
    let order = Arc::clone(order);
    kernel
        .spawn(name, move |ctx: &mut Ctx<'_>, env: Envelope| {
            if env.wants_reply() {
                drop(ctx.receive_tags(&[TICK]).unwrap());
                let r = ctx.reply(&env, Message::signal(ANSWER));
                log(&order, format!("{name} {r:?}"));
            }
            Flow::Continue
        })
        .unwrap()
}

/// On `DATA`, calls `peer` with `CTL` as the interrupt tag and drops the
/// wait at the interrupt; logs the tag of every other message.
struct GivesUp {
    peer: ThreadId,
    log: Log,
}

impl PolledFn for GivesUp {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        if env.tag() != DATA {
            log(&self.log, format!("got-{}", env.tag().0));
            return Flow::Continue;
        }
        let call = ctx.call_async(self.peer, Message::signal(DATA), None, &[CTL]);
        match call.await.unwrap() {
            SyncOutcome::Interrupted(pending, _) => {
                drop(pending);
                log(&self.log, "gave-up");
            }
            SyncOutcome::Reply(_) => log(&self.log, "reply"),
        }
        Flow::Continue
    }
}

#[test]
fn a_reply_after_the_wait_was_dropped_is_stale() {
    let [os, polled] = [false, true].map(reply_after_giving_up);
    assert_eq!(os, polled);
    // The late reply is refused, and only the later `TICK` reaches the
    // requester.
    assert_eq!(os.0, vec!["gave-up", "peer Err(StaleReply)", "got-3"]);
}

fn reply_after_giving_up(polled: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let peer = spawn_nudged(&kernel, "peer", &order);
    let log = Arc::clone(&order);
    let client = spawn_backed(&kernel, polled, "client", GivesUp { peer, log });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    for (to, tag) in [(client, DATA), (client, CTL), (peer, TICK), (client, TICK)] {
        port.send(to, Message::signal(tag)).unwrap();
        kernel.wait_quiescent();
    }
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
}

/// On `DATA`, calls `peer` with `CTL` as the interrupt tag; at the
/// interrupt, puts the outstanding wait into `stash` and terminates.
struct QuitsMidCall {
    peer: ThreadId,
    stash: Arc<Mutex<Option<mbthread::PendingReply>>>,
    log: Log,
}

impl PolledFn for QuitsMidCall {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let call = ctx.call_async(self.peer, Message::signal(DATA), None, &[CTL]);
        if let SyncOutcome::Interrupted(pending, _) = call.await.unwrap() {
            *self.stash.lock().unwrap() = Some(pending);
            log(&self.log, "quit");
        }
        Flow::Stop
    }
}

#[test]
fn a_reply_to_a_terminated_requester_fails() {
    let [os, polled] = [false, true].map(reply_to_a_quitter);
    assert_eq!(os, polled);
    let ((log, client), _) = os;
    let gone: Result<(), _> = Err(mbthread::SendError::UnknownThread(client));
    assert_eq!(log, vec!["quit".to_owned(), format!("peer {gone:?}")]);
}

fn reply_to_a_quitter(polled: bool) -> ((Vec<String>, ThreadId), Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let peer = spawn_nudged(&kernel, "peer", &order);
    let stash = Arc::new(Mutex::new(None));
    let code = QuitsMidCall {
        peer,
        stash: Arc::clone(&stash),
        log: Arc::clone(&order),
    };
    let client = spawn_backed(&kernel, polled, "client", code);
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    for (to, tag) in [(client, DATA), (client, CTL), (peer, TICK)] {
        port.send(to, Message::signal(tag)).unwrap();
        kernel.wait_quiescent();
    }
    let cost = cost_since(&kernel, &before);
    // The wait outlived its thread; dropping it now changes nothing.
    drop(stash.lock().unwrap().take());
    kernel.shutdown();
    ((entries(&order), client), cost)
}

/// On `DATA`, calls `outer` with `CTL` as the interrupt tag; at the
/// interrupt, calls `inner` before it resumes the wait for `outer`, so
/// two of its reply tokens are outstanding at once.
struct NestedCalls {
    outer: ThreadId,
    inner: ThreadId,
    log: Log,
}

impl PolledFn for NestedCalls {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let call = ctx.call_async(self.outer, Message::signal(DATA), None, &[CTL]);
        let SyncOutcome::Interrupted(pending, _) = call.await.unwrap() else {
            panic!("the interrupt comes before the outer reply");
        };
        let call = ctx.call_async(self.inner, Message::signal(DATA), None, &[]);
        if let SyncOutcome::Reply(env) = call.await.unwrap() {
            log(&self.log, format!("client inner-{}", env.tag().0));
        }
        let wait = ctx.wait_or_async(pending, &[CTL]);
        if let SyncOutcome::Reply(env) = wait.await.unwrap() {
            log(&self.log, format!("client outer-{}", env.tag().0));
        }
        Flow::Stop
    }
}

#[test]
fn two_outstanding_replies_are_accepted_in_either_order() {
    let [os, polled] = [false, true].map(|polled| nested_calls(polled, false));
    assert_eq!(os, polled);
    assert_eq!(
        os.0,
        vec![
            "inner Ok(())",
            "client inner-4",
            "outer Ok(())",
            "client outer-4"
        ]
    );
    // The outer reply lands while the client waits for the inner one,
    // and stays queued until the client resumes the outer wait.
    let [os, polled] = [false, true].map(|polled| nested_calls(polled, true));
    assert_eq!(os, polled);
    assert_eq!(
        os.0,
        vec![
            "outer Ok(())",
            "inner Ok(())",
            "client inner-4",
            "client outer-4"
        ]
    );
}

fn nested_calls(polled: bool, outer_first: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let outer = spawn_nudged(&kernel, "outer", &order);
    let inner = spawn_nudged(&kernel, "inner", &order);
    let log = Arc::clone(&order);
    let client = spawn_backed(&kernel, polled, "client", NestedCalls { outer, inner, log });
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    let nudges = if outer_first {
        [outer, inner]
    } else {
        [inner, outer]
    };
    let steps = [(client, DATA), (client, CTL)]
        .into_iter()
        .chain(nudges.map(|peer| (peer, TICK)));
    for (to, tag) in steps {
        port.send(to, Message::signal(tag)).unwrap();
        kernel.wait_quiescent();
    }
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
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

/// Answers every request with `DATA` and waits for the next one in the
/// same kernel operation, until the kernel shuts down.
fn spawn_replier(kernel: &Kernel) -> mbthread::ThreadId {
    kernel
        .spawn("replier", |ctx: &mut Ctx<'_>, mut env: Envelope| {
            while env.wants_reply() {
                match ctx.reply_and_receive(&env, Message::signal(DATA), &[DATA]) {
                    Ok(next) => env = next,
                    Err(_) => return Flow::Stop,
                }
            }
            Flow::Continue
        })
        .unwrap()
}

/// `spawn_replier`'s code on a polled thread.
struct PolledReplier;

impl PolledFn for PolledReplier {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, mut env: Envelope) -> Flow {
        while env.wants_reply() {
            let next = ctx.reply_and_receive_async(&env, Message::signal(DATA), &[DATA]);
            match next.await {
                Ok(next) => env = next,
                Err(_) => return Flow::Stop,
            }
        }
        Flow::Continue
    }
}

#[test]
fn call_and_reply_and_receive_round_trip_costs_two_switches() {
    for polled in [false, true] {
        call_round_trip(polled);
    }
}

/// The round trip against a replier on an OS thread or a polled one: the
/// kernel counts the same switches and messages either way.
fn call_round_trip(polled: bool) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let replier = if polled {
        kernel.spawn_polled("replier", PolledReplier).unwrap()
    } else {
        spawn_replier(&kernel)
    };
    let delta = Arc::new(Mutex::new(None));
    let delta2 = Arc::clone(&delta);
    let client = kernel
        .spawn("client", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            // The first request starts the replier's loop.
            ctx.send_sync(replier, Message::signal(DATA)).unwrap();
            let before = ctx.kernel().stats();
            let out = ctx.call(replier, Message::signal(DATA), None, &[CTL]);
            assert!(matches!(out, Ok(SyncOutcome::Reply(_))));
            *delta2.lock().unwrap() = Some(ctx.kernel().stats().delta_since(&before));
            Flow::Stop
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(client, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    let delta = delta.lock().unwrap().take().unwrap();
    assert_eq!(
        (
            delta.context_switches,
            delta.messages_sent,
            delta.sync_sends
        ),
        (2, 2, 1)
    );
    kernel.shutdown();
}

#[test]
fn a_received_request_becomes_the_current_constraint() {
    let at = |ms| {
        Some(Constraint::with_deadline(
            Priority::NORMAL,
            Time::from_millis(ms),
        ))
    };
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let probe = kernel.external("probe");
    let probe_id = probe.id();
    let server = kernel
        .spawn("server", move |ctx: &mut Ctx<'_>, first: Envelope| {
            let request = ctx
                .reply_and_receive(&first, Message::signal(DATA), &[DATA, TICK])
                .unwrap();
            assert!(request.wants_reply());
            ctx.send(probe_id, Message::signal(DATA)).unwrap();
            let tick = ctx
                .reply_and_receive(&request, Message::signal(DATA), &[DATA, TICK])
                .unwrap();
            assert!(!tick.wants_reply());
            ctx.send(probe_id, Message::signal(DATA)).unwrap();
            // The plain receive adopts the same way: a TICK, then a request.
            let tick = ctx.receive_tags(&[DATA, TICK]).unwrap();
            assert!(!tick.wants_reply());
            ctx.send(probe_id, Message::signal(DATA)).unwrap();
            let request = ctx.receive_tags(&[DATA, TICK]).unwrap();
            assert!(request.wants_reply());
            ctx.send(probe_id, Message::signal(DATA)).unwrap();
            ctx.reply(&request, Message::signal(DATA)).unwrap();
            Flow::Continue
        })
        .unwrap();
    let client = kernel
        .spawn("client", move |ctx: &mut Ctx<'_>, _env: Envelope| {
            ctx.call(server, Message::signal(DATA), at(1), &[]).unwrap();
            ctx.call(server, Message::signal(DATA), at(2), &[]).unwrap();
            ctx.send_with(server, Message::signal(TICK), at(3)).unwrap();
            ctx.send_with(server, Message::signal(TICK), at(5)).unwrap();
            ctx.call(server, Message::signal(DATA), at(4), &[]).unwrap();
            Flow::Stop
        })
        .unwrap();
    let port = kernel.external("test");
    port.send(client, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    // Each request's constraint governs the server's sends from the
    // moment it is received, whichever receive took it; the asynchronous
    // TICKs change nothing.
    let seen: Vec<_> = (0..4).map(|_| probe.recv().unwrap().constraint()).collect();
    assert_eq!(seen, vec![at(2), at(2), at(2), at(4)]);
    kernel.shutdown();
}

/// Holds the CPU until the test has queued its interrupt and made a more
/// urgent thread runnable, then calls `replier` with `CTL` as the
/// interrupt tag.
struct CallsIntoQueuedInterrupt {
    replier: ThreadId,
    running: std::sync::mpsc::Sender<()>,
    go: std::sync::mpsc::Receiver<()>,
    log: Log,
}

impl PolledFn for CallsIntoQueuedInterrupt {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        // An external send preempts nobody.
        self.running.send(()).unwrap();
        self.go.recv().unwrap();
        let mut outcome = ctx
            .call_async(self.replier, Message::signal(DATA), None, &[CTL])
            .await;
        loop {
            match outcome.unwrap() {
                SyncOutcome::Reply(_) => break,
                SyncOutcome::Interrupted(pending, _ctl) => {
                    log(&self.log, "interrupted");
                    outcome = ctx.wait_or_async(pending, &[CTL]).await;
                }
            }
        }
        log(&self.log, "reply");
        Flow::Stop
    }
}

#[test]
fn a_call_that_finds_its_interrupt_queued_is_a_preemption_point() {
    let [os, polled] = [false, true].map(call_into_queued_interrupt);
    assert_eq!(os, polled);
    assert_eq!(os.0, vec!["urgent-ran", "interrupted", "reply"]);
}

fn call_into_queued_interrupt(polled: bool) -> (Vec<String>, Cost) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let order: Log = Arc::new(Mutex::new(Vec::new()));
    let replier = spawn_replier(&kernel);
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
    let (running_tx, running_rx) = std::sync::mpsc::channel();
    let (go_tx, go_rx) = std::sync::mpsc::channel();
    let code = CallsIntoQueuedInterrupt {
        replier,
        running: running_tx,
        go: go_rx,
        log: Arc::clone(&order),
    };
    let caller = spawn_backed(&kernel, polled, "caller", code);
    let port = kernel.external("test");
    kernel.wait_quiescent();
    let before = kernel.stats();
    port.send(caller, Message::signal(DATA)).unwrap();
    running_rx.recv().unwrap();
    port.send(urgent, Message::signal(DATA)).unwrap();
    port.send(caller, Message::signal(CTL)).unwrap();
    go_tx.send(()).unwrap();
    kernel.wait_quiescent();
    let cost = cost_since(&kernel, &before);
    kernel.shutdown();
    (entries(&order), cost)
}

/// A polled thread that calls a blocking form: a call to `target`, or
/// with none a sleep.
struct CallsBlockingForm {
    target: Option<ThreadId>,
}

impl PolledFn for CallsBlockingForm {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        match self.target {
            Some(target) => drop(ctx.call(target, Message::signal(DATA), None, &[])),
            None => drop(ctx.sleep(Duration::from_secs(1))),
        }
        Flow::Continue
    }
}

/// Runs `code` on a polled thread, whose blocking form panics, and checks
/// that the form left the kernel untouched; `kernel.shutdown` then
/// re-panics with the form's message.
fn blocking_form_on_a_polled_thread(code: impl FnOnce(&Kernel) -> CallsBlockingForm) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let blocker = kernel.spawn_polled("blocker", code(&kernel)).unwrap();
    kernel.wait_quiescent();
    let before = kernel.stats();
    let port = kernel.external("main");
    port.send(blocker, Message::signal(DATA)).unwrap();
    kernel.wait_quiescent();
    // The panic came before the operation reached the kernel: no request
    // was queued, no sleep begun.
    assert_eq!(kernel.stats().delta_since(&before).sync_sends, 0);
    let dump = kernel.thread_dump();
    for name in ["target", "blocker"] {
        let line = dump.lines().find(|l| l.contains(name));
        if let Some(line) = line {
            assert!(line.contains("queued=0 "), "{dump}");
            assert!(line.contains("sleeping=false "), "{dump}");
        }
    }
    kernel.shutdown();
}

#[test]
#[should_panic(
    expected = "kernel thread 'blocker' panicked: Ctx::call blocks, and thread:1 is a polled thread: use its async form"
)]
fn a_blocking_call_on_a_polled_thread_fails_before_it_touches_the_kernel() {
    blocking_form_on_a_polled_thread(|kernel| CallsBlockingForm {
        target: Some(kernel.external("target").id()),
    });
}

#[test]
#[should_panic(
    expected = "kernel thread 'blocker' panicked: Ctx::sleep blocks, and thread:0 is a polled thread: use its async form"
)]
fn a_blocking_sleep_on_a_polled_thread_fails_before_it_touches_the_kernel() {
    blocking_form_on_a_polled_thread(|_| CallsBlockingForm { target: None });
}

/// A polled thread's code that panics on its first message.
struct Bomb;

impl PolledFn for Bomb {
    async fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        panic!("boom")
    }
}

#[test]
#[should_panic(expected = "kernel thread 'bomb' panicked: boom")]
fn a_polled_thread_panic_poisons_the_kernel() {
    let kernel = Kernel::new(KernelConfig::default());
    let bomb = kernel.spawn_polled("bomb", Bomb).unwrap();
    // Granted from outside the kernel, the bomb is polled by the
    // dispatcher, which must survive the panic to shut down.
    kernel
        .external("main")
        .send(bomb, Message::signal(DATA))
        .unwrap();
    kernel.wait_quiescent();
    kernel.shutdown();
}

/// Locks the kernel mutex when dropped, which deadlocks a drop made under
/// that mutex.
struct LocksOnDrop {
    kernel: Kernel,
    dropped: Arc<AtomicBool>,
}

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        let dump = self.kernel.thread_dump();
        self.dropped.store(dump.contains("stuck"), Ordering::SeqCst);
    }
}

/// A polled thread that blocks for a reply that never comes.
struct Stuck {
    server: ThreadId,
    _guard: LocksOnDrop,
}

impl PolledFn for Stuck {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) -> Flow {
        let _ = ctx
            .call_async(self.server, Message::signal(DATA), None, &[])
            .await;
        Flow::Continue
    }
}

#[test]
fn shutdown_drops_a_blocked_polled_thread_outside_the_kernel_mutex() {
    let kernel = Kernel::new(KernelConfig::default());
    // Takes the request and never answers it.
    let server = kernel
        .spawn("server", |_: &mut Ctx<'_>, _: Envelope| Flow::Continue)
        .unwrap();
    let dropped = Arc::new(AtomicBool::new(false));
    let stuck = Stuck {
        server,
        _guard: LocksOnDrop {
            kernel: kernel.clone(),
            dropped: Arc::clone(&dropped),
        },
    };
    let stuck = kernel.spawn_polled("stuck", stuck).unwrap();
    kernel
        .external("main")
        .send(stuck, Message::signal(DATA))
        .unwrap();
    kernel.wait_quiescent();
    assert!(!dropped.load(Ordering::SeqCst));
    kernel.shutdown();
    assert!(
        dropped.load(Ordering::SeqCst),
        "the blocked body was dropped"
    );
}

/// Answers every request at once.
struct Replier;

impl PolledFn for Replier {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        let reply = ctx.reply_async(&env, Message::signal(DATA));
        reply.await.unwrap();
        Flow::Continue
    }
}

/// A kernel where an OS-backed client `call`s a polled replier, beside
/// `idle` polled threads blocked in their main receive; each `TICK` to the
/// client times `ROUND_TRIPS` calls and sends the time to `times`.
fn round_trip_kernel(idle: usize, times: std::sync::mpsc::Sender<Duration>) -> (Kernel, ThreadId) {
    const ROUND_TRIPS: u32 = 20_000;
    let kernel = Kernel::new(KernelConfig::default());
    for i in 0..idle {
        kernel.spawn_polled(format!("idle-{i}"), Replier).unwrap();
    }
    let replier = kernel.spawn_polled("replier", Replier).unwrap();
    let client = kernel
        .spawn("client", move |ctx: &mut Ctx<'_>, _: Envelope| {
            let start = std::time::Instant::now();
            for _ in 0..ROUND_TRIPS {
                ctx.send_sync(replier, Message::signal(DATA)).unwrap();
            }
            times.send(start.elapsed()).unwrap();
            Flow::Continue
        })
        .unwrap();
    kernel.wait_quiescent();
    (kernel, client)
}

#[test]
fn a_round_trip_costs_the_same_beside_a_thousand_idle_threads() {
    // Picks walk the threads that want the CPU and donations walk the
    // waiter lists, so threads that wait for a message cost a hand-off
    // nothing. The idle threads are polled: they need no OS thread.
    let (tx, rx) = std::sync::mpsc::channel();
    let kernels = [
        round_trip_kernel(0, tx.clone()),
        round_trip_kernel(1024, tx),
    ];
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..5 {
        for (side, (kernel, client)) in kernels.iter().enumerate() {
            let port = kernel.external("kick");
            port.send(*client, Message::signal(TICK)).unwrap();
            times[side].push(rx.recv_timeout(Duration::from_secs(60)).unwrap());
        }
    }
    for (kernel, _) in &kernels {
        kernel.shutdown();
    }
    let [bare, crowded] = times.map(|mut t| {
        t.sort_unstable();
        t[t.len() / 2].as_secs_f64()
    });
    let ratio = crowded / bare;
    eprintln!("round trip beside 1024 idle threads / beside none: {ratio:.3}");
    assert!(
        ratio <= 1.5,
        "a round trip beside 1024 idle threads costs {ratio:.2}x"
    );
}

/// Tags of the counting scenario; `DATA` is the payload the external
/// senders send.
const START: Tag = Tag(5);
const GO: Tag = Tag(6);
const REQ: Tag = Tag(7);
const FINISH: Tag = Tag(8);

/// How many calls the client of the counting scenario makes.
const CALLS: u64 = 20_000;

/// What a thread of the counting scenario does in its one turn, from
/// `START` to `FINISH`.
#[derive(Copy, Clone)]
enum Role {
    /// Answers `REQ` calls.
    Server,
    /// Waits for `GO`, then makes `CALLS` calls to this server.
    Client(ThreadId),
    /// Only waits: the external senders' `DATA` piles up in its mailbox
    /// without waking it.
    Sink,
}

/// A thread of the counting scenario: it counts the `DATA` it takes
/// once its turn has ended.
struct Counted {
    role: Role,
    data: Arc<std::sync::atomic::AtomicU64>,
}

impl PolledFn for Counted {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        if env.tag() == DATA {
            self.data.fetch_add(1, Ordering::Relaxed);
            return Flow::Continue;
        }
        assert_eq!(env.tag(), START);
        match self.role {
            Role::Server => {
                let mut next = ctx.receive_tags_async(&[REQ, FINISH]).await.unwrap();
                while next.tag() == REQ {
                    let reply =
                        ctx.reply_and_receive_async(&next, Message::signal(REQ), &[REQ, FINISH]);
                    next = reply.await.unwrap();
                }
            }
            Role::Client(server) => {
                ctx.receive_tags_async(&[GO]).await.unwrap();
                for _ in 0..CALLS {
                    let call = ctx.call_async(server, Message::signal(REQ), None, &[]);
                    call.await.unwrap();
                }
                ctx.receive_tags_async(&[FINISH]).await.unwrap();
            }
            Role::Sink => drop(ctx.receive_tags_async(&[FINISH]).await.unwrap()),
        }
        Flow::Continue
    }
}

#[test]
fn counters_stay_exact_under_concurrent_senders() {
    for polled in [false, true] {
        counts_under_concurrent_senders(polled);
    }
}

/// Four OS threads each send `DATA` to a kernel thread through ports of
/// their own while a client and a server exchange synchronous calls:
/// every message, switch and synchronous send is counted once, under the
/// kernel mutex, whichever OS thread makes it.
fn counts_under_concurrent_senders(polled: bool) {
    const SENDERS: u64 = 4;
    const EACH: u64 = 20_000;
    let kernel = Kernel::new(KernelConfig::default());
    let data = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let spawn = |name, role| {
        let data = Arc::clone(&data);
        spawn_backed(&kernel, polled, name, Counted { role, data })
    };
    let server = spawn("server", Role::Server);
    let sink = spawn("sink", Role::Sink);
    let client = spawn("client", Role::Client(server));
    let port = kernel.external("test");
    kernel.wait_quiescent();
    // Every thread enters its turn and waits in it, the client last, so
    // the CPU was last the client's when counting starts.
    for to in [server, sink, client] {
        port.send(to, Message::signal(START)).unwrap();
        kernel.wait_quiescent();
    }
    let before = kernel.stats();
    // The senders start together with the exchange.
    let start = Arc::new(std::sync::Barrier::new(SENDERS as usize + 1));
    let senders: Vec<_> = (0..SENDERS)
        .map(|i| {
            let port = kernel.external(&format!("sender-{i}"));
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..EACH {
                    port.send(sink, Message::signal(DATA)).unwrap();
                }
            })
        })
        .collect();
    start.wait();
    port.send(client, Message::signal(GO)).unwrap();
    for sender in senders {
        sender.join().unwrap();
    }
    kernel.wait_quiescent();
    for to in [server, client, sink] {
        port.send(to, Message::signal(FINISH)).unwrap();
        kernel.wait_quiescent();
    }
    let d = kernel.stats().delta_since(&before);
    kernel.shutdown();
    assert_eq!(data.load(Ordering::Relaxed), SENDERS * EACH, "DATA taken");
    // `GO`, three `FINISH`es, the senders' `DATA`, and a request and a
    // reply per call.
    assert_eq!(d.messages_sent, 4 + SENDERS * EACH + 2 * CALLS, "messages");
    assert_eq!(d.sync_sends, CALLS, "sync sends");
    // `DATA` wakes nobody, and `GO` finds the CPU last the client's: two
    // switches per call, and one to each thread at its `FINISH`.
    assert_eq!(d.context_switches, 2 * CALLS + 3, "switches");
}
