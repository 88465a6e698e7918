//! E8 — §4's priority inheritance: a HIGH-priority thread synchronously
//! waits on a LOW-priority thread while MEDIUM-priority threads compete
//! for the CPU. With the inheritance scheme the queued HIGH request
//! boosts LOW; without it, LOW starves and the HIGH thread is inverted.
//!
//! Reported: how many MEDIUM work units run while HIGH waits (0 is
//! perfect), plus the wall time of the scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbthread::{
    Constraint, Ctx, Envelope, Flow, Kernel, KernelConfig, Message, Priority, SpawnOptions, Tag,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORK: Tag = Tag(1);
const REQ: Tag = Tag(2);

/// Runs the inversion scenario once; returns the number of MEDIUM work
/// units that executed while the HIGH request was outstanding.
fn run_scenario(inheritance: bool) -> u64 {
    let mut cfg = KernelConfig::virtual_time();
    cfg.priority_inheritance = inheritance;
    let kernel = Kernel::new(cfg);

    let medium_units = Arc::new(AtomicU64::new(0));
    let units_while_waiting = Arc::new(AtomicU64::new(0));

    // MEDIUM: each message is one work unit; it re-posts itself a bounded
    // number of times so the scenario terminates.
    let medium_units2 = Arc::clone(&medium_units);
    let medium = kernel
        .spawn(
            SpawnOptions::new("medium").priority(Priority::NORMAL),
            move |ctx: &mut Ctx<'_>, env: Envelope| {
                medium_units2.fetch_add(1, Ordering::Relaxed);
                let round: u64 = env.expect_body::<u64>();
                if round < 200 {
                    let me = ctx.id();
                    let _ = ctx.send_with(me, Message::new(WORK, round + 1), None);
                }
                Flow::Continue
            },
        )
        .expect("spawn medium");

    // LOW: processes an unconstrained warm-up message with several yields
    // (so the HIGH request queues behind it), then answers requests.
    let low = kernel
        .spawn(
            SpawnOptions::new("low").priority(Priority::LOW),
            move |ctx: &mut Ctx<'_>, env: Envelope| {
                if env.wants_reply() {
                    let _ = ctx.reply(&env, Message::signal(REQ));
                    return Flow::Continue;
                }
                // The "critical section": scheduling-visible work steps.
                for _ in 0..20 {
                    let _ = ctx.yield_now();
                }
                Flow::Continue
            },
        )
        .expect("spawn low");

    // HIGH: triggers LOW's critical section and MEDIUM's storm, then
    // sync-sends to LOW and counts the medium units that ran meanwhile.
    let medium_units3 = Arc::clone(&medium_units);
    let observed = Arc::clone(&units_while_waiting);
    let high = kernel
        .spawn(
            SpawnOptions::new("high").priority(Priority::HIGH),
            move |ctx: &mut Ctx<'_>, _env: Envelope| {
                let _ = ctx.send_with(low, Message::signal(WORK), None);
                let _ = ctx.send_with(medium, Message::new(WORK, 0u64), None);
                let before = medium_units3.load(Ordering::Relaxed);
                let _ = ctx.call(
                    low,
                    Message::signal(REQ),
                    Some(Constraint::priority(Priority::HIGH)),
                    &[],
                );
                let after = medium_units3.load(Ordering::Relaxed);
                observed.store(after - before, Ordering::Relaxed);
                Flow::Stop
            },
        )
        .expect("spawn high");

    let port = kernel.external("bench");
    port.send(high, Message::signal(WORK)).expect("kick");
    kernel.wait_quiescent();
    kernel.shutdown();
    units_while_waiting.load(Ordering::Relaxed)
}

fn bench_inheritance(c: &mut Criterion) {
    let with = run_scenario(true);
    let without = run_scenario(false);
    println!(
        "medium work units executed while HIGH waited on LOW: \
         with inheritance {with}, without {without}"
    );
    assert!(
        with < without,
        "inheritance must reduce inversion: {with} vs {without}"
    );

    let mut group = c.benchmark_group("priority_inheritance");
    group.sample_size(10);
    for (label, on) in [("with", true), ("without", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &on, |b, &on| {
            b.iter(|| run_scenario(on));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inheritance);
criterion_main!(benches);
