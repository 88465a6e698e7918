//! `chain_direct` and `chain_coroutine`: one kernel, one pipeline, eight
//! stages between a `u64` source and a checking sink.
//!
//! The two differ in one thing only: four of the coroutine chain's
//! stages are active objects, so the planner *must* give each its own
//! coroutine. Same source, same pump, same sink, same values — the
//! ratio between their `items_per_s` is the paper's thesis as a number.

use super::{
    conclude, reference_digest, wait_done, Marker, RepeatCtx, RepeatResult, Script, ScriptSource,
    Shared, TracedRepeat, Verify, VerifySink,
};
use crate::gen;
use crate::trace::{key_meta, now_ns, SpanRoles, StageAdder};
use infopipes::helpers::{ActiveRelay, FnFunction, IdentityFn};
use infopipes::{FreePump, Item, Node, Pipeline, Typespec};
use mbthread::{Kernel, KernelConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Copy, Clone)]
enum StageKind {
    Identity,
    Fold,
    Active,
}
use StageKind::{Active, Fold, Identity};

struct ChainSpec {
    stages: &'static [StageKind],
    warm: u64,
    items: u64,
    /// Kernel threads the planner must report.
    threads: usize,
    /// Context switches each item must cost, exactly.
    switches_per_item: f64,
}

/// The paper's MIDI case: many tiny items, every stage a direct call.
const DIRECT: ChainSpec = ChainSpec {
    stages: &[
        Identity, Identity, Identity, Identity, Identity, Identity, Identity, Fold,
    ],
    warm: 25_000,
    items: 2_000_000,
    threads: 1,
    switches_per_item: 0.0,
};

/// The configuration that demands coroutines: each active object is
/// entered and left once per item.
const COROUTINE: ChainSpec = ChainSpec {
    stages: &[
        Identity, Active, Identity, Active, Identity, Active, Fold, Active,
    ],
    warm: 300,
    items: 60_000,
    threads: 5,
    switches_per_item: 8.0,
};

struct ChainVerify {
    seed: u64,
    /// Whether the chain holds the folding stage.
    folded: bool,
}

impl ChainVerify {
    fn expected(&self, seq: u64) -> u64 {
        let v = gen::value(self.seed, seq);
        if self.folded {
            gen::fold(v)
        } else {
            v
        }
    }
}

impl Verify for ChainVerify {
    type Payload = u64;

    fn seq(&self, meta_seq: u64, _: &u64) -> u64 {
        meta_seq
    }

    fn matches(&self, seq: u64, v: &u64) -> bool {
        *v == self.expected(seq)
    }

    fn fingerprint(&self, v: &u64) -> u64 {
        *v
    }
}

/// Builds and runs one chain to completion; `stages` may be empty (the
/// intercept of the `core.stage_ns` / `core.cycle_ns` fit).
fn run_chain(
    stages: &[StageKind],
    script: Script,
    ctx: &RepeatCtx,
    out: &mut RepeatResult,
) -> Option<infopipes::PlanReport> {
    let seed = ctx.seed;
    let verify = ChainVerify {
        seed,
        folded: stages.iter().any(|s| matches!(s, Fold)),
    };
    // The reference is computed before the clock starts: it is the
    // harness's work, not the program's set-up.
    let expected = reference_digest(script.total(), |seq| verify.expected(seq));

    let started_ns = now_ns();
    let kernel = Kernel::new(KernelConfig::default());
    let shared = Arc::new(Shared::default());
    let marker = Marker::new(vec![kernel.clone()], ctx.detailed, Box::new(Vec::new));

    let pipeline = Pipeline::new(&kernel, "chain");
    let add = StageAdder {
        pipeline: &pipeline,
        tracer: ctx.tracer.clone(),
    };
    let source = ScriptSource::new(Typespec::of::<u64>(), script, &shared, move |seq| {
        Item::cloneable(gen::value(seed, seq))
    });
    let mut nodes: Vec<Node<'_>> = vec![
        add.producer("source", "gen.source", key_meta, source),
        pipeline.add_pump("pump", FreePump::new()),
    ];
    for (i, kind) in stages.iter().enumerate() {
        let name = format!("s{i}");
        nodes.push(match kind {
            Identity => add.function(&name, "core.stage", key_meta, IdentityFn::new(&name)),
            Fold => add.function(
                &name,
                "core.stage",
                key_meta,
                FnFunction::new(&name, |x: u64| Some(gen::fold(x))),
            ),
            Active => pipeline.add_active(&name, ActiveRelay::new(&name)),
        });
    }
    let sink = VerifySink::new(verify, script, &shared, &marker);
    nodes.push(add.consumer("sink", "sink", key_meta, sink));
    for pair in nodes.windows(2) {
        pipeline.connect(pair[0], pair[1]).expect("chain connects");
    }

    let planning = Instant::now();
    let running = match pipeline.start() {
        Ok(r) => r,
        Err(e) => {
            out.faults.push(format!("pipeline did not start: {e}"));
            kernel.shutdown();
            return None;
        }
    };
    out.layers
        .insert("core.plan_start_ms", planning.elapsed().as_secs_f64() * 1e3);
    let report = running.report().clone();
    running.start_flow().expect("start flow");
    if let Err(why) = wait_done(&shared) {
        out.faults.push(why);
    }
    kernel.shutdown();

    conclude(out, &script, &shared, &marker, started_ns, expected);
    Some(report)
}

pub fn run_direct(ctx: &RepeatCtx) -> RepeatResult {
    run(&DIRECT, ctx)
}

pub fn run_coroutine(ctx: &RepeatCtx) -> RepeatResult {
    run(&COROUTINE, ctx)
}

fn run(spec: &ChainSpec, ctx: &RepeatCtx) -> RepeatResult {
    let script = Script {
        warm: ctx.scaled(spec.warm),
        closed: ctx.scaled(spec.items),
        window: u64::MAX,
        paced: 0,
        period_ns: 0,
        paced_window: 0,
    };
    let mut out = RepeatResult::default();
    let Some(report) = run_chain(spec.stages, script, ctx, &mut out) else {
        return out;
    };
    out.layers
        .insert("core.threads_planned", report.total_threads() as f64);
    if report.total_threads() != spec.threads {
        out.faults.push(format!(
            "planner allocated {} threads, expected {}:\n{report}",
            report.total_threads(),
            spec.threads
        ));
    }
    let switches = out.layers.get("mbthread.ctx_switches_per_item").copied();
    if switches.is_some_and(|s| s != spec.switches_per_item) {
        out.faults.push(format!(
            "{} context switches per item, expected exactly {}",
            switches.unwrap_or_default(),
            spec.switches_per_item
        ));
    }
    if let Some(tracer) = &ctx.tracer {
        let roles = SpanRoles {
            source: "gen.source",
            sink: "sink",
            transit: None,
        };
        out.trace = Some(TracedRepeat::collect(
            tracer,
            &roles,
            &script,
            "closed loop",
        ));
    }
    out
}

/// Per-item time of `chain_direct` with `stages` identity stages, in
/// nanoseconds — the two points of the `core.stage_ns` /
/// `core.cycle_ns` fit.
pub fn per_item_ns(stages: usize, items: u64, seed: u64) -> Option<f64> {
    let ctx = RepeatCtx {
        seed,
        shrink: 1,
        tracer: None,
        detailed: false,
    };
    let script = Script {
        warm: items / 10,
        closed: items,
        window: u64::MAX,
        paced: 0,
        period_ns: 0,
        paced_window: 0,
    };
    let mut out = RepeatResult::default();
    run_chain(&[Identity; 8][..stages], script, &ctx, &mut out)?;
    (out.faults.is_empty() && out.items_per_s > 0.0).then(|| 1e9 / out.items_per_s)
}
