//! The section tree: one data structure from planner to thread.
//!
//! The planner ([`crate::plan`]) builds a section as these trees. A stage
//! whose style matches its mode is a direct-call node; any other is a
//! `Planned` coroutine holding the stage and the part of the tree it will
//! own. Each maximal run of adjacent function stages is one `Run` node,
//! which passes an item through its stages in one loop. Launch walks each
//! tree once more, after *every* section has validated, and turns each
//! `Planned` node into `Coro(ThreadId)` in place, innermost first. From
//! then on a thread (section owner or coroutine) interprets data movement
//! through the contiguous run of direct stages adjacent to it, and where
//! a `Coro` sits the data crosses over as a synchronous message
//! round-trip — activity travels with the data (Fig. 5).
//!
//! A tree is walked in one of two ways. `pull`/`push` call every node
//! and block at a coroutine or a buffer (through `block_on`): a section
//! owner, an OS-backed coroutine and every passive stage walk so.
//! `pull_async`/`push_async` await the run at the walker's end of the
//! tree and the boundary beyond it, and call anything else as `pull`/
//! `push` do: an active object walks so, and it is what lets its
//! coroutine be polled. `polled` is the planner's test for that.

use super::coroutine::{spawn_coroutine, CoroTree};
use super::stagectx::{GetWiring, PutWiring, StageCtx};
use super::{send_wakeups, Pulled, PushRes, RtState, Shared};
use crate::buffer::BufHandle;
use crate::error::PipeError;
use crate::events::tags;
use crate::graph::NodeId;
use crate::item::Item;
use crate::plan::Exec;
use crate::stage::{Consumer, Function, Producer, Stage, Style};
use crate::tee::SplitKind;
use mbthread::{block_on, Constraint, Ctx, Message, Priority, ThreadId};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Data reached a node the planner built and launch never spawned.
const UNSPAWNED: &str = "launch spawns every planned coroutine before the flow starts";

/// Adjacent function stages, in flow order (source to sink).
pub(crate) type Run = Vec<(NodeId, Box<dyn Function>)>;

/// Passes `item` through each stage of a run in turn; `None` once a stage
/// drops it.
fn convert_run(stages: &mut Run, mut item: Item) -> Option<Item> {
    for (_, stage) in stages {
        item = stage.convert(item)?;
    }
    Some(item)
}

/// The pull-side (upstream) chain owned by one thread.
pub(crate) enum PullNode {
    Producer {
        id: NodeId,
        stage: Box<dyn Producer>,
        up: Box<PullNode>,
    },
    /// A run of adjacent function stages, in flow order, fed by `up`.
    Run {
        stages: Run,
        up: Box<PullNode>,
    },
    /// A consumer or active object: a coroutine the planner placed and
    /// launch has yet to spawn, owning everything further upstream.
    Planned {
        id: NodeId,
        style: Style,
        up: Box<PullNode>,
    },
    /// The chain continues on another thread.
    Coro(ThreadId),
    Buffer(BufHandle),
    /// Nothing upstream (the chain began at a source stage).
    Origin,
}

impl PullNode {
    /// Direct call or coroutine, as the planner's `match` decided it.
    pub(crate) fn exec(&self) -> Exec {
        match self {
            PullNode::Planned { .. } | PullNode::Coro(_) => Exec::Coroutine,
            _ => Exec::Direct,
        }
    }

    /// Whether this planned coroutine runs polled: it is an active object
    /// (a passive stage's own `pull` or `push` needs a real stack), and
    /// everything it calls directly runs without blocking. Its
    /// `pull_async` crosses a leading run and the boundary beyond it; a
    /// producer there is called plainly, so the chain behind that must
    /// reach no coroutine and no buffer (a buffer's wake-ups are
    /// preemption points).
    pub(crate) fn polled(&self) -> bool {
        let PullNode::Planned { style, up, .. } = self else {
            return false;
        };
        let beyond_run = match &**up {
            PullNode::Run { up, .. } => &**up,
            node => node,
        };
        matches!(style, Style::Active(_))
            && match beyond_run {
                PullNode::Producer { .. } => beyond_run.never_blocks(),
                _ => true,
            }
    }

    /// Whether pulling through this chain never blocks.
    fn never_blocks(&self) -> bool {
        match self {
            PullNode::Origin => true,
            PullNode::Producer { up, .. } | PullNode::Run { up, .. } => up.never_blocks(),
            PullNode::Planned { .. } | PullNode::Coro(_) | PullNode::Buffer(_) => false,
        }
    }

    /// Spawns the thread of every planned coroutine of this chain,
    /// innermost (furthest upstream) first, so that each coroutine takes
    /// the already spawned chain above it along. The direct stages left on
    /// the calling thread are appended to `local_stages`, for the routing
    /// table entry the caller makes once its own thread id is known.
    pub(crate) fn spawn_coroutines(
        &mut self,
        shared: &Arc<Shared>,
        priority: Priority,
        local_stages: &mut Vec<NodeId>,
    ) -> Result<(), PipeError> {
        let polled = self.polled();
        *self = match std::mem::replace(self, PullNode::Origin) {
            PullNode::Planned { id, style, mut up } => {
                let mut stages = vec![id];
                up.spawn_coroutines(shared, priority, &mut stages)?;
                let tree = CoroTree::AnswersGets(*up);
                let tid = spawn_coroutine(shared, id, style, tree, priority, stages, polled)?;
                PullNode::Coro(tid)
            }
            mut node => {
                match &mut node {
                    PullNode::Producer { id, up, .. } => {
                        local_stages.push(*id);
                        up.spawn_coroutines(shared, priority, local_stages)?;
                    }
                    PullNode::Run { stages, up } => {
                        local_stages.extend(stages.iter().rev().map(|(id, _)| *id));
                        up.spawn_coroutines(shared, priority, local_stages)?;
                    }
                    _ => {}
                }
                node
            }
        };
        Ok(())
    }

    /// Pulls the next item through this chain, blocking where it waits.
    pub(crate) fn pull(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        match self {
            PullNode::Origin => Pulled::Eos,
            node @ (PullNode::Buffer(_) | PullNode::Coro(_)) => {
                block_on(|| node.pull_async(ctx, rt))
            }
            PullNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PullNode::Run { stages, up } => loop {
                match up.pull(ctx, rt) {
                    Pulled::Item(x) => {
                        if let Some(y) = convert_run(stages, x) {
                            return Pulled::Item(y);
                        }
                        // Dropped: keep pulling — in pull mode a dropping
                        // filter turns one downstream pull into several
                        // upstream pulls.
                    }
                    other => return other,
                }
            },
            PullNode::Producer { stage, up, .. } => {
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Tree(up), PutWiring::None);
                match stage.pull(&mut sctx) {
                    Some(item) => Pulled::Item(item),
                    None => sctx.none_reason(),
                }
            }
        }
    }

    /// [`PullNode::pull`] for a thread that may suspend: a leading run
    /// and the boundary beyond it are awaited. A coroutine beyond it is
    /// asked with a `GET` here, with the kernel operations awaited in
    /// place.
    pub(crate) async fn pull_async(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        let (mut run, beyond) = match self {
            PullNode::Run { stages, up } => (Some(stages), &mut **up),
            node => (None, node),
        };
        loop {
            let pulled = match &mut *beyond {
                PullNode::Buffer(h) => rt.buffer_take(ctx, h).await,
                PullNode::Coro(t) => {
                    let Some(request) = rt.request(tags::GET, None) else {
                        return Pulled::Interrupted;
                    };
                    let mut outcome = ctx.call_async(*t, request, None, tags::INTERRUPTS).await;
                    loop {
                        let pending = match rt.replied(outcome) {
                            ControlFlow::Break(pulled) => break pulled,
                            ControlFlow::Continue(pending) => pending,
                        };
                        outcome = ctx.wait_or_async(pending, tags::INTERRUPTS).await;
                    }
                }
                node => node.pull(ctx, rt),
            };
            match (pulled, run.as_deref_mut()) {
                (Pulled::Item(x), Some(stages)) => {
                    if let Some(y) = convert_run(stages, x) {
                        return Pulled::Item(y);
                    }
                    // Dropped by the run: pull again.
                }
                (pulled, _) => return pulled,
            }
        }
    }

    /// Visits every stage in this thread's chain (not crossing coroutine
    /// or buffer boundaries), nearest the owner first.
    pub(crate) fn for_each_stage(&mut self, f: &mut dyn FnMut(NodeId, &mut dyn Stage)) {
        match self {
            PullNode::Producer { id, stage, up } => {
                f(*id, stage.as_mut());
                up.for_each_stage(f);
            }
            PullNode::Run { stages, up } => {
                for (id, stage) in stages.iter_mut().rev() {
                    f(*id, stage.as_mut());
                }
                up.for_each_stage(f);
            }
            PullNode::Planned { .. }
            | PullNode::Coro(_)
            | PullNode::Buffer(_)
            | PullNode::Origin => {}
        }
    }

    /// The nearest upstream buffer reachable without crossing a coroutine,
    /// for `OnArrival` pump parking.
    pub(crate) fn nearest_buffer(&self) -> Option<BufHandle> {
        match self {
            PullNode::Buffer(h) => Some(h.clone()),
            PullNode::Producer { up, .. } | PullNode::Run { up, .. } => up.nearest_buffer(),
            PullNode::Planned { .. } | PullNode::Coro(_) | PullNode::Origin => None,
        }
    }
}

/// The push-side (downstream) tree owned by one thread.
pub(crate) enum PushNode {
    Consumer {
        id: NodeId,
        stage: Box<dyn Consumer>,
        down: Box<PushNode>,
    },
    /// A run of adjacent function stages, in flow order, feeding `down`.
    Run {
        stages: Run,
        down: Box<PushNode>,
    },
    Split {
        kind: SplitKind,
        branches: Vec<PushNode>,
    },
    /// A producer or active object: a coroutine the planner placed and
    /// launch has yet to spawn, owning everything further downstream.
    Planned {
        id: NodeId,
        style: Style,
        down: Box<PushNode>,
    },
    /// The tree continues on another thread.
    Coro(ThreadId),
    Buffer(BufHandle),
    /// Nothing downstream (the tree ended at a sink stage).
    End,
}

impl PushNode {
    /// Direct call or coroutine, as the planner's `match` decided it.
    pub(crate) fn exec(&self) -> Exec {
        match self {
            PushNode::Planned { .. } | PushNode::Coro(_) => Exec::Coroutine,
            _ => Exec::Direct,
        }
    }

    /// [`PullNode::polled`] for a push-position coroutine: a consumer or a
    /// tee beyond its leading run must reach no coroutine and no buffer.
    pub(crate) fn polled(&self) -> bool {
        let PushNode::Planned { style, down, .. } = self else {
            return false;
        };
        let beyond_run = match &**down {
            PushNode::Run { down, .. } => &**down,
            node => node,
        };
        matches!(style, Style::Active(_))
            && match beyond_run {
                PushNode::Consumer { .. } | PushNode::Split { .. } => beyond_run.never_blocks(),
                _ => true,
            }
    }

    /// Whether pushing through this tree never blocks.
    fn never_blocks(&self) -> bool {
        match self {
            PushNode::End => true,
            PushNode::Consumer { down, .. } | PushNode::Run { down, .. } => down.never_blocks(),
            PushNode::Split { branches, .. } => branches.iter().all(PushNode::never_blocks),
            PushNode::Planned { .. } | PushNode::Coro(_) | PushNode::Buffer(_) => false,
        }
    }

    /// [`PullNode::spawn_coroutines`] for the downstream tree: innermost
    /// is furthest downstream here.
    pub(crate) fn spawn_coroutines(
        &mut self,
        shared: &Arc<Shared>,
        priority: Priority,
        local_stages: &mut Vec<NodeId>,
    ) -> Result<(), PipeError> {
        let polled = self.polled();
        *self = match std::mem::replace(self, PushNode::End) {
            PushNode::Planned {
                id,
                style,
                mut down,
            } => {
                let mut stages = vec![id];
                down.spawn_coroutines(shared, priority, &mut stages)?;
                let tree = CoroTree::ReceivesPuts(*down);
                let tid = spawn_coroutine(shared, id, style, tree, priority, stages, polled)?;
                PushNode::Coro(tid)
            }
            mut node => {
                match &mut node {
                    PushNode::Consumer { id, down, .. } => {
                        local_stages.push(*id);
                        down.spawn_coroutines(shared, priority, local_stages)?;
                    }
                    PushNode::Run { stages, down } => {
                        local_stages.extend(stages.iter().map(|(id, _)| *id));
                        down.spawn_coroutines(shared, priority, local_stages)?;
                    }
                    PushNode::Split { branches, .. } => {
                        for b in branches {
                            b.spawn_coroutines(shared, priority, local_stages)?;
                        }
                    }
                    _ => {}
                }
                node
            }
        };
        Ok(())
    }

    /// Pushes one item through this tree, blocking where it waits.
    pub(crate) fn push(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState, item: Item) -> PushRes {
        match self {
            PushNode::End => PushRes::Ok,
            node @ (PushNode::Buffer(_) | PushNode::Coro(_)) => {
                block_on(|| node.push_async(ctx, rt, item))
            }
            PushNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PushNode::Run { stages, down } => match convert_run(stages, item) {
                Some(y) => down.push(ctx, rt, y),
                None => PushRes::Ok,
            },
            PushNode::Consumer { stage, down, .. } => {
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::None, PutWiring::Tree(down));
                stage.push(&mut sctx, item);
                sctx.push_status()
            }
            PushNode::Split { kind, branches, .. } => match kind {
                SplitKind::Multicast => {
                    let mut status = PushRes::Ok;
                    let last = branches.len() - 1;
                    // Clones go to all but the last branch, which gets the
                    // original.
                    for b in &mut branches[..last] {
                        let clone = item.try_clone().unwrap_or_else(|| {
                            panic!(
                                "multicast tee requires cloneable items \
                                 (create them with Item::cloneable)"
                            )
                        });
                        if b.push(ctx, rt, clone) == PushRes::Interrupted {
                            status = PushRes::Interrupted;
                        }
                    }
                    if branches[last].push(ctx, rt, item) == PushRes::Interrupted {
                        status = PushRes::Interrupted;
                    }
                    status
                }
                SplitKind::Router(route) => {
                    let idx = route(&item) % branches.len();
                    branches[idx].push(ctx, rt, item)
                }
            },
        }
    }

    /// [`PushNode::push`] for a thread that may suspend: a leading run and
    /// the boundary beyond it are awaited. A coroutine beyond it is handed
    /// the item with a `PUT` here, with the kernel operations awaited in
    /// place; the push returns once the coroutine acks.
    pub(crate) async fn push_async(
        &mut self,
        ctx: &mut Ctx<'_>,
        rt: &mut RtState,
        item: Item,
    ) -> PushRes {
        let (beyond, item) = match self {
            PushNode::Run { stages, down } => match convert_run(stages, item) {
                Some(y) => (&mut **down, y),
                None => return PushRes::Ok,
            },
            node => (node, item),
        };
        match beyond {
            PushNode::Buffer(h) => rt.buffer_put(ctx, h, item).await,
            PushNode::Coro(t) => {
                let Some(request) = rt.request(tags::PUT, Some(item)) else {
                    return PushRes::Interrupted;
                };
                let mut outcome = ctx.call_async(*t, request, None, tags::INTERRUPTS).await;
                loop {
                    let pending = match rt.replied(outcome) {
                        ControlFlow::Break(Pulled::Interrupted) => return PushRes::Interrupted,
                        ControlFlow::Break(_ack) => return PushRes::Ok,
                        ControlFlow::Continue(pending) => pending,
                    };
                    outcome = ctx.wait_or_async(pending, tags::INTERRUPTS).await;
                }
            }
            node => node.push(ctx, rt, item),
        }
    }

    /// Visits every stage in this thread's tree.
    pub(crate) fn for_each_stage(&mut self, f: &mut dyn FnMut(NodeId, &mut dyn Stage)) {
        match self {
            PushNode::Consumer { id, stage, down } => {
                f(*id, stage.as_mut());
                down.for_each_stage(f);
            }
            PushNode::Run { stages, down } => {
                for (id, stage) in stages {
                    f(*id, stage.as_mut());
                }
                down.for_each_stage(f);
            }
            PushNode::Split { branches, .. } => {
                for b in branches {
                    b.for_each_stage(f);
                }
            }
            PushNode::Planned { .. } | PushNode::Coro(_) | PushNode::Buffer(_) | PushNode::End => {}
        }
    }

    /// Propagates end of stream downstream: marks terminal buffers and
    /// tells coroutines, so downstream sections drain and stop.
    pub(crate) fn mark_eos(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) {
        match self {
            PushNode::End => {}
            node @ (PushNode::Buffer(_) | PushNode::Coro(_)) => {
                block_on(|| node.mark_eos_async(ctx, rt))
            }
            PushNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PushNode::Run { down, .. } | PushNode::Consumer { down, .. } => {
                down.mark_eos(ctx, rt);
            }
            PushNode::Split { branches, .. } => {
                for b in branches {
                    b.mark_eos(ctx, rt);
                }
            }
        }
    }

    /// [`PushNode::mark_eos`] for a thread that may suspend: a leading run
    /// and the boundary beyond it are awaited.
    pub(crate) async fn mark_eos_async(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) {
        let beyond_run = match self {
            PushNode::Run { down, .. } => &mut **down,
            node => node,
        };
        match beyond_run {
            PushNode::Buffer(h) => {
                let wake = h.mark_eos();
                send_wakeups(ctx, wake).await;
            }
            // The glue's own signal, sent after the last `PUT` was acked:
            // the coroutine ends its component's input, then its own
            // stream in turn. It goes at control priority, so
            // that the end has run down the section before the owner tells
            // the subscribers.
            PushNode::Coro(t) => {
                let urgent = Some(Constraint::priority(Priority::CONTROL));
                let _ = ctx
                    .send_with_async(*t, Message::signal(tags::END), urgent)
                    .await;
            }
            node => node.mark_eos(ctx, rt),
        }
    }
}
