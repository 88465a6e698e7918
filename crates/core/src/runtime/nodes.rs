//! The section tree: one data structure from planner to thread.
//!
//! The planner ([`crate::plan`]) builds a section as these trees. A stage
//! whose style matches its mode is a direct-call node; any other is a
//! `Planned` coroutine holding the stage and the part of the tree it will
//! own. Launch walks each tree once more, after *every* section has
//! validated, and turns each `Planned` node into `Coro(ThreadId)` in
//! place, innermost first. From then on a thread (section owner or
//! coroutine) interprets data movement through the contiguous run of
//! direct stages adjacent to it, and where a `Coro` sits the data crosses
//! over as a synchronous message round-trip — activity travels with the
//! data (Fig. 5).

use super::coroutine::{spawn_coroutine, CoroTree};
use super::stagectx::StageCtx;
use super::{Pulled, PushRes, RtState, Shared};
use crate::buffer::BufHandle;
use crate::error::PipeError;
use crate::events::tags;
use crate::graph::NodeId;
use crate::item::Item;
use crate::plan::Exec;
use crate::stage::{Consumer, Function, Producer, Stage, Style};
use crate::tee::SplitKind;
use mbthread::{Constraint, Ctx, Message, Priority, ThreadId};
use std::sync::Arc;

/// Data reached a node the planner built and launch never spawned.
const UNSPAWNED: &str = "launch spawns every planned coroutine before the flow starts";

/// The pull-side (upstream) chain owned by one thread.
pub(crate) enum PullNode {
    Producer {
        id: NodeId,
        stage: Box<dyn Producer>,
        up: Box<PullNode>,
    },
    Function {
        id: NodeId,
        stage: Box<dyn Function>,
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
        *self = match std::mem::replace(self, PullNode::Origin) {
            PullNode::Planned { id, style, mut up } => {
                let mut stages = vec![id];
                up.spawn_coroutines(shared, priority, &mut stages)?;
                let tree = CoroTree::AnswersGets(*up);
                PullNode::Coro(spawn_coroutine(shared, id, style, tree, priority, stages)?)
            }
            mut node => {
                if let PullNode::Producer { id, up, .. } | PullNode::Function { id, up, .. } =
                    &mut node
                {
                    local_stages.push(*id);
                    up.spawn_coroutines(shared, priority, local_stages)?;
                }
                node
            }
        };
        Ok(())
    }

    /// Pulls the next item through this chain.
    pub(crate) fn pull(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        match self {
            PullNode::Origin => Pulled::Eos,
            PullNode::Buffer(h) => rt.buffer_take(ctx, h),
            PullNode::Coro(t) => rt.sync_get(ctx, *t),
            PullNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PullNode::Function { stage, up, .. } => loop {
                match up.pull(ctx, rt) {
                    Pulled::Item(x) => {
                        if let Some(y) = stage.convert(x) {
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
                let mut sctx = StageCtx::pull_position(ctx, rt, up);
                match stage.pull(&mut sctx) {
                    Some(item) => Pulled::Item(item),
                    None => sctx.none_reason(),
                }
            }
        }
    }

    /// Visits every stage in this thread's chain (not crossing coroutine
    /// or buffer boundaries).
    pub(crate) fn for_each_stage(&mut self, f: &mut dyn FnMut(NodeId, &mut dyn Stage)) {
        match self {
            PullNode::Producer { id, stage, up } => {
                f(*id, stage.as_mut());
                up.for_each_stage(f);
            }
            PullNode::Function { id, stage, up } => {
                f(*id, stage.as_mut());
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
            PullNode::Producer { up, .. } | PullNode::Function { up, .. } => up.nearest_buffer(),
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
    Function {
        id: NodeId,
        stage: Box<dyn Function>,
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

    /// [`PullNode::spawn_coroutines`] for the downstream tree: innermost
    /// is furthest downstream here.
    pub(crate) fn spawn_coroutines(
        &mut self,
        shared: &Arc<Shared>,
        priority: Priority,
        local_stages: &mut Vec<NodeId>,
    ) -> Result<(), PipeError> {
        *self = match std::mem::replace(self, PushNode::End) {
            PushNode::Planned {
                id,
                style,
                mut down,
            } => {
                let mut stages = vec![id];
                down.spawn_coroutines(shared, priority, &mut stages)?;
                let tree = CoroTree::ReceivesPuts(*down);
                PushNode::Coro(spawn_coroutine(shared, id, style, tree, priority, stages)?)
            }
            mut node => {
                match &mut node {
                    PushNode::Consumer { id, down, .. } | PushNode::Function { id, down, .. } => {
                        local_stages.push(*id);
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

    /// Pushes one item through this tree.
    pub(crate) fn push(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState, item: Item) -> PushRes {
        match self {
            PushNode::End => PushRes::Ok,
            PushNode::Buffer(h) => rt.buffer_put(ctx, h, item),
            PushNode::Coro(t) => rt.sync_put(ctx, *t, item),
            PushNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PushNode::Function { stage, down, .. } => match stage.convert(item) {
                Some(y) => down.push(ctx, rt, y),
                None => PushRes::Ok,
            },
            PushNode::Consumer { stage, down, .. } => {
                let mut sctx = StageCtx::push_position(ctx, rt, down);
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

    /// Visits every stage in this thread's tree.
    pub(crate) fn for_each_stage(&mut self, f: &mut dyn FnMut(NodeId, &mut dyn Stage)) {
        match self {
            PushNode::Consumer { id, stage, down } => {
                f(*id, stage.as_mut());
                down.for_each_stage(f);
            }
            PushNode::Function { id, stage, down } => {
                f(*id, stage.as_mut());
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
            PushNode::Buffer(h) => {
                let wake = h.mark_eos();
                rt.send_wakeups(ctx, wake);
            }
            // The glue's own signal, sent after the last `PUT` was acked:
            // the coroutine ends its component's input and marks what lies
            // below it in turn. A broadcast `Eos` must not do this job: it
            // overtakes items still queued further upstream. It is as urgent
            // as one, though, so that the end has run down the section
            // before the owner announces `Eos` to whoever waits for it.
            PushNode::Coro(t) => {
                let urgent = Some(Constraint::priority(Priority::CONTROL));
                let _ = ctx.send_with(*t, Message::signal(tags::END), urgent);
            }
            PushNode::Planned { .. } => unreachable!("{UNSPAWNED}"),
            PushNode::Function { down, .. } | PushNode::Consumer { down, .. } => {
                down.mark_eos(ctx, rt);
            }
            PushNode::Split { branches, .. } => {
                for b in branches {
                    b.mark_eos(ctx, rt);
                }
            }
        }
    }
}
