//! Coroutine glue: the generated code that lets any activity style run in
//! any position (Figs. 5–8).
//!
//! A coroutine is a kernel thread in its section's coroutine set. It
//! interacts *synchronously*: all but one thread of a set are blocked at
//! any time, and the activity travels with the data. The wire protocol is
//! three message kinds:
//!
//! * `GET` — a downstream thread asks for the next item; the coroutine
//!   replies with `Some(item)` or `None` (end of stream),
//! * `PUT` — an upstream thread hands an item over; the reply (the *ack*)
//!   is deferred until the coroutine next comes back for more input, so
//!   the upstream's `push` returns exactly when control flows back past it
//!   (arrows 5–7 of Fig. 5),
//! * `END` — the upstream thread's `PUT` stream is over (no payload, no
//!   reply). It is sent after the last `PUT` was acked, so it can overtake
//!   no item, and it is the *only* thing that ends a coroutine's input: a
//!   broadcast `Eos` is an event for stages, announced by whichever
//!   section ran dry first, while items may still sit in a buffer further
//!   upstream.
//!
//! Which side is message-driven depends on the coroutine's position: pull
//! position ⇒ it answers `GET`s and *directly calls* its own upstream
//! chain; push position ⇒ it receives `PUT`s and directly calls its own
//! downstream tree. While blocked on either, the thread stays receptive to
//! control messages (§4).

use super::nodes::{PullNode, PushNode};
use super::stagectx::{EventCtx, GetWiring, PutWiring, StageCtx};
use super::{Pulled, PushRes, RtState, Shared};
use crate::error::PipeError;
use crate::events::{tags, ControlEvent, EventMsg, EventTarget, GetReply};
use crate::graph::NodeId;
use crate::item::Item;
use crate::stage::{Stage, Style};
use mbthread::{Ctx, Envelope, Flow, Message, Priority, SpawnOptions, ThreadId};
use std::sync::Arc;

/// A coroutine's position, held as the part of the section tree it calls
/// directly; the other side is message-driven.
pub(crate) enum CoroTree {
    /// Pull position: downstream threads send `GET`s, the upstream chain
    /// is called directly.
    AnswersGets(PullNode),
    /// Push position: upstream threads send `PUT`s, the downstream tree is
    /// called directly.
    ReceivesPuts(PushNode),
}

impl CoroTree {
    fn parts(&mut self) -> (Option<&mut PullNode>, Option<&mut PushNode>) {
        match self {
            CoroTree::AnswersGets(up) => (Some(up), None),
            CoroTree::ReceivesPuts(down) => (None, Some(down)),
        }
    }
}

/// The message-driven end of a coroutine.
#[derive(Default)]
pub(crate) struct MsgEndpoint {
    /// The outstanding request: an unanswered `GET` or an un-acked `PUT`.
    pending: Option<Envelope>,
    /// Item extracted from the pending `PUT`, not yet consumed by the
    /// component.
    item: Option<Item>,
    /// The `PUT` stream ended (`END` arrived).
    closed: bool,
}

impl MsgEndpoint {
    /// Component-facing `get` in push position: consume the pending item
    /// or ack-and-wait for the next `PUT` (Fig. 7a's
    /// "push-mode wrapper for pull").
    pub(crate) fn msg_get(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        if let Some(item) = self.item.take() {
            return Pulled::Item(item);
        }
        // Coming back for more: the previous pusher may now resume (the
        // deferred ack — control returns upstream).
        self.ack_put(ctx);
        if self.closed {
            return Pulled::Eos;
        }
        match rt.wait_tag(ctx, &[tags::PUT, tags::END, tags::CTRL]) {
            Some(env) if env.tag() == tags::PUT => Pulled::Item(self.accept_put(ctx, env)),
            Some(_end) => {
                self.closed = true;
                Pulled::Eos
            }
            None => Pulled::Interrupted,
        }
    }

    /// Takes the item out of a `PUT` and keeps the envelope for the
    /// deferred ack.
    fn accept_put(&mut self, ctx: &mut Ctx<'_>, mut env: Envelope) -> Item {
        ctx.adopt_constraint(env.constraint());
        let item = env.message_mut().take_body().expect("PUT carries an Item");
        self.pending = Some(env);
        item
    }

    /// Acks the pending `PUT`, if any.
    fn ack_put(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(env) = self.pending.take() {
            let _ = ctx.reply(&env, Message::signal(tags::PUT));
        }
    }

    /// Component-facing `put` in pull position: answer the pending `GET`,
    /// then wait until the next `GET` arrives (Fig. 7b's
    /// "pull-mode wrapper for push").
    pub(crate) fn msg_put(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState, item: Item) -> PushRes {
        let Some(env) = self.pending.take() else {
            // The downstream requester went away (stop); discard.
            return PushRes::Interrupted;
        };
        let _ = ctx.reply(&env, Message::new(tags::GET, GetReply(Some(item))));
        match rt.wait_tag(ctx, &[tags::GET, tags::CTRL]) {
            Some(env) => {
                ctx.adopt_constraint(env.constraint());
                self.pending = Some(env);
                PushRes::Ok
            }
            None => PushRes::Interrupted,
        }
    }
}

/// The code function of a coroutine thread.
struct CoroFn {
    stage_id: NodeId,
    style: Style,
    tree: CoroTree,
    rt: RtState,
    ep: MsgEndpoint,
    /// The component's run is over; late requests are answered at once.
    finished: bool,
}

impl CoroFn {
    /// Runs the style-specific wrapper loop until the stream ends.
    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        let stage_id = self.stage_id;
        let rt = &mut self.rt;
        let ep = &mut self.ep;
        match (&mut self.style, &mut self.tree) {
            // Active object anywhere: its own loop, wired per position
            // (Figs. 5 and 6).
            (Style::Active(stage), CoroTree::AnswersGets(up)) => {
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Tree(up), PutWiring::Msg(ep));
                stage.run(&mut sctx);
            }
            (Style::Active(stage), CoroTree::ReceivesPuts(down)) => {
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Msg(ep), PutWiring::Tree(down));
                stage.run(&mut sctx);
            }
            // A pull-style (producer) component used in push mode: wrap its
            // pull in a loop that pushes results onward (Fig. 7a).
            (Style::Producer(stage), CoroTree::ReceivesPuts(down)) => loop {
                let produced = {
                    let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Msg(ep), PutWiring::None);
                    stage.pull(&mut sctx)
                };
                let Some(item) = produced else { break };
                if down.push(ctx, rt, item) == PushRes::Interrupted {
                    break;
                }
                rt.items_moved += 1;
                // Between iterations neither the component nor its nested
                // direct stages are mid-call: deliver queued events now
                // ("as soon as the data processing is done", §3.2).
                let own: &mut dyn Stage = &mut **stage;
                drain_pending(ctx, rt, Some((stage_id, own)), None, Some(&mut *down));
            },
            // A push-style (consumer) component used in pull mode: wrap its
            // push in a loop that pulls inputs for it (Figs. 7b and 8b).
            (Style::Consumer(stage), CoroTree::AnswersGets(up)) => loop {
                let Pulled::Item(item) = up.pull(ctx, rt) else {
                    break;
                };
                let status = {
                    let mut sctx = StageCtx::wired(ctx, rt, GetWiring::None, PutWiring::Msg(ep));
                    stage.push(&mut sctx, item);
                    sctx.push_status()
                };
                if status == PushRes::Interrupted {
                    break;
                }
                let own: &mut dyn Stage = &mut **stage;
                drain_pending(ctx, rt, Some((stage_id, own)), Some(&mut *up), None);
            },
            (other, _) => unreachable!(
                "the planner runs a {} by direct calls or as a section owner",
                other.style_name()
            ),
        }
        self.finished = true;
    }
}

/// Delivers one control event to the given stages.
pub(crate) fn dispatch_event_to(
    ctx: &mut Ctx<'_>,
    rt: &mut RtState,
    event: &ControlEvent,
    target: EventTarget,
    own: Option<(NodeId, &mut dyn Stage)>,
    up: Option<&mut PullNode>,
    down: Option<&mut PushNode>,
) {
    let mut deliver = |id: NodeId, stage: &mut dyn Stage| {
        if target == EventTarget::Broadcast || target == EventTarget::Stage(id) {
            let mut ectx = EventCtx {
                ctx: &mut *ctx,
                rt: &mut *rt,
                stage: id,
            };
            stage.on_event(&mut ectx, event);
        }
    };
    if let Some((id, stage)) = own {
        deliver(id, stage);
    }
    if let Some(up) = up {
        up.for_each_stage(&mut deliver);
    }
    if let Some(down) = down {
        down.for_each_stage(&mut deliver);
    }
}

/// Delivers queued control events to the given stages ("queued and
/// delivered as soon as the data processing is done", §3.2).
pub(crate) fn drain_pending(
    ctx: &mut Ctx<'_>,
    rt: &mut RtState,
    own: Option<(NodeId, &mut dyn Stage)>,
    up: Option<&mut PullNode>,
    down: Option<&mut PushNode>,
) {
    // Cap the drain so a handler that re-enqueues cannot loop forever.
    let mut budget = rt.pending_events.len().max(4) * 4;
    let mut own = own;
    let mut up = up;
    let mut down = down;
    while budget > 0 {
        budget -= 1;
        let Some(msg) = rt.pending_events.pop_front() else {
            break;
        };
        let EventMsg { event, target } = msg;
        dispatch_event_to(
            ctx,
            rt,
            &event,
            target,
            own.as_mut().map(|(id, s)| (*id, &mut **s)),
            up.as_deref_mut(),
            down.as_deref_mut(),
        );
    }
}

impl mbthread::CodeFn for CoroFn {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        // `drive` returns only when the component's run is over, and no
        // message is handled here while it runs: a request that reaches
        // this function finds the coroutine either fresh or finished.
        match (env.tag(), &self.tree) {
            (tags::CTRL, _) => {
                if let Ok(msg) = env.into_message().into_body::<EventMsg>() {
                    self.rt.stopping |= matches!(msg.event, ControlEvent::Stop);
                    self.rt.pending_events.push_back(msg);
                }
            }
            (tags::GET, CoroTree::AnswersGets(_)) => {
                self.ep.pending = Some(env);
                if !self.finished && !self.rt.stopping {
                    self.drive(ctx);
                }
                // Whatever request is left over gets "end of stream".
                if let Some(env) = self.ep.pending.take() {
                    let _ = ctx.reply(&env, Message::new(tags::GET, GetReply(None)));
                }
            }
            (tags::PUT | tags::END, CoroTree::ReceivesPuts(_)) => {
                let fresh = !self.finished && !self.rt.stopping;
                if env.tag() == tags::PUT {
                    // A finished coroutine discards the item and acks at
                    // once, so the upstream does not hang.
                    let item = self.ep.accept_put(ctx, env);
                    self.ep.item = fresh.then_some(item);
                } else {
                    self.ep.closed = true;
                }
                if fresh {
                    // An `END` before the first `PUT` runs the component
                    // too, against an ended stream: it may have something
                    // to say at the end of an empty one, and what lies
                    // below must hear of the end either way.
                    self.drive(ctx);
                    // The component ended — on `END`, or on its own while
                    // upstream may keep flowing: propagate the end.
                    match &mut self.tree {
                        CoroTree::ReceivesPuts(down) if !self.rt.stopping => {
                            down.mark_eos(ctx, &mut self.rt);
                        }
                        _ => {}
                    }
                }
                self.ep.ack_put(ctx);
            }
            _ => { /* stray ARRIVAL/SPACE wakeups are harmless */ }
        }
        // Deliver the event just received and any queued mid-processing.
        let own: &mut dyn Stage = match &mut self.style {
            Style::Consumer(c) => c.as_mut(),
            Style::Producer(p) => p.as_mut(),
            Style::Function(f) => f.as_mut(),
            Style::Active(a) => a.as_mut(),
        };
        let (up, down) = self.tree.parts();
        drain_pending(ctx, &mut self.rt, Some((self.stage_id, own)), up, down);
        Flow::Continue
    }
}

/// Spawns the coroutine thread for one stage and registers it, with the
/// direct `stages` it owns, in the routing table.
pub(crate) fn spawn_coroutine(
    shared: &Arc<Shared>,
    stage_id: NodeId,
    style: Style,
    tree: CoroTree,
    priority: Priority,
    stages: Vec<NodeId>,
) -> Result<ThreadId, PipeError> {
    let name = format!("coro-{}", style.component_name());
    let coro = CoroFn {
        stage_id,
        style,
        tree,
        rt: RtState::new(Arc::clone(shared)),
        ep: MsgEndpoint::default(),
        finished: false,
    };
    let tid = shared
        .kernel
        .spawn(SpawnOptions::new(name).priority(priority), coro)?;
    shared.routing.lock().enroll(tid, stages);
    Ok(tid)
}
