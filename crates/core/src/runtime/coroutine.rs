//! Coroutine glue: the generated code that lets any activity style run in
//! any position (Figs. 5–8).
//!
//! A coroutine is a kernel thread in its section's coroutine set. It
//! interacts *synchronously*: all but one thread of a set are blocked at
//! any time, and the activity travels with the data. The wire protocol is
//! two message kinds:
//!
//! * `GET` — a downstream thread asks for the next item; the coroutine
//!   replies with `Some(item)` or `None` (end of stream),
//! * `PUT` — an upstream thread hands an item over; the reply (the *ack*)
//!   is deferred until the coroutine next comes back for more input, so
//!   the upstream's `push` returns exactly when control flows back past it
//!   (arrows 5–7 of Fig. 5).
//!
//! Which side is message-driven depends on the coroutine's position: pull
//! position ⇒ it answers `GET`s and *directly calls* its own upstream
//! chain; push position ⇒ it receives `PUT`s and directly calls its own
//! downstream tree. While blocked on either, the thread stays receptive to
//! control messages (§4).

use super::nodes::{PullNode, PushNode};
use super::stagectx::{GetWiring, PutWiring, StageCtx};
use super::{Pulled, PushRes, RtState, Shared, WaitOutcome};
use crate::events::{tags, ControlEvent, EventMsg, EventTarget, GetReply};
use crate::graph::NodeId;
use crate::item::Item;
use crate::stage::{Stage, Style};
use mbthread::{Ctx, Envelope, Flow, Message, Priority, SpawnOptions, ThreadId};
use std::sync::Arc;

/// Which side of the coroutine is message-driven.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum CoroSide {
    /// Pull position: downstream threads send `GET`s.
    AnswersGets,
    /// Push position: upstream threads send `PUT`s.
    ReceivesPuts,
}

/// The message-driven end of a coroutine.
pub(crate) struct MsgEndpoint {
    side: CoroSide,
    /// The outstanding request: an unanswered `GET` or an un-acked `PUT`.
    pending: Option<Envelope>,
    /// Item extracted from the pending `PUT`, not yet consumed by the
    /// component.
    item: Option<Item>,
    /// The message stream ended (EOS control or stop).
    closed: bool,
}

impl MsgEndpoint {
    fn new(side: CoroSide) -> MsgEndpoint {
        MsgEndpoint {
            side,
            pending: None,
            item: None,
            closed: false,
        }
    }

    /// Component-facing `get` in push position: consume the pending item
    /// or ack-and-wait for the next `PUT` (Fig. 7a's
    /// "push-mode wrapper for pull").
    pub(crate) fn msg_get(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        debug_assert_eq!(self.side, CoroSide::ReceivesPuts);
        loop {
            if let Some(item) = self.item.take() {
                return Pulled::Item(item);
            }
            // Coming back for more: the previous pusher may now resume
            // (the deferred ack — control returns upstream).
            if let Some(env) = self.pending.take() {
                let _ = ctx.reply(&env, Message::signal(tags::PUT));
            }
            if self.closed {
                return Pulled::Eos;
            }
            if rt.stopping {
                return Pulled::Interrupted;
            }
            match rt.wait_tag_ext(ctx, tags::PUT, true) {
                WaitOutcome::Msg(mut env) => {
                    ctx.adopt_constraint(env.constraint());
                    let item: Item = env.message_mut().take_body().expect("PUT carries an Item");
                    self.item = Some(item);
                    self.pending = Some(env);
                }
                WaitOutcome::Eos => {
                    self.closed = true;
                    return Pulled::Eos;
                }
                WaitOutcome::Stop => return Pulled::Interrupted,
            }
        }
    }

    /// Component-facing `put` in pull position: answer the pending `GET`,
    /// then wait until the next `GET` arrives (Fig. 7b's
    /// "pull-mode wrapper for push").
    pub(crate) fn msg_put(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState, item: Item) -> PushRes {
        debug_assert_eq!(self.side, CoroSide::AnswersGets);
        let Some(env) = self.pending.take() else {
            // The downstream requester went away (stop); discard.
            return PushRes::Interrupted;
        };
        let _ = ctx.reply(&env, Message::new(tags::GET, GetReply(Some(item))));
        match rt.wait_tag_ext(ctx, tags::GET, false) {
            WaitOutcome::Msg(env) => {
                ctx.adopt_constraint(env.constraint());
                self.pending = Some(env);
                PushRes::Ok
            }
            WaitOutcome::Stop | WaitOutcome::Eos => PushRes::Interrupted,
        }
    }

    /// Answers a leftover request after the component finished.
    fn settle(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(env) = self.pending.take() {
            let reply = match self.side {
                CoroSide::AnswersGets => Message::new(tags::GET, GetReply(None)),
                CoroSide::ReceivesPuts => Message::signal(tags::PUT),
            };
            let _ = ctx.reply(&env, reply);
        }
    }
}

/// The code function of a coroutine thread.
struct CoroFn {
    stage_id: NodeId,
    style: Style,
    /// Pull position: the upstream chain this coroutine calls directly.
    up: Option<PullNode>,
    /// Push position: the downstream tree this coroutine calls directly.
    down: Option<PushNode>,
    rt: RtState,
    ep: MsgEndpoint,
    entered: bool,
    finished: bool,
}

impl CoroFn {
    /// Runs the style-specific wrapper loop until the stream ends.
    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        let stage_id = self.stage_id;
        let rt = &mut self.rt;
        let ep = &mut self.ep;
        match (&mut self.style, ep.side) {
            // Active object anywhere: its own loop, wired per position
            // (Figs. 5 and 6).
            (Style::Active(stage), CoroSide::AnswersGets) => {
                let up = self
                    .up
                    .as_mut()
                    .expect("pull-position coroutine has an upstream");
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Tree(up), PutWiring::Msg(ep));
                stage.run(&mut sctx);
            }
            (Style::Active(stage), CoroSide::ReceivesPuts) => {
                let down = self
                    .down
                    .as_mut()
                    .expect("push-position coroutine has a downstream");
                let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Msg(ep), PutWiring::Tree(down));
                stage.run(&mut sctx);
            }
            // A pull-style (producer) component used in push mode: wrap its
            // pull in a loop that pushes results onward (Fig. 7a).
            (Style::Producer(stage), CoroSide::ReceivesPuts) => {
                let down = self
                    .down
                    .as_mut()
                    .expect("push-position coroutine has a downstream");
                loop {
                    let produced = {
                        let mut sctx =
                            StageCtx::wired(ctx, rt, GetWiring::Msg(ep), PutWiring::None);

                        stage.pull(&mut sctx)
                    };
                    match produced {
                        Some(item) => {
                            if down.push(ctx, rt, item) == PushRes::Interrupted {
                                break;
                            }
                            rt.items_moved += 1;
                        }
                        None => break,
                    }
                    // Between iterations neither the component nor its
                    // nested direct stages are mid-call: deliver queued
                    // events now ("as soon as the data processing is
                    // done", §3.2).
                    drain_pending(
                        ctx,
                        rt,
                        Some((stage_id, &mut **stage as &mut dyn Stage)),
                        None,
                        Some(&mut *down),
                    );
                }
            }
            // A push-style (consumer) component used in pull mode: wrap its
            // push in a loop that pulls inputs for it (Figs. 7b and 8b).
            (Style::Consumer(stage), CoroSide::AnswersGets) => {
                let up = self
                    .up
                    .as_mut()
                    .expect("pull-position coroutine has an upstream");
                loop {
                    match up.pull(ctx, rt) {
                        Pulled::Item(item) => {
                            let status = {
                                let mut sctx =
                                    StageCtx::wired(ctx, rt, GetWiring::None, PutWiring::Msg(ep));
                                stage.push(&mut sctx, item);
                                sctx.push_status()
                            };
                            if status == PushRes::Interrupted {
                                break;
                            }
                        }
                        Pulled::Empty | Pulled::Eos | Pulled::Interrupted => break,
                    }
                    drain_pending(
                        ctx,
                        rt,
                        Some((stage_id, &mut **stage as &mut dyn Stage)),
                        Some(&mut *up),
                        None,
                    );
                }
            }
            (other, side) => unreachable!(
                "planner never gives a {} a coroutine on the {:?} side",
                other.style_name(),
                side
            ),
        }
    }

    fn dispatch_event(&mut self, ctx: &mut Ctx<'_>, msg: EventMsg) {
        if matches!(msg.event, ControlEvent::Stop) {
            self.rt.stopping = true;
        }
        if matches!(msg.event, ControlEvent::Eos) && self.ep.side == CoroSide::ReceivesPuts {
            self.ep.closed = true;
        }
        self.rt.pending_events.push_back(msg);
        drain_pending(
            ctx,
            &mut self.rt,
            Some((self.stage_id, upcast(&mut self.style))),
            self.up.as_mut(),
            self.down.as_mut(),
        );
    }
}

/// Upcasts a style's component to `&mut dyn Stage` for event dispatch.
fn upcast(style: &mut Style) -> &mut dyn Stage {
    match style {
        Style::Consumer(c) => c.as_mut(),
        Style::Producer(p) => p.as_mut(),
        Style::Function(f) => f.as_mut(),
        Style::Active(a) => a.as_mut(),
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
    fn wants(target: EventTarget, id: NodeId) -> bool {
        matches!(target, EventTarget::Broadcast) || target == EventTarget::Stage(id)
    }
    if let Some((id, stage)) = own {
        if wants(target, id) {
            let mut ectx = super::stagectx::EventCtx {
                ctx: &mut *ctx,
                rt: &mut *rt,
                stage: id,
            };
            stage.on_event(&mut ectx, event);
        }
    }
    if let Some(u) = up {
        u.for_each_stage(&mut |id, stage| {
            if wants(target, id) {
                let mut ectx = super::stagectx::EventCtx {
                    ctx: &mut *ctx,
                    rt: &mut *rt,
                    stage: id,
                };
                stage.on_event(&mut ectx, event);
            }
        });
    }
    if let Some(d) = down {
        d.for_each_stage(&mut |id, stage| {
            if wants(target, id) {
                let mut ectx = super::stagectx::EventCtx {
                    ctx: &mut *ctx,
                    rt: &mut *rt,
                    stage: id,
                };
                stage.on_event(&mut ectx, event);
            }
        });
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
    fn on_message(&mut self, ctx: &mut Ctx<'_>, mut env: Envelope) -> Flow {
        match env.tag() {
            t if t == tags::CTRL => {
                if let Some(msg) = env.message_mut().take_body::<EventMsg>() {
                    self.dispatch_event(ctx, msg);
                }
            }
            t if t == tags::GET && self.ep.side == CoroSide::AnswersGets => {
                if self.finished || self.rt.stopping {
                    let _ = ctx.reply(&env, Message::new(tags::GET, GetReply(None)));
                    return Flow::Continue;
                }
                self.ep.pending = Some(env);
                if !self.entered {
                    self.entered = true;
                    self.drive(ctx);
                    self.finished = true;
                    self.ep.settle(ctx);
                } else {
                    // drive() already returned: the stream is over.
                    self.finished = true;
                    self.ep.settle(ctx);
                }
            }
            t if t == tags::PUT && self.ep.side == CoroSide::ReceivesPuts => {
                if self.finished || self.rt.stopping {
                    // Ack immediately so the upstream does not hang.
                    let _ = ctx.reply(&env, Message::signal(tags::PUT));
                    return Flow::Continue;
                }
                let item: Option<Item> = env.message_mut().take_body();
                self.ep.item = item;
                ctx.adopt_constraint(env.constraint());
                self.ep.pending = Some(env);
                if !self.entered {
                    self.entered = true;
                    self.drive(ctx);
                    self.finished = true;
                    self.ep.settle(ctx);
                    // The component ended while upstream may keep flowing;
                    // propagate the end downstream.
                    if let Some(down) = self.down.as_mut() {
                        if !self.rt.stopping {
                            down.mark_eos(ctx, &mut self.rt);
                        }
                    }
                } else {
                    self.finished = true;
                    self.ep.settle(ctx);
                }
            }
            _ => { /* stray ARRIVAL/SPACE wakeups are harmless */ }
        }
        // Deliver any events queued while we were mid-processing.
        drain_pending(
            ctx,
            &mut self.rt,
            Some((self.stage_id, upcast(&mut self.style))),
            self.up.as_mut(),
            self.down.as_mut(),
        );
        Flow::Continue
    }
}

/// Spawns the coroutine thread for one stage and registers it in the
/// routing table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_coroutine(
    shared: &Arc<Shared>,
    side: CoroSide,
    stage_id: NodeId,
    style: Style,
    up: Option<PullNode>,
    down: Option<PushNode>,
    priority: Priority,
    stages: Vec<NodeId>,
) -> Result<ThreadId, crate::error::PipeError> {
    let name = format!("coro-{}", style.component_name());
    let coro = CoroFn {
        stage_id,
        style,
        up,
        down,
        rt: RtState::new(Arc::clone(shared)),
        ep: MsgEndpoint::new(side),
        entered: false,
        finished: false,
    };
    let tid = shared
        .kernel
        .spawn(SpawnOptions::new(name).priority(priority), coro)
        .map_err(crate::error::PipeError::from)?;
    let mut routing = shared.routing.lock();
    routing.threads.push(tid);
    for s in stages {
        routing.stage_thread.insert(s, tid);
    }
    Ok(tid)
}
