//! Coroutine glue: the generated code that lets any activity style run in
//! any position (Figs. 5–8).
//!
//! A coroutine is a kernel thread in its section's coroutine set. It
//! interacts *synchronously*: all but one thread of a set are blocked at
//! any time, and the activity travels with the data. The wire protocol is
//! three message kinds:
//!
//! * `GET` — a downstream thread asks for the next item; the coroutine
//!   replies with the item, or with none at the end of the stream,
//! * `PUT` — an upstream thread hands an item over; the reply (the *ack*)
//!   is deferred until the coroutine next comes back for more input, so
//!   the upstream's `push` returns exactly when control flows back past it
//!   (arrows 5–7 of Fig. 5),
//! * `END` — the upstream thread's `PUT` stream is over (no payload, no
//!   reply). It is sent after the last `PUT` was acked, so it can overtake
//!   no item, and it is the only thing that ends a coroutine's input.
//!
//! A `GET` or `PUT` and its reply carry the requester's [`ItemSlot`]: the
//! box goes out with the request, the coroutine keeps it while the
//! request is pending and answers with it, so a hand-off allocates
//! nothing.
//!
//! Which side is message-driven depends on the coroutine's position: pull
//! position ⇒ it answers `GET`s and *directly calls* its own upstream
//! chain; push position ⇒ it receives `PUT`s and directly calls its own
//! downstream tree. While blocked on either, the thread stays receptive to
//! control messages (§4).
//!
//! When the component's run is over, the coroutine ends its stream before
//! it answers the last `GET` or `PUT`: its stages hear `Eos` on its own
//! event queue, behind the events already waiting, then what lies below
//! is end-marked.
//!
//! The glue is one async implementation. An active object's coroutine
//! whose direct stages all run without blocking (`PullNode::polled`) is a
//! polled kernel thread: the glue's kernel operations suspend it, and the
//! OS thread that hands it the CPU polls it. Any other coroutine — a
//! passive component in the opposite polarity, whose `pull` or `push`
//! needs a real stack — is an OS-backed kernel thread that runs the same
//! glue through `block_on`.

use super::nodes::{PullNode, PushNode};
use super::stagectx::{ActiveCtx, EventCtx, GetWiring, PutWiring, StageCtx};
use super::{Pulled, PushRes, RtState, Shared};
use crate::error::PipeError;
use crate::events::{tags, take_slot, ControlEvent, EventMsg, EventTarget, ItemSlot};
use crate::graph::NodeId;
use crate::item::Item;
use crate::stage::{Stage, Style};
use mbthread::{
    Ctx, Envelope, Flow, KernelError, Message, OnOsThread, PolledFn, Priority, SendError,
    SpawnOptions, Tag, ThreadId,
};
use std::future::Future;
use std::ops::ControlFlow;
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
    /// The requester's box, taken out of the pending request; the answer
    /// carries it back.
    slot: Option<ItemSlot>,
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
    pub(crate) async fn msg_get(&mut self, ctx: &mut Ctx<'_>, rt: &mut RtState) -> Pulled {
        if let Some(item) = self.item.take() {
            return Pulled::Item(item);
        }
        if self.closed || rt.stopping {
            // Nothing more to wait for: the pusher resumes at once.
            if self.pending.is_some() {
                let _ = self.reply(ctx, tags::PUT, None).await;
            }
            return if self.closed {
                Pulled::Eos
            } else {
                Pulled::Interrupted
            };
        }
        // Coming back for more: the previous pusher may now resume (the
        // deferred ack — control returns upstream), and the wait for the
        // next `PUT` begins in the same kernel operation.
        let accept = [tags::PUT, tags::END, tags::CTRL];
        let mut got = if self.pending.is_some() {
            self.answer_and_wait(ctx, tags::PUT, None, &accept).await
        } else {
            ctx.receive_tags_async(&accept).await
        };
        let next = loop {
            if let ControlFlow::Break(next) = rt.received(got) {
                break next;
            }
            got = ctx.receive_tags_async(&accept).await;
        };
        match next {
            Some(env) if env.tag() == tags::PUT => Pulled::Item(self.accept_put(env)),
            Some(_end) => {
                self.closed = true;
                Pulled::Eos
            }
            None => Pulled::Interrupted,
        }
    }

    /// Keeps a request and its slot until it is answered; returns what
    /// the slot carried (a `PUT`'s item).
    fn accept(&mut self, mut env: Envelope) -> Option<Item> {
        let mut slot = take_slot(env.message_mut());
        let item = slot.take();
        self.slot = Some(slot);
        self.pending = Some(env);
        item
    }

    /// Takes the item out of a `PUT` and keeps the envelope for the
    /// deferred ack. The kernel made the `PUT`'s constraint current when it
    /// delivered the request.
    fn accept_put(&mut self, env: Envelope) -> Item {
        self.accept(env).expect("PUT carries an Item")
    }

    /// The answer to the pending request: its slot, holding `item`.
    fn answer(&mut self, tag: Tag, item: Option<Item>) -> Message {
        let mut slot = self.slot.take().unwrap_or_default();
        *slot = item;
        Message::from_body(tag, slot)
    }

    /// Answers the pending request with `item` (a `PUT`'s ack carries
    /// none). The future holds what the reply needs of the request, not
    /// the request.
    fn reply<'s, 'k>(
        &mut self,
        ctx: &'s mut Ctx<'k>,
        tag: Tag,
        item: Option<Item>,
    ) -> impl Future<Output = Result<(), SendError>> + use<'s, 'k> {
        let req = self.pending.take().expect("a pending request to answer");
        ctx.reply_async(&req, self.answer(tag, item))
    }

    /// Answers the pending request with `item` and waits for the next
    /// message whose tag is in `accept`, in one kernel operation. The
    /// future holds what the reply needs of the request, not the request.
    fn answer_and_wait<'s, 't, 'k>(
        &mut self,
        ctx: &'s mut Ctx<'k>,
        tag: Tag,
        item: Option<Item>,
        accept: &'t [Tag],
    ) -> impl Future<Output = Result<Envelope, KernelError>> + use<'s, 't, 'k> {
        let req = self.pending.take().expect("a pending request to answer");
        ctx.reply_and_receive_async(&req, self.answer(tag, item), accept)
    }

    /// Component-facing `put` in pull position: answer the pending `GET`
    /// and wait until the next `GET` arrives, in one kernel operation
    /// (Fig. 7b's "pull-mode wrapper for push").
    pub(crate) async fn msg_put(
        &mut self,
        ctx: &mut Ctx<'_>,
        rt: &mut RtState,
        item: Item,
    ) -> PushRes {
        if self.pending.is_none() {
            // The downstream requester went away (stop); discard.
            return PushRes::Interrupted;
        }
        if rt.stopping {
            // The answer goes out even though the wait is aborted.
            let _ = self.reply(ctx, tags::GET, Some(item)).await;
            return PushRes::Interrupted;
        }
        let accept = [tags::GET, tags::CTRL];
        let mut got = self
            .answer_and_wait(ctx, tags::GET, Some(item), &accept)
            .await;
        let next = loop {
            if let ControlFlow::Break(next) = rt.received(got) {
                break next;
            }
            got = ctx.receive_tags_async(&accept).await;
        };
        match next {
            Some(env) => {
                self.accept(env);
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
    async fn drive(&mut self, ctx: &mut Ctx<'_>) {
        let stage_id = self.stage_id;
        let rt = &mut self.rt;
        let ep = &mut self.ep;
        match (&mut self.style, &mut self.tree) {
            // Active object anywhere: its own loop, wired per position
            // (Figs. 5 and 6).
            (Style::Active(stage), CoroTree::AnswersGets(up)) => {
                let mut actx = ActiveCtx(StageCtx::wired(
                    ctx,
                    rt,
                    GetWiring::Tree(up),
                    PutWiring::Msg(ep),
                ));
                stage.run(&mut actx).await;
            }
            (Style::Active(stage), CoroTree::ReceivesPuts(down)) => {
                let mut actx = ActiveCtx(StageCtx::wired(
                    ctx,
                    rt,
                    GetWiring::Msg(ep),
                    PutWiring::Tree(down),
                ));
                stage.run(&mut actx).await;
            }
            // A pull-style (producer) component used in push mode: wrap its
            // pull in a loop that pushes results onward (Fig. 7a).
            (Style::Producer(stage), CoroTree::ReceivesPuts(down)) => loop {
                let produced = {
                    let mut sctx = StageCtx::wired(ctx, rt, GetWiring::Msg(ep), PutWiring::None);
                    stage.pull(&mut sctx)
                };
                let Some(item) = produced else { break };
                if down.push_async(ctx, rt, item).await == PushRes::Interrupted {
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
                let Pulled::Item(item) = up.pull_async(ctx, rt).await else {
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
        // Ended on `END` or `None` from upstream, or on its own while
        // upstream may keep flowing: either way, its stream is over.
        if !self.rt.stopping {
            self.rt
                .deliver(ctx, ctx.id(), &ControlEvent::Eos, EventTarget::Broadcast);
            let own = Some((self.stage_id, self.style.stage_mut()));
            let (up, mut down) = self.tree.parts();
            drain_pending(ctx, &mut self.rt, own, up, down.as_deref_mut());
            if let Some(down) = down {
                down.mark_eos_async(ctx, &mut self.rt).await;
            }
        }
    }
}

impl PolledFn for CoroFn {
    async fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
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
                self.ep.accept(env);
                if !self.finished && !self.rt.stopping {
                    self.drive(ctx).await;
                }
                // Whatever request is left over gets "end of stream".
                if self.ep.pending.is_some() {
                    let _ = self.ep.reply(ctx, tags::GET, None).await;
                }
            }
            (tags::PUT | tags::END, CoroTree::ReceivesPuts(_)) => {
                let fresh = !self.finished && !self.rt.stopping;
                if env.tag() == tags::PUT {
                    // A finished coroutine discards the item and acks at
                    // once, so the upstream does not hang.
                    let item = self.ep.accept_put(env);
                    self.ep.item = fresh.then_some(item);
                } else {
                    self.ep.closed = true;
                }
                if fresh {
                    // An `END` before the first `PUT` runs the component
                    // too, against an ended stream: it may have something
                    // to say at the end of an empty one, and what lies
                    // below must hear of the end either way.
                    self.drive(ctx).await;
                }
                if self.ep.pending.is_some() {
                    let _ = self.ep.reply(ctx, tags::PUT, None).await;
                }
            }
            _ => { /* stray ARRIVAL/SPACE wakeups are harmless */ }
        }
        // Deliver the event just received and any queued mid-processing.
        let own = Some((self.stage_id, self.style.stage_mut()));
        let (up, down) = self.tree.parts();
        drain_pending(ctx, &mut self.rt, own, up, down);
        Flow::Continue
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
    mut own: Option<(NodeId, &mut dyn Stage)>,
    mut up: Option<&mut PullNode>,
    mut down: Option<&mut PushNode>,
) {
    // Cap the drain so a handler that re-enqueues cannot loop forever.
    let mut budget = rt.pending_events.len().max(4) * 4;
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

/// Spawns the coroutine thread for one stage — polled, or on an OS thread
/// of its own — and registers it, with the direct `stages` it owns, in the
/// routing table.
pub(crate) fn spawn_coroutine(
    shared: &Arc<Shared>,
    stage_id: NodeId,
    style: Style,
    tree: CoroTree,
    priority: Priority,
    stages: Vec<NodeId>,
    polled: bool,
) -> Result<ThreadId, PipeError> {
    let name = format!("coro-{}", style.stage().name());
    let coro = CoroFn {
        stage_id,
        style,
        tree,
        rt: RtState::new(Arc::clone(shared)),
        ep: MsgEndpoint::default(),
        finished: false,
    };
    let opts = SpawnOptions::new(name).priority(priority);
    let tid = if polled {
        shared.kernel.spawn_polled(opts, coro)?
    } else {
        shared.kernel.spawn(opts, OnOsThread(coro))?
    };
    shared.routing.lock().enroll(tid, stages);
    Ok(tid)
}
