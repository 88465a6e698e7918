//! The pipeline runtime: section threads, coroutine glue, and the
//! message-based synchronization that keeps every blocked operation
//! receptive to control events (§4).
//!
//! Layout:
//!
//! * [`mod@self`] — shared state, the data-movement primitives
//!   (buffer put/take, the request of a synchronous GET/PUT round trip and
//!   what each of its kernel operations comes to), and event broadcast,
//! * [`nodes`] — the section tree (`PullNode`, `PushNode`): built by the
//!   planner, its planned coroutines turned into threads in place at
//!   launch, then interpreted per item,
//! * [`stagectx`] — the [`StageCtx`]/[`ActiveCtx`]/[`EventCtx`] API
//!   components see,
//! * [`owner`] — the section owner's code function (pump scheduling),
//! * [`coroutine`] — the generated glue adapting activity styles
//!   (Figs. 5–8) and its `GET` / `PUT` / `END` protocol; an active
//!   object's coroutine is a polled kernel thread wherever it can be,
//!   any other an OS-backed one,
//! * [`running`] — pipeline launch and the [`RunningPipeline`] handle.
//!
//! `docs/threading.md` walks through the whole path from plan to thread.

mod coroutine;
mod nodes;
mod owner;
mod running;
mod stagectx;

pub use running::{EventSubscription, RunningPipeline};
pub use stagectx::{ActiveCtx, EventCtx, StageCtx};

pub(crate) use nodes::{PullNode, PushNode};
pub(crate) use owner::OwnerRole;
pub(crate) use running::launch as launch_pipeline;

use crate::buffer::{BufHandle, PutOutcome, TakeOutcome, Wakeups};
use crate::events::{tags, take_slot, ControlEvent, EventMsg, EventTarget, ItemSlot};
use crate::graph::StageId;
use crate::item::Item;
use mbthread::{
    Ctx, Envelope, Kernel, KernelError, Message, PendingReply, SyncOutcome, Tag, ThreadId,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Result of pulling one item from upstream.
#[derive(Debug)]
pub(crate) enum Pulled {
    /// An item arrived.
    Item(Item),
    /// Upstream is (non-blockingly) empty right now.
    Empty,
    /// Upstream reached end of stream.
    Eos,
    /// The operation was aborted by a stop request or shutdown.
    Interrupted,
}

/// Result of pushing one item downstream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum PushRes {
    /// The item was delivered (or dropped by a declared drop policy —
    /// either way the flow continues).
    Ok,
    /// The operation was aborted by a stop request or shutdown.
    Interrupted,
}

/// Pipeline-wide shared state.
pub(crate) struct Shared {
    pub(crate) kernel: Kernel,
    pub(crate) routing: Mutex<Routing>,
    pub(crate) name: String,
}

/// Where stages live and who listens to events.
#[derive(Default)]
pub(crate) struct Routing {
    /// Every section and coroutine thread.
    pub(crate) threads: Vec<ThreadId>,
    /// Which thread dispatches events for each stage.
    pub(crate) stage_thread: HashMap<StageId, ThreadId>,
    /// Nearest stage neighbours (up, downs) for adjacent-component events.
    pub(crate) neighbors: HashMap<StageId, (Option<StageId>, Vec<StageId>)>,
    /// External subscriber ports.
    pub(crate) listeners: Vec<ThreadId>,
}

impl Routing {
    /// Enters a freshly spawned section or coroutine thread and the
    /// stages it dispatches events for.
    pub(crate) fn enroll(&mut self, thread: ThreadId, stages: Vec<StageId>) {
        self.threads.push(thread);
        self.stage_thread
            .extend(stages.into_iter().map(|s| (s, thread)));
    }
}

/// Per-thread runtime state (owner or coroutine).
pub(crate) struct RtState {
    pub(crate) shared: Arc<Shared>,
    /// Control events that arrived while data processing was in progress;
    /// queued and delivered as soon as the processing is done (§3.2).
    pub(crate) pending_events: VecDeque<EventMsg>,
    /// A stop request has been observed.
    pub(crate) stopping: bool,
    /// Items moved by this thread (diagnostics).
    pub(crate) items_moved: u64,
    /// The box this thread's `GET`s and `PUT`s carry, while it is home:
    /// it leaves with each request and comes back with the reply.
    slot: Option<ItemSlot>,
}

impl RtState {
    pub(crate) fn new(shared: Arc<Shared>) -> RtState {
        RtState {
            shared,
            pending_events: VecDeque::new(),
            stopping: false,
            items_moved: 0,
            slot: None,
        }
    }

    /// Inspects a control envelope mid-block and remembers it for later
    /// dispatch. Returns whether it aborts the blocked operation: only a
    /// stop request does. The end of a stream arrives on the data path
    /// (buffer marks, `GET` replies, the coroutine `END` signal).
    fn note_control(&mut self, env: Envelope) -> bool {
        let Ok(msg) = env.into_message().into_body::<EventMsg>() else {
            return false;
        };
        let stop = matches!(msg.event, ControlEvent::Stop);
        self.stopping |= stop;
        self.pending_events.push_back(msg);
        stop
    }

    /// Hands an event to `thread`: queued locally when that is the calling
    /// thread (no message round-trip), sent as a control message otherwise.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<'_>,
        thread: ThreadId,
        event: &ControlEvent,
        target: EventTarget,
    ) {
        if thread == ctx.id() {
            self.stopping |= matches!(event, ControlEvent::Stop);
            let event = event.clone();
            self.pending_events.push_back(EventMsg { event, target });
        } else {
            let (msg, constraint) = EventMsg::message(event, target);
            let _ = ctx.send_with(thread, msg, constraint);
        }
    }

    /// Broadcasts an event to every pipeline thread and listener.
    pub(crate) fn broadcast(&mut self, ctx: &mut Ctx<'_>, event: &ControlEvent) {
        let (threads, listeners) = {
            let routing = self.shared.routing.lock();
            (routing.threads.clone(), routing.listeners.clone())
        };
        for t in threads.into_iter().chain(listeners) {
            self.deliver(ctx, t, event, EventTarget::Broadcast);
        }
    }

    /// Sends an event to one specific stage.
    pub(crate) fn send_to_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        stage: StageId,
        event: &ControlEvent,
    ) {
        let thread = self.shared.routing.lock().stage_thread.get(&stage).copied();
        if let Some(thread) = thread {
            self.deliver(ctx, thread, event, EventTarget::Stage(stage));
        }
    }

    // The operations below block the thread or, on a polled thread,
    // suspend it: one implementation, awaited by a polled coroutine and
    // run through `block_on` by an OS-backed thread. The round trips to a
    // coroutine and a coroutine's answer-and-wait await their kernel
    // operations one level up (`PushNode::push_async`,
    // `PullNode::pull_async`, `MsgEndpoint`), and hand what each returns
    // to `received` or `replied` here before the next await, so that no
    // kernel operation's output is held across the next one.

    /// Blocks until a message with one of the `accept`ed tags arrives,
    /// staying receptive to control messages: `accept` lists
    /// [`tags::CTRL`], controls are queued for later dispatch, and a stop
    /// request (or shutdown) aborts the wait with `None`.
    ///
    /// A function returning an `async` block rather than an `async fn`,
    /// as [`send_wakeups`] is: an `async fn`'s future keeps its arguments
    /// twice, and this one sits inside every buffer operation's.
    pub(crate) fn wait_tag<'s, 'k>(
        &'s mut self,
        ctx: &'s mut Ctx<'k>,
        accept: &'s [Tag],
    ) -> impl Future<Output = Option<Envelope>> + use<'s, 'k> {
        debug_assert!(accept.contains(&tags::CTRL), "a wait deaf to stop");
        async move {
            while !self.stopping {
                let got = ctx.receive_tags_async(accept).await;
                if let ControlFlow::Break(got) = self.received(got) {
                    return got;
                }
            }
            None
        }
    }

    /// What a control-receptive wait makes of one receive: the message it
    /// waits for (`Break(Some)`), the end of the wait on a stop request or
    /// shutdown (`Break(None)`), or a control message, queued for later
    /// dispatch while the wait goes on (`Continue`).
    pub(crate) fn received(
        &mut self,
        got: Result<Envelope, KernelError>,
    ) -> ControlFlow<Option<Envelope>> {
        match got {
            Ok(env) if env.tag() != tags::CTRL => ControlFlow::Break(Some(env)),
            Ok(ctl) => {
                self.note_control(ctl);
                if self.stopping {
                    ControlFlow::Break(None)
                } else {
                    ControlFlow::Continue(())
                }
            }
            Err(_) => {
                self.stopping = true;
                ControlFlow::Break(None)
            }
        }
    }

    // ------------------------------------------------------------------
    // Coroutine round trips
    // ------------------------------------------------------------------

    /// The request of a synchronous round trip to a coroutine (a `GET`, or
    /// a `PUT` of `item`): this thread's box, holding `item`. `None` once a
    /// stop request has been observed.
    pub(crate) fn request(&mut self, tag: Tag, item: Option<Item>) -> Option<Message> {
        if self.stopping {
            return None;
        }
        let mut slot = self.slot.take().unwrap_or_default();
        *slot = item;
        Some(Message::from_body(tag, slot))
    }

    /// What one kernel operation of a round trip came to. A reply ends it
    /// with what its box carried, as a pull sees it (an item, or none at
    /// the end of the stream), and the box comes home for the next
    /// request. A control message is queued for later dispatch and the
    /// wait goes on (`Continue`, with the wait to resume), unless it is a
    /// stop request; that and shutdown end it with
    /// [`Pulled::Interrupted`].
    pub(crate) fn replied(
        &mut self,
        outcome: Result<SyncOutcome, KernelError>,
    ) -> ControlFlow<Pulled, PendingReply> {
        match outcome {
            Ok(SyncOutcome::Reply(mut env)) => {
                let mut slot = take_slot(env.message_mut());
                let item = slot.take();
                self.slot = Some(slot);
                ControlFlow::Break(item.map_or(Pulled::Eos, Pulled::Item))
            }
            Ok(SyncOutcome::Interrupted(pending, ctl)) => {
                if self.note_control(ctl) {
                    ControlFlow::Break(Pulled::Interrupted)
                } else {
                    ControlFlow::Continue(pending)
                }
            }
            Err(_) => {
                self.stopping = true;
                ControlFlow::Break(Pulled::Interrupted)
            }
        }
    }

    // ------------------------------------------------------------------
    // Buffer operations (blocking, control-receptive)
    // ------------------------------------------------------------------

    pub(crate) async fn buffer_take(&mut self, ctx: &mut Ctx<'_>, buf: &BufHandle) -> Pulled {
        let (item, wake) = loop {
            if self.stopping {
                return Pulled::Interrupted;
            }
            match buf.take_or_wait(ctx.id()) {
                TakeOutcome::Taken(item, wake) => break (item, wake),
                TakeOutcome::Empty => return Pulled::Empty,
                TakeOutcome::Eos => return Pulled::Eos,
                TakeOutcome::MustWait => {}
            }
            let accept = [tags::ARRIVAL, tags::CTRL];
            if self.wait_tag(ctx, &accept).await.is_none() {
                return Pulled::Interrupted;
            }
        };
        send_wakeups(ctx, wake).await;
        Pulled::Item(item)
    }

    pub(crate) async fn buffer_put(
        &mut self,
        ctx: &mut Ctx<'_>,
        buf: &BufHandle,
        mut item: Item,
    ) -> PushRes {
        let wake = loop {
            if self.stopping {
                return PushRes::Interrupted;
            }
            match buf.try_put(item) {
                PutOutcome::Stored(wake) | PutOutcome::Dropped(wake) => break wake,
                PutOutcome::MustWait(returned) => item = returned,
            }
            buf.wait_for_space(ctx.id());
            let accept = [tags::SPACE, tags::CTRL];
            if self.wait_tag(ctx, &accept).await.is_none() {
                return PushRes::Interrupted;
            }
        };
        send_wakeups(ctx, wake).await;
        PushRes::Ok
    }
}

/// Performs the wakeups a buffer mutation demands. Each send is a
/// preemption point.
pub(crate) fn send_wakeups<'s, 'k>(
    ctx: &'s mut Ctx<'k>,
    wake: Wakeups,
) -> impl Future<Output = ()> + use<'s, 'k> {
    let mut messages = wake.messages();
    async move {
        for (t, msg) in messages.by_ref() {
            let _ = ctx.send_async(t, msg).await;
        }
    }
}
