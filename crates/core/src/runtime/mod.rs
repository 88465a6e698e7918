//! The pipeline runtime: section threads, coroutine glue, and the
//! message-based synchronization that keeps every blocked operation
//! receptive to control events (§4).
//!
//! Layout:
//!
//! * [`mod@self`] — shared state, the data-movement primitives
//!   (buffer put/take, synchronous GET/PUT round-trips), and event
//!   broadcast,
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
use mbthread::{Ctx, Envelope, Kernel, Message, SyncOutcome, Tag, ThreadId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
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

    /// Performs the wakeups a buffer mutation demands. Each send is a
    /// preemption point.
    pub(crate) async fn send_wakeups(&mut self, ctx: &mut Ctx<'_>, wake: Wakeups) {
        for (t, msg) in wake.messages() {
            let _ = ctx.send_async(t, msg).await;
        }
    }

    // The operations below block the thread or, on a polled thread,
    // suspend it: one implementation, awaited by a polled coroutine and
    // run through `block_on` by an OS-backed thread.

    /// Blocks until a message with one of the `accept`ed tags arrives,
    /// staying receptive to control messages: `accept` lists
    /// [`tags::CTRL`], controls are queued for later dispatch, and a stop
    /// request (or shutdown) aborts the wait with `None`.
    pub(crate) async fn wait_tag(&mut self, ctx: &mut Ctx<'_>, accept: &[Tag]) -> Option<Envelope> {
        debug_assert!(accept.contains(&tags::CTRL), "a wait deaf to stop");
        while !self.stopping {
            let Ok(env) = ctx.receive_tags_async(accept).await else {
                self.stopping = true;
                break;
            };
            if env.tag() != tags::CTRL {
                return Some(env);
            }
            self.note_control(env);
        }
        None
    }

    /// [`RtState::wait_tag`] that first answers the request `req` with
    /// `answer`, in the same kernel critical section as the wait's first
    /// receive. The answer goes out even when the wait is already aborted.
    pub(crate) async fn answer_and_wait(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: Envelope,
        answer: Message,
        accept: &[Tag],
    ) -> Option<Envelope> {
        if self.stopping {
            let reply = ctx.reply_async(&req, answer);
            let _ = reply.await;
            return None;
        }
        let received = ctx.reply_and_receive_async(&req, answer, accept);
        match received.await {
            Ok(env) if env.tag() != tags::CTRL => Some(env),
            Ok(ctl) => {
                self.note_control(ctl);
                self.wait_tag(ctx, accept).await
            }
            Err(_) => {
                self.stopping = true;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Buffer operations (blocking, control-receptive)
    // ------------------------------------------------------------------

    pub(crate) async fn buffer_take(&mut self, ctx: &mut Ctx<'_>, buf: &BufHandle) -> Pulled {
        loop {
            if self.stopping {
                return Pulled::Interrupted;
            }
            match buf.take_or_wait(ctx.id()) {
                TakeOutcome::Taken(item, wake) => {
                    self.send_wakeups(ctx, wake).await;
                    return Pulled::Item(item);
                }
                TakeOutcome::Empty => return Pulled::Empty,
                TakeOutcome::Eos => return Pulled::Eos,
                TakeOutcome::MustWait => {
                    if self
                        .wait_tag(ctx, &[tags::ARRIVAL, tags::CTRL])
                        .await
                        .is_none()
                    {
                        return Pulled::Interrupted;
                    }
                }
            }
        }
    }

    pub(crate) async fn buffer_put(
        &mut self,
        ctx: &mut Ctx<'_>,
        buf: &BufHandle,
        item: Item,
    ) -> PushRes {
        let mut item = item;
        loop {
            if self.stopping {
                return PushRes::Interrupted;
            }
            match buf.try_put(item) {
                PutOutcome::Stored(wake) | PutOutcome::Dropped(wake) => {
                    self.send_wakeups(ctx, wake).await;
                    return PushRes::Ok;
                }
                PutOutcome::MustWait(returned) => {
                    item = returned;
                    buf.wait_for_space(ctx.id());
                    if self
                        .wait_tag(ctx, &[tags::SPACE, tags::CTRL])
                        .await
                        .is_none()
                    {
                        return PushRes::Interrupted;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Coroutine round-trips
    // ------------------------------------------------------------------

    /// Requests the next item from an upstream coroutine (a synchronous
    /// GET that handles control events while blocked).
    pub(crate) async fn sync_get(&mut self, ctx: &mut Ctx<'_>, coro: ThreadId) -> Pulled {
        let request = Message::from_body(tags::GET, self.slot.take().unwrap_or_default());
        let Some(mut env) = self.sync_call(ctx, coro, request).await else {
            return Pulled::Interrupted;
        };
        let mut slot = take_slot(env.message_mut());
        let item = slot.take();
        self.slot = Some(slot);
        match item {
            Some(item) => Pulled::Item(item),
            None => Pulled::Eos,
        }
    }

    /// Hands an item to a downstream coroutine and waits until the
    /// coroutine comes back for more (the synchronous hand-off of Fig. 5).
    pub(crate) async fn sync_put(
        &mut self,
        ctx: &mut Ctx<'_>,
        coro: ThreadId,
        item: Item,
    ) -> PushRes {
        let mut slot = self.slot.take().unwrap_or_default();
        *slot = Some(item);
        let request = Message::from_body(tags::PUT, slot);
        match self.sync_call(ctx, coro, request).await {
            Some(mut ack) => {
                self.slot = Some(take_slot(ack.message_mut()));
                PushRes::Ok
            }
            None => PushRes::Interrupted,
        }
    }

    /// One synchronous round trip to a coroutine, receptive to control
    /// events while blocked: the reply, or `None` when a stop request or
    /// shutdown aborted it.
    async fn sync_call(
        &mut self,
        ctx: &mut Ctx<'_>,
        coro: ThreadId,
        msg: Message,
    ) -> Option<Envelope> {
        if self.stopping {
            return None;
        }
        let mut outcome = ctx.call_async(coro, msg, None, tags::INTERRUPTS).await;
        loop {
            match outcome {
                Ok(SyncOutcome::Reply(env)) => return Some(env),
                Ok(SyncOutcome::Interrupted(pending, ctl)) => {
                    if self.note_control(ctl) {
                        return None;
                    }
                    outcome = ctx.wait_or_async(pending, tags::INTERRUPTS).await;
                }
                Err(_) => {
                    self.stopping = true;
                    return None;
                }
            }
        }
    }
}
