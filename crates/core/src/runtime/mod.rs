//! The pipeline runtime: section threads, coroutine glue, and the
//! message-based synchronization that keeps every blocked operation
//! receptive to control events (§4).
//!
//! Layout:
//!
//! * [`mod@self`] — shared state, the data-movement primitives
//!   (buffer put/take, synchronous GET/PUT round-trips), and event
//!   broadcast,
//! * [`nodes`] — the direct-call interpretation trees (`PullNode`,
//!   `PushNode`) and coroutine spawning,
//! * [`stagectx`] — the [`StageCtx`]/[`EventCtx`] API components see,
//! * [`owner`] — the section owner's code function (pump scheduling),
//! * [`coroutine`] — the generated glue adapting activity styles
//!   (Figs. 5–8),
//! * [`running`] — pipeline launch and the [`RunningPipeline`] handle.

mod coroutine;
mod nodes;
mod owner;
mod running;
mod stagectx;

pub use running::{EventSubscription, RunningPipeline};
pub use stagectx::{EventCtx, StageCtx};

pub(crate) use running::launch as launch_pipeline;

use crate::buffer::{BufHandle, PutOutcome, TakeOutcome, Wakeups};
use crate::events::{tags, ControlEvent, EventMsg, EventTarget};
use crate::graph::StageId;
use crate::item::Item;
use mbthread::{Constraint, Ctx, Envelope, Kernel, Message, Priority, SyncOutcome, Tag, ThreadId};
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
}

impl RtState {
    pub(crate) fn new(shared: Arc<Shared>) -> RtState {
        RtState {
            shared,
            pending_events: VecDeque::new(),
            stopping: false,
            items_moved: 0,
        }
    }

    /// Inspects a control envelope mid-block: remembers it for later
    /// dispatch and notes stop/EOS urgency. Returns the event kind's
    /// effect on the blocked operation.
    fn note_control(&mut self, env: Envelope) -> ControlFlowHint {
        let Ok(msg) = env.into_message().into_body::<EventMsg>() else {
            return ControlFlowHint::Keep;
        };
        let hint = match &msg.event {
            ControlEvent::Stop => {
                self.stopping = true;
                ControlFlowHint::Abort
            }
            ControlEvent::Eos => ControlFlowHint::Eos,
            _ => ControlFlowHint::Keep,
        };
        self.pending_events.push_back(msg);
        hint
    }

    /// Broadcasts an event to every pipeline thread and listener.
    pub(crate) fn broadcast(&mut self, ctx: &mut Ctx<'_>, event: &ControlEvent) {
        let (threads, listeners) = {
            let routing = self.shared.routing.lock();
            (routing.threads.clone(), routing.listeners.clone())
        };
        let constraint = Some(Constraint::priority(Priority::CONTROL));
        for t in threads.into_iter().chain(listeners) {
            if t == ctx.id() {
                // Local delivery without a message round-trip.
                self.pending_events.push_back(EventMsg {
                    event: event.clone(),
                    target: EventTarget::Broadcast,
                });
                if matches!(event, ControlEvent::Stop) {
                    self.stopping = true;
                }
                continue;
            }
            let msg = Message::new(
                tags::CTRL,
                EventMsg {
                    event: event.clone(),
                    target: EventTarget::Broadcast,
                },
            );
            let _ = ctx.send_with(t, msg, constraint);
        }
    }

    /// Sends an event to one specific stage.
    pub(crate) fn send_to_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        stage: StageId,
        event: &ControlEvent,
    ) {
        let target = {
            let routing = self.shared.routing.lock();
            routing.stage_thread.get(&stage).copied()
        };
        let Some(thread) = target else { return };
        if thread == ctx.id() {
            self.pending_events.push_back(EventMsg {
                event: event.clone(),
                target: EventTarget::Stage(stage),
            });
            return;
        }
        let msg = Message::new(
            tags::CTRL,
            EventMsg {
                event: event.clone(),
                target: EventTarget::Stage(stage),
            },
        );
        let _ = ctx.send_with(thread, msg, Some(Constraint::priority(Priority::CONTROL)));
    }

    /// Performs the wakeups a buffer mutation demands.
    pub(crate) fn send_wakeups(&mut self, ctx: &mut Ctx<'_>, wake: Wakeups) {
        wake.post(|t, msg| {
            let _ = ctx.send(t, msg);
        });
    }

    /// Blocks until a message tagged `want` arrives, staying receptive to
    /// control messages: controls are queued for later dispatch, a stop
    /// request aborts the wait, and — when `eos_ends` — an end-of-stream
    /// control ends it too (used by push-position coroutine glue, whose
    /// only EOS signal is that control).
    pub(crate) fn wait_tag_ext(
        &mut self,
        ctx: &mut Ctx<'_>,
        want: Tag,
        eos_ends: bool,
    ) -> WaitOutcome {
        loop {
            if self.stopping {
                return WaitOutcome::Stop;
            }
            let env = match ctx.receive_tags(&[want, tags::CTRL]) {
                Ok(env) => env,
                Err(_) => {
                    self.stopping = true;
                    return WaitOutcome::Stop;
                }
            };
            if env.tag() == tags::CTRL {
                match self.note_control(env) {
                    ControlFlowHint::Abort => return WaitOutcome::Stop,
                    ControlFlowHint::Eos if eos_ends => return WaitOutcome::Eos,
                    // Otherwise EOS is handled by the data path (buffer
                    // marks / GET replies carry it); informational here.
                    ControlFlowHint::Eos | ControlFlowHint::Keep => {}
                }
                continue;
            }
            return WaitOutcome::Msg(env);
        }
    }

    /// [`RtState::wait_tag_ext`] for waits whose EOS arrives on the data
    /// path; returns `None` on stop/shutdown.
    pub(crate) fn wait_tag(&mut self, ctx: &mut Ctx<'_>, want: Tag) -> Option<Envelope> {
        match self.wait_tag_ext(ctx, want, false) {
            WaitOutcome::Msg(env) => Some(env),
            WaitOutcome::Stop | WaitOutcome::Eos => None,
        }
    }

    // ------------------------------------------------------------------
    // Buffer operations (blocking, control-receptive)
    // ------------------------------------------------------------------

    pub(crate) fn buffer_take(&mut self, ctx: &mut Ctx<'_>, buf: &BufHandle) -> Pulled {
        loop {
            if self.stopping {
                return Pulled::Interrupted;
            }
            match buf.take_or_wait(ctx.id()) {
                TakeOutcome::Taken(item, wake) => {
                    self.send_wakeups(ctx, wake);
                    return Pulled::Item(item);
                }
                TakeOutcome::Empty => return Pulled::Empty,
                TakeOutcome::Eos => return Pulled::Eos,
                TakeOutcome::MustWait => {
                    if self.wait_tag(ctx, tags::ARRIVAL).is_none() {
                        return Pulled::Interrupted;
                    }
                }
            }
        }
    }

    pub(crate) fn buffer_put(&mut self, ctx: &mut Ctx<'_>, buf: &BufHandle, item: Item) -> PushRes {
        let mut item = item;
        loop {
            if self.stopping {
                return PushRes::Interrupted;
            }
            match buf.try_put(item) {
                PutOutcome::Stored(wake) | PutOutcome::Dropped(wake) => {
                    self.send_wakeups(ctx, wake);
                    return PushRes::Ok;
                }
                PutOutcome::MustWait(returned) => {
                    item = returned;
                    buf.wait_for_space(ctx.id());
                    if self.wait_tag(ctx, tags::SPACE).is_none() {
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
    pub(crate) fn sync_get(&mut self, ctx: &mut Ctx<'_>, coro: ThreadId) -> Pulled {
        if self.stopping {
            return Pulled::Interrupted;
        }
        let Ok(mut pending) = ctx.begin_sync(coro, Message::signal(tags::GET)) else {
            self.stopping = true;
            return Pulled::Interrupted;
        };
        loop {
            match ctx.wait_or(pending, tags::INTERRUPTS) {
                Ok(SyncOutcome::Reply(mut env)) => {
                    let reply: crate::events::GetReply = env
                        .message_mut()
                        .take_body()
                        .expect("GET reply carries GetReply");
                    return match reply.0 {
                        Some(item) => Pulled::Item(item),
                        None => Pulled::Eos,
                    };
                }
                Ok(SyncOutcome::Interrupted(p, ctl)) => match self.note_control(ctl) {
                    ControlFlowHint::Abort => return Pulled::Interrupted,
                    _ => pending = p,
                },
                Err(_) => {
                    self.stopping = true;
                    return Pulled::Interrupted;
                }
            }
        }
    }

    /// Hands an item to a downstream coroutine and waits until the
    /// coroutine comes back for more (the synchronous hand-off of Fig. 5).
    pub(crate) fn sync_put(&mut self, ctx: &mut Ctx<'_>, coro: ThreadId, item: Item) -> PushRes {
        if self.stopping {
            return PushRes::Interrupted;
        }
        let Ok(mut pending) = ctx.begin_sync(coro, Message::new(tags::PUT, item)) else {
            self.stopping = true;
            return PushRes::Interrupted;
        };
        loop {
            match ctx.wait_or(pending, tags::INTERRUPTS) {
                Ok(SyncOutcome::Reply(_ack)) => return PushRes::Ok,
                Ok(SyncOutcome::Interrupted(p, ctl)) => match self.note_control(ctl) {
                    ControlFlowHint::Abort => return PushRes::Interrupted,
                    _ => pending = p,
                },
                Err(_) => {
                    self.stopping = true;
                    return PushRes::Interrupted;
                }
            }
        }
    }
}

/// How a control event affects a blocked data operation.
enum ControlFlowHint {
    Keep,
    Abort,
    Eos,
}

/// Result of a control-receptive wait.
pub(crate) enum WaitOutcome {
    /// A wanted message arrived.
    Msg(Envelope),
    /// The wait was aborted by a stop request or shutdown.
    Stop,
    /// An end-of-stream control ended the wait (only when requested).
    Eos,
}
