//! The contexts handed to component code.
//!
//! [`StageCtx`] is what `push`/`pull`/`run` implementations see: `get` and
//! `put` operations whose meaning depends on where the middleware placed
//! the component — direct calls into adjacent stages, buffer operations,
//! or synchronous coroutine messages. The component cannot tell the
//! difference; that is thread transparency. [`EventCtx`] is the narrower
//! context available to control-event handlers.

use super::coroutine::MsgEndpoint;
use super::nodes::{PullNode, PushNode};
use super::{Pulled, PushRes, RtState};
use crate::events::ControlEvent;
use crate::graph::StageId;
use crate::item::Item;
use mbthread::{Ctx, Time};
use std::time::Duration;

/// What `get` is wired to for the current invocation.
pub(crate) enum GetWiring<'a> {
    /// No upstream (sink-side invocation or source component).
    None,
    /// Direct interpretation of the thread's upstream chain.
    Tree(&'a mut PullNode),
    /// Wait for items pushed by an upstream requester (coroutine glue).
    Msg(&'a mut MsgEndpoint),
}

/// What `put` is wired to.
pub(crate) enum PutWiring<'a> {
    None,
    /// Direct interpretation of the thread's downstream tree.
    Tree(&'a mut PushNode),
    /// Answer the pending pull request of a downstream requester
    /// (coroutine glue).
    Msg(&'a mut MsgEndpoint),
}

/// The interaction context of a running component.
///
/// Provided to [`Consumer::push`](crate::Consumer::push),
/// [`Producer::pull`](crate::Producer::pull), and
/// [`ActiveObject::run`](crate::ActiveObject::run). All blocking
/// operations remain receptive to control events: stop requests make
/// subsequent `get`s return `None` and `put`s become no-ops, with
/// [`StageCtx::stopping`] turning true.
pub struct StageCtx<'a, 'k> {
    pub(crate) ctx: &'a mut Ctx<'k>,
    pub(crate) rt: &'a mut RtState,
    pub(crate) get: GetWiring<'a>,
    pub(crate) put: PutWiring<'a>,
    /// Why the last `get` returned `None` (for EOS vs. empty telling).
    pub(crate) last_none: Option<Pulled>,
    pub(crate) push_status: PushRes,
}

impl<'a, 'k> StageCtx<'a, 'k> {
    pub(crate) fn pull_position(
        ctx: &'a mut Ctx<'k>,
        rt: &'a mut RtState,
        up: &'a mut PullNode,
    ) -> Self {
        StageCtx {
            ctx,
            rt,
            get: GetWiring::Tree(up),
            put: PutWiring::None,
            last_none: None,
            push_status: PushRes::Ok,
        }
    }

    pub(crate) fn push_position(
        ctx: &'a mut Ctx<'k>,
        rt: &'a mut RtState,
        down: &'a mut PushNode,
    ) -> Self {
        StageCtx {
            ctx,
            rt,
            get: GetWiring::None,
            put: PutWiring::Tree(down),
            last_none: None,
            push_status: PushRes::Ok,
        }
    }

    pub(crate) fn wired(
        ctx: &'a mut Ctx<'k>,
        rt: &'a mut RtState,
        get: GetWiring<'a>,
        put: PutWiring<'a>,
    ) -> Self {
        StageCtx {
            ctx,
            rt,
            get,
            put,
            last_none: None,
            push_status: PushRes::Ok,
        }
    }

    /// Takes the next item from upstream. Returns `None` at end of stream,
    /// when the pipeline is stopping, or when a non-blocking upstream is
    /// empty.
    pub fn get(&mut self) -> Option<Item> {
        let pulled = match &mut self.get {
            GetWiring::None => Pulled::Eos,
            GetWiring::Tree(up) => up.pull(self.ctx, self.rt),
            GetWiring::Msg(ep) => ep.msg_get(self.ctx, self.rt),
        };
        match pulled {
            Pulled::Item(item) => {
                self.last_none = None;
                Some(item)
            }
            other => {
                self.last_none = Some(other);
                None
            }
        }
    }

    /// Sends an item downstream. When the pipeline is stopping the item is
    /// discarded ([`StageCtx::stopping`] turns true).
    pub fn put(&mut self, item: Item) {
        let res = match &mut self.put {
            PutWiring::None => PushRes::Ok,
            PutWiring::Tree(down) => down.push(self.ctx, self.rt, item),
            PutWiring::Msg(ep) => ep.msg_put(self.ctx, self.rt, item),
        };
        if res == PushRes::Interrupted {
            self.push_status = PushRes::Interrupted;
        } else {
            self.rt.items_moved += 1;
        }
    }

    /// Whether a stop request has been observed; long-running `run` loops
    /// should exit when this turns true.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.rt.stopping
    }

    /// Current kernel time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Suspends the component until the given kernel time. Intended for
    /// clock-driven active sinks (audio devices with their own timing,
    /// §3.1). Returns `false` if interrupted by shutdown.
    pub fn sleep_until(&mut self, at: Time) -> bool {
        self.ctx.sleep_until(at).is_ok()
    }

    /// Suspends the component for a duration of kernel time.
    pub fn sleep(&mut self, d: Duration) -> bool {
        self.ctx.sleep(d).is_ok()
    }

    /// Broadcasts a control event to the whole pipeline via the event
    /// service.
    pub fn broadcast(&mut self, event: &ControlEvent) {
        self.rt.broadcast(self.ctx, event);
    }

    /// Posts a raw kernel message, inheriting the current constraint.
    ///
    /// This is a platform-level escape hatch for components that bridge
    /// to non-pipeline kernel threads — netpipe transports use it to hand
    /// outgoing data to their link thread. Ordinary components should use
    /// `get`/`put` and control events instead.
    pub fn post(&mut self, to: mbthread::ThreadId, msg: mbthread::Message) -> bool {
        self.ctx.send(to, msg).is_ok()
    }

    /// Resolution of the component's own `push` invocation (did every
    /// nested put land?).
    pub(crate) fn push_status(&self) -> PushRes {
        self.push_status
    }

    /// Why the component's `pull` returned `None`, as a `Pulled` verdict.
    pub(crate) fn none_reason(&self) -> Pulled {
        match self.last_none {
            Some(Pulled::Empty) => Pulled::Empty,
            Some(Pulled::Interrupted) => Pulled::Interrupted,
            // Either upstream said EOS or the producer decided on its own
            // to end the stream.
            _ => Pulled::Eos,
        }
    }
}

impl std::fmt::Debug for StageCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCtx")
            .field("stopping", &self.rt.stopping)
            .finish()
    }
}

/// The context available to control-event handlers
/// ([`Stage::on_event`](crate::Stage::on_event)).
pub struct EventCtx<'a, 'k> {
    pub(crate) ctx: &'a mut Ctx<'k>,
    pub(crate) rt: &'a mut RtState,
    pub(crate) stage: StageId,
}

impl EventCtx<'_, '_> {
    /// Current kernel time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Broadcasts an event to the whole pipeline.
    pub fn broadcast(&mut self, event: &ControlEvent) {
        self.rt.broadcast(self.ctx, event);
    }

    /// Posts a raw kernel message (platform-level; see
    /// [`StageCtx::post`]).
    pub fn post(&mut self, to: mbthread::ThreadId, msg: mbthread::Message) -> bool {
        self.ctx.send(to, msg).is_ok()
    }

    /// Sends an event to the nearest upstream stage (local control
    /// interaction between adjacent components, §2.2).
    pub fn send_upstream(&mut self, event: &ControlEvent) {
        let up = {
            let routing = self.rt.shared.routing.lock();
            routing.neighbors.get(&self.stage).and_then(|(u, _)| *u)
        };
        if let Some(up) = up {
            self.rt.send_to_stage(self.ctx, up, event);
        }
    }

    /// Sends an event to the nearest downstream stage(s).
    pub fn send_downstream(&mut self, event: &ControlEvent) {
        let downs = {
            let routing = self.rt.shared.routing.lock();
            routing
                .neighbors
                .get(&self.stage)
                .map(|(_, d)| d.clone())
                .unwrap_or_default()
        };
        for d in downs {
            self.rt.send_to_stage(self.ctx, d, event);
        }
    }
}

impl std::fmt::Debug for EventCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCtx")
            .field("stage", &self.stage)
            .finish()
    }
}
