//! The contexts handed to component code.
//!
//! [`StageCtx`] is what `push`/`pull` implementations see, [`ActiveCtx`]
//! what an active object's `run` sees: `get` and `put` operations whose
//! meaning depends on where the middleware placed the component — direct
//! calls into adjacent stages, buffer operations, or synchronous
//! coroutine messages. The component cannot tell the difference; that is
//! thread transparency. An active object awaits its `get` and `put`, so
//! its coroutine can be a polled kernel thread that suspends where it
//! would otherwise block. [`EventCtx`] is the narrower context available
//! to control-event handlers.

use super::coroutine::MsgEndpoint;
use super::nodes::{PullNode, PushNode};
use super::{Pulled, PushRes, RtState};
use crate::events::ControlEvent;
use crate::graph::StageId;
use crate::item::Item;
use mbthread::{block_on, Ctx, Time};
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

/// The interaction context of a running passive component.
///
/// Provided to [`Consumer::push`](crate::Consumer::push) and
/// [`Producer::pull`](crate::Producer::pull). All blocking operations
/// remain receptive to control events: stop requests make subsequent
/// `get`s return `None` and `put`s become no-ops, with
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
            GetWiring::Msg(ep) => block_on(|| ep.msg_get(self.ctx, self.rt)),
        };
        self.took(pulled)
    }

    /// What a `get` returns for what it pulled; why it was `None` is kept
    /// for [`StageCtx::none_reason`].
    fn took(&mut self, pulled: Pulled) -> Option<Item> {
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
            PutWiring::Msg(ep) => block_on(|| ep.msg_put(self.ctx, self.rt, item)),
        };
        self.gave(res);
    }

    /// Records how a `put` went, for [`StageCtx::push_status`].
    fn gave(&mut self, res: PushRes) {
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

    /// Blocks the component's thread for a duration of kernel time (a
    /// clock-driven active object awaits [`ActiveCtx::sleep_until`]
    /// instead). Returns `false` if interrupted by shutdown.
    ///
    /// # Panics
    ///
    /// Panics in a stage that an active object's polled coroutine calls
    /// directly: that thread suspends, it cannot block.
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

/// The interaction context of an active object's main function
/// ([`ActiveObject::run`](crate::ActiveObject::run)): [`StageCtx`]'s
/// operations, with the ones that may wait awaited.
///
/// Where every stage its coroutine calls directly runs without blocking,
/// the coroutine is a polled kernel thread: an awaited `get` or `put`
/// suspends it, and the kernel's hand-off to the next thread is a poll on
/// the same OS thread. Elsewhere (a section owner, a coroutine calling a
/// blocking stage) the same `run` executes on an OS-backed thread, and the
/// awaits complete in place. All waits remain receptive to control
/// events, as [`StageCtx`]'s do.
#[derive(Debug)]
pub struct ActiveCtx<'a, 'k>(pub(crate) StageCtx<'a, 'k>);

impl ActiveCtx<'_, '_> {
    /// Takes the next item from upstream (see [`StageCtx::get`]).
    pub async fn get(&mut self) -> Option<Item> {
        let s = &mut self.0;
        let pulled = match &mut s.get {
            GetWiring::None => Pulled::Eos,
            GetWiring::Tree(up) => up.pull_async(s.ctx, s.rt).await,
            GetWiring::Msg(ep) => ep.msg_get(s.ctx, s.rt).await,
        };
        s.took(pulled)
    }

    /// Sends an item downstream (see [`StageCtx::put`]).
    pub async fn put(&mut self, item: Item) {
        let s = &mut self.0;
        let res = match &mut s.put {
            PutWiring::None => PushRes::Ok,
            PutWiring::Tree(down) => down.push_async(s.ctx, s.rt, item).await,
            PutWiring::Msg(ep) => ep.msg_put(s.ctx, s.rt, item).await,
        };
        s.gave(res);
    }

    /// Whether a stop request has been observed; the main loop should
    /// return when this turns true.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.0.stopping()
    }

    /// Current kernel time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.0.now()
    }

    /// Waits until the given kernel time: for clock-driven active sinks
    /// (audio devices with their own timing, §3.1). Returns `false` if
    /// interrupted by shutdown.
    pub async fn sleep_until(&mut self, at: Time) -> bool {
        self.0.ctx.sleep_until_async(at).await.is_ok()
    }

    /// Broadcasts a control event (see [`StageCtx::broadcast`]). On a
    /// polled coroutine, a more urgent thread this makes runnable runs at
    /// the next awaited operation.
    pub fn broadcast(&mut self, event: &ControlEvent) {
        self.0.broadcast(event);
    }

    /// Posts a raw kernel message (see [`StageCtx::post`]; preemption as
    /// in [`ActiveCtx::broadcast`]).
    pub fn post(&mut self, to: mbthread::ThreadId, msg: mbthread::Message) -> bool {
        self.0.post(to, msg)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Routing, Shared};
    use mbthread::{Envelope, Flow, Kernel, KernelConfig, Message, Tag, ThreadId};
    use parking_lot::Mutex;
    use std::mem::size_of_val;
    use std::sync::{mpsc, Arc};

    /// The most an active object's `get` or `put` future may hold,
    /// whatever it is wired to: the kernel's hand-off future and at most
    /// one level of glue between the two.
    const ACTIVE_OP_FUTURE: usize = 512;

    /// The size gate of an active object's hand-offs, on the wiring of the
    /// benchmark's coroutine chain: `get` answers `PUT`s, `put` sends them
    /// to the next coroutine. Each future is built and dropped, never
    /// polled. `cargo test -p infopipes --lib size_gate -- --nocapture`
    /// prints the table.
    #[test]
    fn size_gate_active_get_and_put() {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let shared = Arc::new(Shared {
            kernel: kernel.clone(),
            routing: Mutex::new(Routing::default()),
            name: "sizes".into(),
        });
        let (tx, rx) = mpsc::channel();
        let probe = move |ctx: &mut Ctx<'_>, _: Envelope| {
            let mut rt = RtState::new(Arc::clone(&shared));
            let mut ep = MsgEndpoint::default();
            let mut down = PushNode::Coro(ThreadId::from_raw(0));
            let get = {
                let wiring = (GetWiring::Msg(&mut ep), PutWiring::None);
                let mut actx = ActiveCtx(StageCtx::wired(ctx, &mut rt, wiring.0, wiring.1));
                let bytes = size_of_val(&actx.get());
                bytes
            };
            let put = {
                let wiring = (GetWiring::None, PutWiring::Tree(&mut down));
                let mut actx = ActiveCtx(StageCtx::wired(ctx, &mut rt, wiring.0, wiring.1));
                let bytes = size_of_val(&actx.put(Item::new(0u64)));
                bytes
            };
            tx.send([
                ("ActiveCtx::get, wired to a MsgEndpoint", get),
                ("ActiveCtx::put, wired to a PushNode::Coro", put),
            ])
            .expect("the test waits");
            Flow::Stop
        };
        let id = kernel.spawn("sizes", probe).expect("spawn");
        let port = kernel.external("main");
        port.send(id, Message::signal(Tag(0))).expect("send");
        let rows = rx.recv().expect("the probe reports");
        drop(port);
        kernel.shutdown();
        println!("{:<42} {:>5} {:>7}", "future", "bytes", "at most");
        for (name, bytes) in rows {
            println!("{name:<42} {bytes:>5} {ACTIVE_OP_FUTURE:>7}");
        }
        for (name, bytes) in rows {
            assert!(
                bytes <= ACTIVE_OP_FUTURE,
                "{name} is {bytes} bytes, over {ACTIVE_OP_FUTURE}"
            );
        }
    }
}
