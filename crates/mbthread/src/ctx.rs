//! The thread-side kernel API.
//!
//! A [`Ctx`] is handed to a thread's code function on every invocation; it
//! is the only way a thread interacts with the kernel: sending messages,
//! suspending for further messages, sleeping, and setting timers. All
//! operations are *preemption points*: waking a more urgent thread hands
//! the CPU over immediately (when the kernel is configured preemptive) —
//! on a polled thread, at its next suspension point (see [`Ctx`]).

use crate::clock::Time;
use crate::constraint::{Constraint, Priority};
use crate::error::{KernelError, SendError};
use crate::kernel::{KGuard, Kernel};
use crate::message::{Envelope, Message, ReplyToken, SpecRef, Tag};
use crate::sched::{self, KState};
use crate::thread::{block_on, CodeFn, RunState, ThreadId};
use crate::timer::{TimerId, TimerKind};
use parking_lot::Condvar;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

/// Options for spawning a thread: a name (for diagnostics) and a static
/// priority.
#[derive(Clone, Debug)]
pub struct SpawnOptions {
    /// Diagnostic name, also used for the backing OS thread.
    pub name: String,
    /// Static scheduling priority.
    pub priority: Priority,
}

impl SpawnOptions {
    /// Creates options with the given name and [`Priority::NORMAL`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SpawnOptions {
            name: name.into(),
            priority: Priority::NORMAL,
        }
    }

    /// Sets the static priority.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

impl From<&str> for SpawnOptions {
    fn from(name: &str) -> Self {
        SpawnOptions::new(name)
    }
}

impl From<String> for SpawnOptions {
    fn from(name: String) -> Self {
        SpawnOptions::new(name)
    }
}

/// A synchronous send interrupted before its reply: proof that a reply
/// token is outstanding.
///
/// Handed out by [`SyncOutcome::Interrupted`]; resume the wait with
/// [`Ctx::wait_or`]. Dropping it unclaimed cancels the wait and discards
/// any late reply.
#[derive(Debug)]
pub struct PendingReply {
    kernel: Kernel,
    pub(crate) token: u64,
    pub(crate) to: ThreadId,
    pub(crate) me: ThreadId,
    pub(crate) live: bool,
}

impl PendingReply {
    fn consume(&mut self) {
        self.live = false;
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // Cancel the wait: retire the token, stop donating priority, and
        // discard any reply that already landed in our mailbox.
        let mut state = self.kernel.inner.lock();
        state.cancel_wait(self.me, self.to, self.token);
    }
}

/// Outcome of [`Ctx::call`] and [`Ctx::wait_or`]: either the awaited
/// reply, or an interrupting message (e.g. a control event) with the wait
/// still pending.
#[derive(Debug)]
pub enum SyncOutcome {
    /// The reply arrived; the synchronous send is complete.
    Reply(Envelope),
    /// An envelope matching the interrupt tags arrived first. Handle it,
    /// then resume waiting with the returned [`PendingReply`].
    Interrupted(PendingReply, Envelope),
}

/// The kernel interface available to a running thread.
///
/// See the [crate documentation](crate) for the programming model.
///
/// # Blocking and polled threads
///
/// Each operation that may wait has one body, the future its async form
/// returns ([`Ctx::call_async`], [`Ctx::receive_tags_async`],
/// [`Ctx::sleep_until_async`], …), and the kernel takes the same critical
/// sections in it whatever backs the thread. Only where the thread has
/// given up the CPU do the two backings part. An OS-backed thread parks its
/// OS thread there, inside the critical section, until it is granted the
/// CPU again, so its future completes within its first poll. A polled
/// thread ([`Kernel::spawn_polled`]) *suspends*: the future returns
/// `Pending` with the thread blocked in the kernel, the OS thread that
/// polled it goes on to poll — or wake — whichever thread the kernel
/// granted the CPU, and the future takes up its operation again once
/// polled.
///
/// The futures of a hand-off (a call, its resumed wait, a reply with a
/// receive, a receive, a send) are small state machines written out by
/// hand, not `async fn`s: each holds its arguments until its first
/// critical section and then only what its next one needs — a call its
/// reply token, peer and interrupt tags, a receive its tags — and none
/// holds an [`Envelope`] or a [`SyncOutcome`] while it is suspended. A
/// polled thread's whole stack of glue is one future, so every byte one
/// of them holds is moved and kept for every hand-off it takes part in
/// (at most 128 bytes each; `docs/threading.md`, "What a hand-off
/// carries").
///
/// A blocking form ([`Ctx::call`], [`Ctx::receive_tags`],
/// [`Ctx::sleep_until`], …) is its async form run to completion by
/// [`block_on`](crate::block_on). It panics on a polled thread, before it
/// touches the kernel: parking the OS thread polling it would stall every
/// thread that OS thread runs.
///
/// **Deferred preemption.** A send that is not awaited ([`Ctx::send`],
/// [`Ctx::send_with`], [`Ctx::reply`]) cannot give the CPU away on a
/// polled thread, since only a suspended future can. A more urgent thread
/// such a send makes runnable therefore runs no later than the polled
/// thread's next suspension point: every awaited operation first gives
/// way to it, as the send would have on an OS-backed thread.
pub struct Ctx<'k> {
    kernel: &'k Kernel,
    me: ThreadId,
    cv: Arc<Condvar>,
    /// The kernel generation at which [`Ctx::undisturbed`] last found
    /// nothing this thread has to give way to.
    quiet_at: Option<u64>,
    /// This thread is polled: it suspends instead of parking.
    polled: bool,
    /// A send on this polled thread found a more urgent thread runnable;
    /// the next suspension point gives way to it.
    owes_preemption: bool,
}

impl<'k> Ctx<'k> {
    pub(crate) fn new(kernel: &'k Kernel, me: ThreadId) -> Self {
        let cv = {
            let state = kernel.inner.lock();
            Arc::clone(&state.rec(me).expect("ctx thread exists").cv)
        };
        Ctx {
            kernel,
            me,
            cv,
            quiet_at: None,
            polled: false,
            owes_preemption: false,
        }
    }

    /// The context of a polled thread's body.
    pub(crate) fn new_polled(kernel: &'k Kernel, me: ThreadId) -> Self {
        Ctx {
            polled: true,
            ..Ctx::new(kernel, me)
        }
    }

    /// Fails a blocking form called on a polled thread: parking the OS
    /// thread polling it would stall every thread that OS thread runs.
    fn must_block(&self, op: &str) {
        assert!(
            !self.polled,
            "Ctx::{op} blocks, and {} is a polled thread: use its async form",
            self.me
        );
    }

    /// This thread's id.
    #[must_use]
    pub fn id(&self) -> ThreadId {
        self.me
    }

    /// The kernel this thread belongs to.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        self.kernel
    }

    /// Current kernel time. Lock-free under the real clock.
    #[must_use]
    pub fn now(&self) -> Time {
        self.kernel.now()
    }

    /// Spawns a sibling thread (see [`Kernel::spawn`]).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] if the kernel is shutting down.
    pub fn spawn(
        &self,
        opts: impl Into<SpawnOptions>,
        code: impl CodeFn,
    ) -> Result<ThreadId, KernelError> {
        self.kernel.spawn(opts, code)
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends a message asynchronously. The message inherits the constraint
    /// of the message this thread is currently processing.
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist, has terminated, or the kernel is
    /// shutting down.
    pub fn send(&mut self, to: ThreadId, msg: Message) -> Result<(), SendError> {
        self.post(Outgoing::Send(to, msg, None))
    }

    /// Sends a message asynchronously with an explicit constraint
    /// (`None` sends an unconstrained message).
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist, has terminated, or the kernel is
    /// shutting down.
    pub fn send_with(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> Result<(), SendError> {
        self.post(Outgoing::Send(to, msg, Some(constraint)))
    }

    /// [`Ctx::send`] as a suspension point: on a polled thread, a more
    /// urgent thread the send makes runnable runs before this returns.
    ///
    /// # Errors
    ///
    /// As [`Ctx::send`].
    pub fn send_async(
        &mut self,
        to: ThreadId,
        msg: Message,
    ) -> impl Future<Output = Result<(), SendError>> + Send + use<'_, 'k> {
        Post::new(self, Outgoing::Send(to, msg, None))
    }

    /// [`Ctx::send_with`] as a suspension point (see [`Ctx::send_async`]).
    ///
    /// # Errors
    ///
    /// As [`Ctx::send_with`].
    pub fn send_with_async(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> impl Future<Output = Result<(), SendError>> + Send + use<'_, 'k> {
        Post::new(self, Outgoing::Send(to, msg, Some(constraint)))
    }

    /// A send that is not awaited, in one critical section ending in a
    /// preemption point, which a polled thread owes to its next suspension
    /// point.
    fn post(&mut self, outgoing: Outgoing) -> Result<(), SendError> {
        let mut state = self.kernel.inner.lock();
        self.send_locked(&mut state, outgoing)?;
        self.preemption_point(&mut state, false);
        Ok(())
    }

    /// Queues `outgoing` in the caller's critical section; a send with no
    /// explicit constraint inherits that of the message being processed.
    fn send_locked(&self, state: &mut KGuard<'_>, outgoing: Outgoing) -> Result<(), SendError> {
        match outgoing {
            Outgoing::Send(to, msg, explicit) => {
                let constraint = explicit.unwrap_or_else(|| self.constraint_of(state));
                let env = Envelope::new(Some(self.me), msg, constraint);
                sched::enqueue(state, &self.kernel.inner.stats, to, env)
            }
            Outgoing::Reply(route, msg) => self.reply_locked(state, route, msg),
        }
    }

    /// Sends synchronously and blocks for the reply: see
    /// [`Ctx::call_async`].
    ///
    /// # Errors
    ///
    /// As [`Ctx::call_async`].
    pub fn call(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        self.must_block("call");
        block_on(|| self.call_async(to, msg, constraint, interrupt_tags))
    }

    /// Sends synchronously and waits, in one critical section, until the
    /// reply or a message with one of `interrupt_tags` arrives. This is how
    /// a component blocked in a `push` or `pull` stays receptive to control
    /// events (§4 of the paper): on [`SyncOutcome::Interrupted`], handle the
    /// interrupt, then resume with [`Ctx::wait_or_async`]. While the reply
    /// is outstanding, this thread donates its urgency to the receiver
    /// (priority inheritance).
    ///
    /// The request carries `constraint`, or with `None` the constraint of
    /// the message being processed (as [`Ctx::send`] does). The send is a
    /// preemption point only if an interrupt is already queued: otherwise
    /// the thread blocks, which hands the CPU to the most urgent runnable
    /// thread anyway.
    ///
    /// # Errors
    ///
    /// Fails if the target is unknown or terminated before replying, or
    /// the kernel is shutting down.
    pub fn call_async<'s, 't>(
        &'s mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
        interrupt_tags: &'t [Tag],
    ) -> impl Future<Output = Result<SyncOutcome, KernelError>> + Send + use<'s, 't, 'k> {
        let step = CallStep::Send {
            to,
            msg,
            constraint,
        };
        Call::new(self, interrupt_tags, step)
    }

    /// Resumes the wait of an interrupted [`Ctx::call`]: see
    /// [`Ctx::wait_or_async`].
    ///
    /// # Errors
    ///
    /// As [`Ctx::wait_or_async`].
    pub fn wait_or(
        &mut self,
        pending: PendingReply,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        self.must_block("wait_or");
        block_on(|| self.wait_or_async(pending, interrupt_tags))
    }

    /// Resumes the wait of an interrupted [`Ctx::call_async`]: waits until
    /// either the reply arrives or another message with one of
    /// `interrupt_tags` does.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PeerGone`] if the receiver terminated without
    /// replying, or [`KernelError::Shutdown`].
    pub fn wait_or_async<'s, 't>(
        &'s mut self,
        pending: PendingReply,
        interrupt_tags: &'t [Tag],
    ) -> impl Future<Output = Result<SyncOutcome, KernelError>> + Send + use<'s, 't, 'k> {
        Call::new(self, interrupt_tags, CallStep::Resume(pending))
    }

    /// Sends synchronously and blocks for the reply: [`Ctx::call`] with the
    /// inherited constraint and no interrupts.
    ///
    /// # Errors
    ///
    /// Fails if the target is unknown, terminated before replying, or the
    /// kernel is shutting down.
    pub fn send_sync(&mut self, to: ThreadId, msg: Message) -> Result<Envelope, KernelError> {
        match self.call(to, msg, None, &[])? {
            SyncOutcome::Reply(env) => Ok(env),
            SyncOutcome::Interrupted(..) => unreachable!("a wait without interrupt tags"),
        }
    }

    /// Replies to a synchronous request. Consumes the envelope's reply
    /// token, so replying twice to the same envelope fails.
    ///
    /// # Errors
    ///
    /// [`SendError::NotARequest`] if `env` was not a synchronous request
    /// (or was already replied to); [`SendError::UnknownThread`] if the
    /// requester has terminated.
    pub fn reply(&mut self, env: &Envelope, msg: Message) -> Result<(), SendError> {
        self.post(Outgoing::Reply(ReplyRoute::of(env), msg))
    }

    /// [`Ctx::reply`] as a suspension point (see [`Ctx::send_async`]). The
    /// future holds what the reply needs of `env`, not `env` itself.
    ///
    /// # Errors
    ///
    /// As [`Ctx::reply`].
    pub fn reply_async<'s>(
        &'s mut self,
        env: &Envelope,
        msg: Message,
    ) -> impl Future<Output = Result<(), SendError>> + Send + use<'s, 'k> {
        Post::new(self, Outgoing::Reply(ReplyRoute::of(env), msg))
    }

    /// Replies to `req` and blocks for the next message whose tag is in
    /// `tags`: see [`Ctx::reply_and_receive_async`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn reply_and_receive(
        &mut self,
        req: &Envelope,
        msg: Message,
        tags: &[Tag],
    ) -> Result<Envelope, KernelError> {
        self.must_block("reply_and_receive");
        block_on(|| self.reply_and_receive_async(req, msg, tags))
    }

    /// Replies to `req` and waits for the next message whose tag is in
    /// `tags`, in one critical section: the server side of a hand-off. The
    /// received message is taken as [`Ctx::receive_tags_async`] takes it,
    /// so a request received here becomes the message this thread
    /// processes. The future holds what the reply needs of `req`.
    ///
    /// A reply that [`Ctx::reply`] would refuse (the requester gave up its
    /// wait or terminated) is dropped, and the receive goes ahead. The
    /// reply is a preemption point only if a matching message is already
    /// queued: otherwise the thread blocks, which hands the CPU to the most
    /// urgent runnable thread anyway.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn reply_and_receive_async<'s, 't>(
        &'s mut self,
        req: &Envelope,
        msg: Message,
        tags: &'t [Tag],
    ) -> impl Future<Output = Result<Envelope, KernelError>> + Send + use<'s, 't, 'k> {
        let step = ReceiveStep::Reply(ReplyRoute::of(req), msg);
        Receive::new(self, Some(tags), Receipt::Nested, step)
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Blocks until any message arrives. Used for mid-processing waits:
    /// the constraint of the outer message being processed stays current,
    /// unless the received envelope is a request (it
    /// [wants a reply](Envelope::wants_reply)). This thread then serves
    /// that request, so its constraint becomes current: "messages between
    /// coroutines inherit the constraint from the message received by the
    /// sending component" (§4).
    ///
    /// A reply carries the current constraint too, so a thread that
    /// receives a second request before answering the first stamps the
    /// first reply with the second request's constraint. Answer a request
    /// before receiving the next one where its reply must keep its own.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn receive(&mut self) -> Result<Envelope, KernelError> {
        self.must_block("receive");
        block_on(|| Receive::new(self, None, Receipt::Nested, ReceiveStep::Begin))
    }

    /// Blocks until a message whose tag is in `tags` arrives: see
    /// [`Ctx::receive_tags_async`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn receive_tags(&mut self, tags: &[Tag]) -> Result<Envelope, KernelError> {
        self.must_block("receive_tags");
        block_on(|| self.receive_tags_async(tags))
    }

    /// Waits until a message whose tag is in `tags` arrives; non-matching
    /// messages stay queued in arrival order. A received request becomes
    /// current as in [`Ctx::receive`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn receive_tags_async<'s, 't>(
        &'s mut self,
        tags: &'t [Tag],
    ) -> impl Future<Output = Result<Envelope, KernelError>> + Send + use<'s, 't, 'k> {
        Receive::new(self, Some(tags), Receipt::Nested, ReceiveStep::Begin)
    }

    /// [`Ctx::main_receive_async`] for an OS-backed thread's main loop.
    ///
    /// Out of line: inlined, it widens `thread_main`'s frame and so moves
    /// the stack that every handler of the thread runs on. That alone, with
    /// no added work, slowed the direct chain benchmark by ~5 %.
    #[inline(never)]
    pub(crate) fn main_receive(&mut self) -> Result<Envelope, KernelError> {
        self.must_block("main_receive");
        block_on(|| self.main_receive_async())
    }

    /// Top-level receive for the thread main loop. In the critical section
    /// that takes the next message it also retires the previous message's
    /// constraint and records the new one as the thread's current
    /// constraint.
    pub(crate) fn main_receive_async(
        &mut self,
    ) -> impl Future<Output = Result<Envelope, KernelError>> + Send + use<'_, 'k> {
        Receive::new(self, None, Receipt::Main, ReceiveStep::Begin)
    }

    /// Whether this thread may go on with work of its own choosing instead
    /// of returning to its main loop: the kernel is not shutting down, no
    /// message waits in this thread's mailbox, and no more urgent thread
    /// is runnable. A thread that would otherwise send itself a message
    /// per step of a long job (a pump between two cycles) asks this per
    /// step and sends only when the answer is `false`.
    ///
    /// While nothing happens in the kernel the answer costs one atomic
    /// load. After an enqueue anywhere, a thread becoming runnable or the
    /// start of shutdown, it costs one critical section, which is also a
    /// preemption point like a send: a more urgent runnable thread gets
    /// the CPU there (when the kernel is configured preemptive) before the
    /// call returns.
    pub fn undisturbed(&mut self) -> bool {
        let inner = &self.kernel.inner;
        if self.quiet_at == Some(inner.generation.load(Ordering::Acquire)) {
            return true;
        }
        self.quiet_at = None;
        let mut state = inner.lock();
        if state.shutdown {
            return false;
        }
        self.preemption_point(&mut state, false);
        // The mailbox is looked at after the preemption point, for what
        // arrived while the CPU was away.
        if state.shutdown || self.owes_preemption {
            return false;
        }
        if state.rec(self.me).is_some_and(|rec| rec.mailbox.is_empty()) {
            self.quiet_at = Some(state.generation.load(Ordering::Relaxed));
        }
        self.quiet_at.is_some()
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Blocks this thread until the given kernel time: see
    /// [`Ctx::sleep_until_async`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn sleep_until(&mut self, at: Time) -> Result<(), KernelError> {
        self.must_block("sleep_until");
        block_on(|| self.sleep_until_async(at))
    }

    /// Suspends this thread until the given kernel time; one that has
    /// passed gives up the CPU to any other runnable thread.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub async fn sleep_until_async(&mut self, at: Time) -> Result<(), KernelError> {
        self.pause(move |_| at).await
    }

    /// Blocks this thread for the given duration (in kernel time).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn sleep(&mut self, d: Duration) -> Result<(), KernelError> {
        self.must_block("sleep");
        block_on(|| self.pause(move |now| now + d))
    }

    /// Offers the CPU to any other runnable thread.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn yield_now(&mut self) -> Result<(), KernelError> {
        self.must_block("yield_now");
        block_on(|| self.pause(|now| now))
    }

    /// Gives up the CPU until kernel time `until(now)`, in one critical
    /// section: a time that is not later than now leaves the thread
    /// runnable.
    async fn pause(&mut self, until: impl FnOnce(Time) -> Time) -> Result<(), KernelError> {
        self.settle().await;
        let suspend = {
            let mut state = self.kernel.inner.lock();
            let now = self.kernel.inner.now(&state);
            let at = until(now);
            if at <= now {
                self.give_way(&mut state)?;
            } else {
                self.fall_asleep(&mut state, at)?;
            }
            self.regain_cpu(&mut state)?
        };
        if suspend {
            Suspend::default().await;
        }
        Ok(())
    }

    /// Blocks this thread until a timer at `at` and gives up the CPU.
    fn fall_asleep(&self, state: &mut KGuard<'_>, at: Time) -> Result<(), KernelError> {
        let inner = &self.kernel.inner;
        inner.arm_timer(state, at, TimerKind::Wake(self.me));
        {
            let rec = state.rec_mut(self.me).ok_or(KernelError::Shutdown)?;
            rec.sleeping = true;
            rec.state = RunState::Blocked;
        }
        debug_assert_eq!(state.running, Some(self.me));
        state.running = None;
        inner.reschedule(state);
        Ok(())
    }

    /// Asks the kernel to deliver `msg` to this thread at the given time,
    /// with an optional constraint. The thread keeps receiving in the
    /// meantime — unlike a sleep, a timer delivery leaves the thread
    /// receptive to other messages.
    #[must_use]
    pub fn set_timer(&mut self, at: Time, msg: Message, constraint: Option<Constraint>) -> TimerId {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        inner.arm_timer(
            &mut state,
            at,
            TimerKind::Deliver {
                to: self.me,
                msg,
                constraint,
            },
        )
    }

    /// Cancels a pending timer; returns whether it had not yet fired.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let mut state = self.kernel.inner.lock();
        sched::cancel_timer(&mut state, id)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn constraint_of(&self, state: &KState) -> Option<Constraint> {
        state.rec(self.me).and_then(|r| r.cur)
    }

    /// Queues the reply to `env`; the send half of [`Ctx::reply`].
    fn reply_locked(
        &self,
        state: &mut KGuard<'_>,
        route: ReplyRoute,
        msg: Message,
    ) -> Result<(), SendError> {
        let (token, to) = route.0.ok_or(SendError::NotARequest)?;
        // Each request may be answered once: the token is retired from the
        // requester's record here, so a second reply (or a reply after the
        // waiter gave up) fails.
        if !state.retire_token(to, token.0) {
            return Err(SendError::StaleReply);
        }
        let constraint = self.constraint_of(state);
        let reply = Envelope::new(Some(self.me), msg, constraint).into_reply(token);
        sched::enqueue(state, &self.kernel.inner.stats, to, reply)
    }

    /// What a synchronous send's wait received: the reply, or an interrupt
    /// with the wait still pending.
    fn reply_outcome(&self, env: Envelope, token: u64, to: ThreadId) -> SyncOutcome {
        if env.is_reply_to(ReplyToken(token)) {
            return SyncOutcome::Reply(env);
        }
        let pending = PendingReply {
            kernel: self.kernel.clone(),
            token,
            to,
            me: self.me,
            live: true,
        };
        SyncOutcome::Interrupted(pending, env)
    }

    /// The receive half of a combined send-and-receive, in the send's
    /// critical section. The send is a preemption point only when the
    /// receive will not block, since blocking hands the CPU to the most
    /// urgent runnable thread anyway; then comes the receive's first
    /// attempt. `None` means the thread gave up the CPU and must suspend.
    fn take_after_send(
        &mut self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        receipt: Receipt,
    ) -> Result<Option<Envelope>, KernelError> {
        let queued = state
            .rec(self.me)
            .is_some_and(|rec| rec.find_match(spec).is_some());
        if queued && self.preemption_point(state, true) {
            return Ok(None);
        }
        self.take_or_wait(state, spec, receipt)
    }

    /// A polled thread's owed preemption: if a send since its last
    /// suspension found a more urgent thread runnable, it gives way now.
    /// Every awaited operation begins with it: a sleep here, the others in
    /// their first critical section ([`Ctx::give_way_owed`]).
    async fn settle(&mut self) {
        if self.owes_preemption && self.give_way_owed(&mut self.kernel.inner.lock()) {
            Suspend::default().await;
        }
    }

    /// [`Ctx::settle`] in a critical section of the operation's: returns
    /// whether the thread gave way and must suspend.
    fn give_way_owed(&mut self, state: &mut KGuard<'_>) -> bool {
        std::mem::take(&mut self.owes_preemption) && self.preemption_point(state, true)
    }

    /// Parks until this thread is first granted the CPU.
    pub(crate) fn park_initial(&mut self) -> Result<(), KernelError> {
        let mut state = self.kernel.inner.lock();
        self.park(&mut state)
    }

    /// Waits (with the lock held on entry and on return) until this thread
    /// is Running. The first pass through [`KGuard::wait`] hands the wake of
    /// whoever was just granted the CPU over with the lock released; only
    /// then, still not Running, does this thread sleep.
    ///
    /// While another thread holds the CPU and that thread is polled, this
    /// OS thread polls it rather than sleep: the hand-off to a polled
    /// thread is a poll here, not an OS context switch.
    fn park(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        loop {
            if state.shutdown {
                return Err(KernelError::Shutdown);
            }
            match state.rec(self.me) {
                Some(rec) if rec.state == RunState::Running => return Ok(()),
                Some(_) => {}
                None => return Err(KernelError::Shutdown),
            }
            if !self.kernel.inner.poll_granted(state) {
                state.park(self.me, &self.cv, None);
            }
        }
    }

    /// The thread has given up the CPU in this critical section. An
    /// OS-backed thread parks until it is granted the CPU again and returns
    /// `false`; a polled one returns `true`: it must suspend, and is polled
    /// again once granted.
    fn regain_cpu(&self, state: &mut KGuard<'_>) -> Result<bool, KernelError> {
        if self.polled {
            return Ok(true);
        }
        self.park(state).map(|()| false)
    }

    /// One attempt of a receive: takes a matching message, or blocks this
    /// thread on `spec` and gives up the CPU. An OS-backed thread then
    /// parks in place and tries again, so it returns a message; a polled
    /// one returns `None`: it must suspend before it tries again.
    fn take_or_wait(
        &self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        receipt: Receipt,
    ) -> Result<Option<Envelope>, KernelError> {
        loop {
            if state.shutdown {
                return Err(KernelError::Shutdown);
            }
            let rec = state.rec_mut(self.me).ok_or(KernelError::Shutdown)?;
            if receipt == Receipt::Reply {
                if let Some(peer) = rec.peer_gone.take() {
                    // No reply can come from a terminated peer.
                    if let Some(token) = spec.reply {
                        rec.retire_token(token.0);
                    }
                    state.end_wait(self.me);
                    return Err(KernelError::PeerGone(peer));
                }
            }
            if let Some(env) = rec.take_match(spec) {
                match receipt {
                    Receipt::Reply if spec.is_reply(&env) => state.end_wait(self.me),
                    Receipt::Reply => {}
                    Receipt::Nested if !env.wants_reply() => {}
                    Receipt::Nested | Receipt::Main => {
                        rec.cur = env.constraint();
                        rec.processing = true;
                    }
                }
                return Ok(Some(env));
            }
            rec.state = RunState::Blocked;
            rec.set_wait(spec);
            debug_assert_eq!(state.running, Some(self.me));
            state.running = None;
            self.kernel.inner.reschedule(state);
            if self.regain_cpu(state)? {
                return Ok(None);
            }
        }
    }

    /// Gives up the CPU, staying runnable.
    fn give_way(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        if state.shutdown || state.rec(self.me).is_none() {
            return Err(KernelError::Shutdown);
        }
        state.queue_ready(self.me);
        debug_assert_eq!(state.running, Some(self.me));
        state.running = None;
        self.kernel.inner.reschedule(state);
        Ok(())
    }

    /// After waking another thread: hands over the CPU if that thread is
    /// now more urgent than this one. An OS-backed thread yields and parks
    /// here. A polled thread gives way and returns `true` — it must
    /// suspend — where the caller awaits; where it does not (`awaited`
    /// false), the thread owes the preemption to its next suspension point.
    /// A failure to give way means shutdown, which the thread's next
    /// kernel operation reports.
    fn preemption_point(&mut self, state: &mut KGuard<'_>, awaited: bool) -> bool {
        if !self.preempted(state) {
            return false;
        }
        if self.polled && !awaited {
            self.owes_preemption = true;
            return false;
        }
        self.give_way(state)
            .and_then(|()| self.regain_cpu(state))
            .unwrap_or(false)
    }

    /// Whether a more urgent thread than this (running) one is runnable.
    fn preempted(&self, state: &KState) -> bool {
        sched::preempted(state, &self.kernel.inner.cfg, self.me)
    }
}

/// What a receive is for, which decides what taking a message does to the
/// receiving thread.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Receipt {
    /// The wait of an outstanding synchronous send: it fails when the peer
    /// terminates, and the reply's arrival ends the priority donation to
    /// the peer.
    Reply,
    /// A mid-processing receive: a received request becomes the message
    /// being processed.
    Nested,
    /// The main loop's: the received message becomes the message being
    /// processed.
    Main,
}

/// Where the reply to a request goes: what a reply needs of the request's
/// envelope.
#[derive(Copy, Clone)]
struct ReplyRoute(Option<(ReplyToken, ThreadId)>);

impl ReplyRoute {
    fn of(env: &Envelope) -> Self {
        ReplyRoute(env.reply_to().zip(env.from()))
    }
}

/// A polled thread's suspension: `Pending` once — the thread has given up
/// the CPU in the kernel — then `Ready` when polled again, which happens
/// only once the kernel has granted it the CPU back.
#[derive(Default)]
struct Suspend(bool);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.0, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// A message a thread sends without waiting for an answer.
enum Outgoing {
    /// A message for a thread, with an explicit constraint or (`None`)
    /// the one of the message being processed.
    Send(ThreadId, Message, Option<Option<Constraint>>),
    /// The reply to a request.
    Reply(ReplyRoute, Message),
}

/// [`Ctx::send_async`], [`Ctx::send_with_async`] and [`Ctx::reply_async`].
/// Its first poll gives way if a preemption is owed, then sends in one
/// critical section that ends in a preemption point; a polled thread that
/// gives way there suspends once.
struct Post<'s, 'k> {
    ctx: &'s mut Ctx<'k>,
    /// What to send; `None` once sent.
    outgoing: Option<Outgoing>,
    settled: bool,
}

impl<'s, 'k> Post<'s, 'k> {
    fn new(ctx: &'s mut Ctx<'k>, outgoing: Outgoing) -> Self {
        Post {
            ctx,
            outgoing: Some(outgoing),
            settled: false,
        }
    }
}

impl Future for Post<'_, '_> {
    type Output = Result<(), SendError>;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.outgoing.is_none() {
            // Polled again after giving way: the CPU is back.
            return Poll::Ready(Ok(()));
        }
        let ctx = &mut *this.ctx;
        let mut state = ctx.kernel.inner.lock();
        if !std::mem::replace(&mut this.settled, true) && ctx.give_way_owed(&mut state) {
            return Poll::Pending;
        }
        let outgoing = this.outgoing.take().expect("checked above");
        if let Err(e) = ctx.send_locked(&mut state, outgoing) {
            return Poll::Ready(Err(e));
        }
        if ctx.preemption_point(&mut state, true) {
            Poll::Pending
        } else {
            Poll::Ready(Ok(()))
        }
    }
}

/// [`Ctx::call_async`] and [`Ctx::wait_or_async`]. Its first poll gives
/// way if a preemption is owed, then sends the request (or resumes the
/// wait) and makes the receive's first attempt in one critical section;
/// each later poll retakes. Once the request is out it holds what a
/// retake needs (the token, the peer, the interrupt tags), and never the
/// reply it is waiting for.
struct Call<'s, 'k, 't> {
    ctx: &'s mut Ctx<'k>,
    tags: &'t [Tag],
    step: CallStep,
    settled: bool,
}

enum CallStep {
    /// The request, not yet sent.
    Send {
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    },
    /// An interrupted call's wait, not yet resumed: dropped unresumed, it
    /// cancels the wait.
    Resume(PendingReply),
    /// Waiting for the reply to `token` from `to`, or an interrupt.
    Wait { token: u64, to: ThreadId },
    /// The future has completed.
    Done,
}

impl<'s, 'k, 't> Call<'s, 'k, 't> {
    fn new(ctx: &'s mut Ctx<'k>, tags: &'t [Tag], step: CallStep) -> Self {
        Call {
            ctx,
            tags,
            step,
            settled: false,
        }
    }
}

impl Future for Call<'_, '_, '_> {
    type Output = Result<SyncOutcome, KernelError>;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let ctx = &mut *this.ctx;
        let mut state = ctx.kernel.inner.lock();
        if !std::mem::replace(&mut this.settled, true) && ctx.give_way_owed(&mut state) {
            return Poll::Pending;
        }
        let (token, to, taken) = match std::mem::replace(&mut this.step, CallStep::Done) {
            CallStep::Send {
                to,
                msg,
                constraint,
            } => {
                let constraint = constraint.or_else(|| ctx.constraint_of(&state));
                let stats = &ctx.kernel.inner.stats;
                match sched::enqueue_request(&mut state, stats, ctx.me, to, msg, constraint) {
                    Ok(token) => {
                        let spec = SpecRef::reply_or_tags(token, this.tags);
                        (
                            token,
                            to,
                            ctx.take_after_send(&mut state, spec, Receipt::Reply),
                        )
                    }
                    Err(e) => return Poll::Ready(Err(e.into())),
                }
            }
            CallStep::Resume(mut pending) => {
                // The wait passes to this receive, which hands out a fresh
                // `PendingReply` if it is interrupted again.
                pending.consume();
                let spec = SpecRef::reply_or_tags(pending.token, this.tags);
                let taken = ctx.take_or_wait(&mut state, spec, Receipt::Reply);
                (pending.token, pending.to, taken)
            }
            CallStep::Wait { token, to } => {
                let spec = SpecRef::reply_or_tags(token, this.tags);
                (
                    token,
                    to,
                    ctx.take_or_wait(&mut state, spec, Receipt::Reply),
                )
            }
            CallStep::Done => panic!("a kernel operation polled after it completed"),
        };
        drop(state);
        match taken {
            Ok(Some(env)) => Poll::Ready(Ok(ctx.reply_outcome(env, token, to))),
            Ok(None) => {
                this.step = CallStep::Wait { token, to };
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}

/// [`Ctx::receive_tags_async`], [`Ctx::reply_and_receive_async`], the
/// main loop's receive and [`Ctx::receive`]. Its first poll gives way if
/// a preemption is owed, then begins the receive (after the reply, or
/// after retiring the main loop's previous message) and makes its first
/// attempt in one critical section; each later poll retakes. Once begun it
/// holds only its match spec and what a receipt does.
struct Receive<'s, 'k, 't> {
    ctx: &'s mut Ctx<'k>,
    /// Accept a message whose tag is in these, or (`None`) any message.
    tags: Option<&'t [Tag]>,
    receipt: Receipt,
    step: ReceiveStep,
    settled: bool,
}

enum ReceiveStep {
    /// The receive, not yet begun.
    Begin,
    /// The receive, not yet begun, after the reply it sends first.
    Reply(ReplyRoute, Message),
    /// Waiting for a matching message.
    Wait,
    /// The future has completed.
    Done,
}

impl<'s, 'k, 't> Receive<'s, 'k, 't> {
    fn new(
        ctx: &'s mut Ctx<'k>,
        tags: Option<&'t [Tag]>,
        receipt: Receipt,
        step: ReceiveStep,
    ) -> Self {
        Receive {
            ctx,
            tags,
            receipt,
            step,
            settled: false,
        }
    }
}

impl Future for Receive<'_, '_, '_> {
    type Output = Result<Envelope, KernelError>;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let ctx = &mut *this.ctx;
        let mut state = ctx.kernel.inner.lock();
        if !std::mem::replace(&mut this.settled, true) && ctx.give_way_owed(&mut state) {
            return Poll::Pending;
        }
        let spec = this.tags.map_or(SpecRef::ANY, SpecRef::tags);
        let taken = match std::mem::replace(&mut this.step, ReceiveStep::Done) {
            ReceiveStep::Begin => {
                if this.receipt == Receipt::Main {
                    if let Some(rec) = state.rec_mut(ctx.me) {
                        rec.cur = None;
                        rec.processing = false;
                    }
                }
                ctx.take_or_wait(&mut state, spec, this.receipt)
            }
            ReceiveStep::Reply(route, msg) => {
                // A reply the requester no longer waits for is dropped.
                let _ = ctx.reply_locked(&mut state, route, msg);
                ctx.take_after_send(&mut state, spec, this.receipt)
            }
            ReceiveStep::Wait => ctx.take_or_wait(&mut state, spec, this.receipt),
            ReceiveStep::Done => panic!("a kernel operation polled after it completed"),
        };
        drop(state);
        match taken {
            Ok(Some(env)) => Poll::Ready(Ok(env)),
            Ok(None) => {
                this.step = ReceiveStep::Wait;
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.me).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use std::mem::{size_of, size_of_val};

    /// The most a kernel hand-off future may hold: its arguments once,
    /// then what a retake needs. Each is built and dropped, never polled.
    const HAND_OFF_FUTURE: usize = 128;

    /// The size gate of a hand-off: what the kernel moves per operation.
    /// `cargo test -p mbthread --lib size_gate -- --nocapture` prints the
    /// table.
    #[test]
    fn size_gate_hand_off_futures_and_envelopes() {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let port = kernel.external("sizes");
        let mut ctx = Ctx::new(&kernel, port.id());
        let tags = [Tag(1), Tag(2)];
        let req = Envelope::new(Some(port.id()), Message::signal(Tag(1)), None)
            .into_request(ReplyToken(0));
        let pending = PendingReply {
            kernel: kernel.clone(),
            token: 0,
            to: port.id(),
            me: port.id(),
            live: false,
        };
        let call = size_of_val(&ctx.call_async(port.id(), Message::signal(Tag(1)), None, &tags));
        let wait_or = size_of_val(&ctx.wait_or_async(pending, &tags));
        let reply_and_receive =
            size_of_val(&ctx.reply_and_receive_async(&req, Message::signal(Tag(1)), &tags));
        let receive_tags = size_of_val(&ctx.receive_tags_async(&tags));
        let main_receive = size_of_val(&ctx.main_receive_async());
        let rows = [
            ("Ctx::call_async", call, HAND_OFF_FUTURE),
            ("Ctx::wait_or_async", wait_or, HAND_OFF_FUTURE),
            (
                "Ctx::reply_and_receive_async",
                reply_and_receive,
                HAND_OFF_FUTURE,
            ),
            ("Ctx::receive_tags_async", receive_tags, HAND_OFF_FUTURE),
            ("the main loop's receive", main_receive, HAND_OFF_FUTURE),
            ("Envelope", size_of::<Envelope>(), 64),
            (
                "Result<SyncOutcome, KernelError>",
                size_of::<Result<SyncOutcome, KernelError>>(),
                96,
            ),
        ];
        println!("{:<34} {:>5} {:>7}", "type", "bytes", "at most");
        for (name, bytes, budget) in rows {
            println!("{name:<34} {bytes:>5} {budget:>7}");
        }
        drop(ctx);
        drop(port);
        kernel.shutdown();
        for (name, bytes, budget) in rows {
            assert!(bytes <= budget, "{name} is {bytes} bytes, over {budget}");
        }
    }
}
