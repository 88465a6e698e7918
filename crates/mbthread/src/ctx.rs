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
use crate::thread::{CodeFn, RunState, ThreadId};
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
        state.pending_tokens.remove(&self.token);
        if let Some(rec) = state.rec_mut(self.me) {
            if rec.waiting_on == Some(self.to) {
                rec.waiting_on = None;
            }
            let token = ReplyToken(self.token);
            rec.mailbox.retain(|env| env.in_reply != Some(token));
        }
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
/// A thread's blocking operations ([`Ctx::call`], [`Ctx::receive_tags`],
/// [`Ctx::sleep_until`], …) park its OS thread until it is granted the
/// CPU again. Each has an `*_async` form that does the same on an
/// OS-backed thread (it completes within its first poll) and *suspends*
/// on a polled thread ([`Kernel::spawn_polled`]): the future returns
/// `Pending` with the thread blocked in the kernel, and the OS thread
/// that polled it goes on to poll — or wake — whichever thread the kernel
/// granted the CPU. A polled thread must use the async forms; the
/// blocking ones panic there.
///
/// **Deferred preemption.** A send that is not awaited ([`Ctx::send`],
/// [`Ctx::send_with`], [`Ctx::reply`]) cannot give the CPU away on a
/// polled thread, since only a suspended future can. A more urgent thread
/// such a send makes runnable therefore runs no later than the polled
/// thread's next suspension point: every `*_async` operation first gives
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

    /// Fails a blocking operation called on a polled thread: parking the
    /// OS thread polling it would stall every thread that OS thread runs.
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
        self.post(to, msg, None)
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
        self.post(to, msg, Some(constraint))
    }

    /// One critical section per send; `explicit: None` inherits the
    /// constraint of the message being processed.
    fn post(
        &mut self,
        to: ThreadId,
        msg: Message,
        explicit: Option<Option<Constraint>>,
    ) -> Result<(), SendError> {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let constraint = explicit.unwrap_or_else(|| self.constraint_of(&state));
        let env = state.stamp(Some(self.me), msg, constraint);
        sched::enqueue(&mut state, &inner.stats, to, env)?;
        let _ = self.maybe_preempt(&mut state);
        Ok(())
    }

    /// [`Ctx::send`] as a suspension point: on a polled thread, a more
    /// urgent thread the send makes runnable runs before this returns.
    ///
    /// # Errors
    ///
    /// As [`Ctx::send`].
    pub async fn send_async(&mut self, to: ThreadId, msg: Message) -> Result<(), SendError> {
        self.post_async(to, msg, None).await
    }

    /// [`Ctx::send_with`] as a suspension point (see [`Ctx::send_async`]).
    ///
    /// # Errors
    ///
    /// As [`Ctx::send_with`].
    pub async fn send_with_async(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> Result<(), SendError> {
        self.post_async(to, msg, Some(constraint)).await
    }

    async fn post_async(
        &mut self,
        to: ThreadId,
        msg: Message,
        explicit: Option<Option<Constraint>>,
    ) -> Result<(), SendError> {
        if !self.polled {
            return self.post(to, msg, explicit);
        }
        self.settle().await;
        let gave_way = {
            let inner = &self.kernel.inner;
            let mut state = inner.lock();
            let constraint = explicit.unwrap_or_else(|| self.constraint_of(&state));
            let env = state.stamp(Some(self.me), msg, constraint);
            sched::enqueue(&mut state, &inner.stats, to, env)?;
            self.give_way_if_preempted(&mut state)
        };
        if gave_way {
            Suspend::default().await;
        }
        Ok(())
    }

    /// Sends synchronously and blocks, in one critical section, until the
    /// reply or a message with one of `interrupt_tags` arrives. This is how
    /// a component blocked in a `push` or `pull` stays receptive to control
    /// events (§4 of the paper): on [`SyncOutcome::Interrupted`], handle the
    /// interrupt, then resume with [`Ctx::wait_or`]. While the reply is
    /// outstanding, this thread donates its urgency to the receiver
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
    pub fn call(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        self.must_block("call");
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let constraint = constraint.or_else(|| self.constraint_of(&state));
        let token = sched::enqueue_request(&mut state, &inner.stats, self.me, to, msg, constraint)?;
        let spec = SpecRef::reply_or_tags(token, interrupt_tags);
        self.preempt_unless_blocking(&mut state, spec);
        self.await_reply(&mut state, spec, to)
    }

    /// The async form of [`Ctx::call`]: one critical section sends the
    /// request and, unless it must give way first, takes the reply or
    /// blocks for it; a polled thread then suspends until it is granted
    /// the CPU with the reply (or an interrupt) in its mailbox.
    ///
    /// # Errors
    ///
    /// As [`Ctx::call`].
    pub async fn call_async(
        &mut self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        if !self.polled {
            return self.call(to, msg, constraint, interrupt_tags);
        }
        self.settle().await;
        let (spec, step) = {
            let inner = &self.kernel.inner;
            let mut state = inner.lock();
            let constraint = constraint.or_else(|| self.constraint_of(&state));
            let token =
                sched::enqueue_request(&mut state, &inner.stats, self.me, to, msg, constraint)?;
            let spec = SpecRef::reply_or_tags(token, interrupt_tags);
            (spec, self.take_unless_giving_way(&mut state, spec, true)?)
        };
        let env = match step {
            Some(env) => env,
            None => self.receive_polled(spec, true).await?,
        };
        Ok(self.reply_outcome(env, spec, to))
    }

    /// Resumes the wait of an interrupted [`Ctx::call`]: blocks until either
    /// the reply arrives or another message with one of `interrupt_tags`
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PeerGone`] if the receiver terminated without
    /// replying, or [`KernelError::Shutdown`].
    pub fn wait_or(
        &mut self,
        mut pending: PendingReply,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        // The wait passes to `await_reply`, which hands out a fresh
        // `PendingReply` if it is interrupted again.
        self.must_block("wait_or");
        pending.consume();
        let mut state = self.kernel.inner.lock();
        let spec = SpecRef::reply_or_tags(pending.token, interrupt_tags);
        self.await_reply(&mut state, spec, pending.to)
    }

    /// The async form of [`Ctx::wait_or`] (see [`Ctx::call_async`]).
    ///
    /// # Errors
    ///
    /// As [`Ctx::wait_or`].
    pub async fn wait_or_async(
        &mut self,
        mut pending: PendingReply,
        interrupt_tags: &[Tag],
    ) -> Result<SyncOutcome, KernelError> {
        if !self.polled {
            return self.wait_or(pending, interrupt_tags);
        }
        self.settle().await;
        pending.consume();
        let spec = SpecRef::reply_or_tags(pending.token, interrupt_tags);
        let env = self.receive_polled(spec, true).await?;
        Ok(self.reply_outcome(env, spec, pending.to))
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
        self.reply_along(ReplyRoute::of(env), msg)
    }

    fn reply_along(&mut self, route: ReplyRoute, msg: Message) -> Result<(), SendError> {
        let mut state = self.kernel.inner.lock();
        self.reply_locked(&mut state, route, msg)?;
        let _ = self.maybe_preempt(&mut state);
        Ok(())
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
        let route = ReplyRoute::of(env);
        async move {
            if !self.polled {
                return self.reply_along(route, msg);
            }
            self.settle().await;
            let gave_way = {
                let mut state = self.kernel.inner.lock();
                self.reply_locked(&mut state, route, msg)?;
                self.give_way_if_preempted(&mut state)
            };
            if gave_way {
                Suspend::default().await;
            }
            Ok(())
        }
    }

    /// Replies to `req` and blocks for the next message whose tag is in
    /// `tags`, in one critical section: the server side of a hand-off. The
    /// received message is taken as [`Ctx::receive_tags`] takes it, so a
    /// request received here becomes the message this thread processes.
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
    pub fn reply_and_receive(
        &mut self,
        req: &Envelope,
        msg: Message,
        tags: &[Tag],
    ) -> Result<Envelope, KernelError> {
        self.reply_along_and_receive(ReplyRoute::of(req), msg, tags)
    }

    fn reply_along_and_receive(
        &mut self,
        route: ReplyRoute,
        msg: Message,
        tags: &[Tag],
    ) -> Result<Envelope, KernelError> {
        self.must_block("reply_and_receive");
        let mut state = self.kernel.inner.lock();
        let _ = self.reply_locked(&mut state, route, msg);
        let spec = SpecRef::tags(tags);
        self.preempt_unless_blocking(&mut state, spec);
        self.receive_locked(&mut state, spec, false)
    }

    /// The async form of [`Ctx::reply_and_receive`]: still one critical
    /// section for the reply and the receive, unless the thread must give
    /// way in between. The future holds what the reply needs of `req`.
    ///
    /// # Errors
    ///
    /// As [`Ctx::reply_and_receive`].
    pub fn reply_and_receive_async<'s, 't>(
        &'s mut self,
        req: &Envelope,
        msg: Message,
        tags: &'t [Tag],
    ) -> impl Future<Output = Result<Envelope, KernelError>> + Send + use<'s, 't, 'k> {
        let route = ReplyRoute::of(req);
        async move {
            if !self.polled {
                return self.reply_along_and_receive(route, msg, tags);
            }
            self.settle().await;
            let spec = SpecRef::tags(tags);
            let step = {
                let mut state = self.kernel.inner.lock();
                let _ = self.reply_locked(&mut state, route, msg);
                self.take_unless_giving_way(&mut state, spec, false)?
            };
            match step {
                Some(env) => Ok(env),
                None => self.receive_polled(spec, false).await,
            }
        }
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Suspends until any message arrives. Used for mid-processing waits:
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
        self.blocking_receive(SpecRef::ANY)
    }

    /// Suspends until a message whose tag is in `tags` arrives;
    /// non-matching messages stay queued in arrival order. A received
    /// request becomes current as in [`Ctx::receive`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn receive_tags(&mut self, tags: &[Tag]) -> Result<Envelope, KernelError> {
        self.must_block("receive_tags");
        self.blocking_receive(SpecRef::tags(tags))
    }

    /// The async form of [`Ctx::receive_tags`].
    ///
    /// # Errors
    ///
    /// As [`Ctx::receive_tags`].
    pub async fn receive_tags_async(&mut self, tags: &[Tag]) -> Result<Envelope, KernelError> {
        if !self.polled {
            return self.receive_tags(tags);
        }
        self.settle().await;
        self.receive_polled(SpecRef::tags(tags), false).await
    }

    /// Top-level receive for the thread main loop. In the critical section
    /// that dequeues the next message it also retires the previous
    /// message's constraint and records the new one as the thread's
    /// current constraint.
    pub(crate) fn main_receive(&mut self) -> Result<Envelope, KernelError> {
        let mut state = self.kernel.inner.lock();
        Self::retire_message(&mut state, self.me);
        let env = self.receive_locked(&mut state, SpecRef::ANY, false)?;
        Self::process_message(&mut state, self.me, &env);
        Ok(env)
    }

    /// [`Ctx::main_receive`] for a polled thread's main loop.
    pub(crate) async fn main_receive_async(&mut self) -> Result<Envelope, KernelError> {
        self.settle().await;
        let mut waited = false;
        loop {
            if waited {
                Suspend::default().await;
            }
            let step = {
                let mut state = self.kernel.inner.lock();
                if !waited {
                    Self::retire_message(&mut state, self.me);
                }
                let step = self.take_or_block(&mut state, SpecRef::ANY, false)?;
                if let Some(env) = &step {
                    Self::process_message(&mut state, self.me, env);
                }
                step
            };
            if let Some(env) = step {
                return Ok(env);
            }
            waited = true;
        }
    }

    /// Between two top-level messages: the previous one's constraint is
    /// no longer current.
    fn retire_message(state: &mut KState, me: ThreadId) {
        if let Some(rec) = state.rec_mut(me) {
            rec.cur = None;
            rec.processing = false;
        }
    }

    /// A top-level message is taken: its constraint becomes current.
    fn process_message(state: &mut KState, me: ThreadId, env: &Envelope) {
        if let Some(rec) = state.rec_mut(me) {
            rec.cur = env.constraint();
            rec.processing = true;
        }
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
        // `maybe_preempt` fails only once shutdown has begun; the mailbox
        // is looked at after it, for what arrived while the CPU was away.
        if state.shutdown || self.maybe_preempt(&mut state).is_err() || self.owes_preemption {
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

    /// Suspends this thread until the given kernel time.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn sleep_until(&mut self, at: Time) -> Result<(), KernelError> {
        self.must_block("sleep_until");
        let mut state = self.kernel.inner.lock();
        self.sleep_locked(&mut state, at)
    }

    /// The async form of [`Ctx::sleep_until`].
    ///
    /// # Errors
    ///
    /// As [`Ctx::sleep_until`].
    pub async fn sleep_until_async(&mut self, at: Time) -> Result<(), KernelError> {
        if !self.polled {
            return self.sleep_until(at);
        }
        self.settle().await;
        {
            let mut state = self.kernel.inner.lock();
            if at <= self.kernel.inner.now(&state) {
                self.give_way(&mut state)?;
            } else {
                self.fall_asleep(&mut state, at)?;
            }
        }
        Suspend::default().await;
        Ok(())
    }

    /// Suspends this thread for the given duration (in kernel time).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn sleep(&mut self, d: Duration) -> Result<(), KernelError> {
        self.must_block("sleep");
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let at = inner.now(&state) + d;
        self.sleep_locked(&mut state, at)
    }

    fn sleep_locked(&self, state: &mut KGuard<'_>, at: Time) -> Result<(), KernelError> {
        if at <= self.kernel.inner.now(state) {
            return self.yield_cpu(state);
        }
        self.fall_asleep(state, at)?;
        self.park(state)
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

    /// Offers the CPU to any other runnable thread.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn yield_now(&mut self) -> Result<(), KernelError> {
        self.must_block("yield_now");
        let mut state = self.kernel.inner.lock();
        self.yield_cpu(&mut state)
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
        let token = route.token.ok_or(SendError::NotARequest)?;
        let to = route.to.ok_or(SendError::NotARequest)?;
        // Each request may be answered once: the token is retired here, so
        // a second reply (or a reply after the waiter gave up) fails.
        if !state.pending_tokens.remove(&token.0) {
            return Err(SendError::StaleReply);
        }
        let constraint = self.constraint_of(state);
        let mut reply_env = state.stamp(Some(self.me), msg, constraint);
        reply_env.in_reply = Some(token);
        sched::enqueue(state, &self.kernel.inner.stats, to, reply_env)
    }

    /// The blocking half of a synchronous send to `to`: the reply, or an
    /// interrupt with the wait still pending.
    fn await_reply(
        &self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        to: ThreadId,
    ) -> Result<SyncOutcome, KernelError> {
        let env = self.receive_locked(state, spec, true)?;
        Ok(self.reply_outcome(env, spec, to))
    }

    /// What a synchronous send's wait received: the reply, or an interrupt
    /// with the wait still pending.
    fn reply_outcome(&self, env: Envelope, spec: SpecRef<'_>, to: ThreadId) -> SyncOutcome {
        if spec.is_reply(&env) {
            return SyncOutcome::Reply(env);
        }
        let pending = PendingReply {
            kernel: self.kernel.clone(),
            token: spec.reply.expect("a reply wait").0,
            to,
            me: self.me,
            live: true,
        };
        SyncOutcome::Interrupted(pending, env)
    }

    /// The send half of a combined send-and-receive is a preemption point
    /// only when the receive half will not block; blocking dispatches the
    /// most urgent runnable thread anyway.
    fn preempt_unless_blocking(&mut self, state: &mut KGuard<'_>, spec: SpecRef<'_>) {
        if Self::has_match(state, self.me, spec) {
            // A failure means shutdown, which the receive reports.
            let _ = self.maybe_preempt(state);
        }
    }

    fn has_match(state: &KState, me: ThreadId, spec: SpecRef<'_>) -> bool {
        state
            .rec(me)
            .is_some_and(|rec| rec.find_match(spec).is_some())
    }

    /// The polled receive half of a combined send-and-receive, in the
    /// send's critical section: [`Ctx::preempt_unless_blocking`], then the
    /// receive's first attempt. `None` means the thread gave up the CPU
    /// and must suspend, then receive.
    fn take_unless_giving_way(
        &mut self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        sync: bool,
    ) -> Result<Option<Envelope>, KernelError> {
        if Self::has_match(state, self.me, spec) && self.give_way_if_preempted(state) {
            return Ok(None);
        }
        self.take_or_block(state, spec, sync)
    }

    /// Suspends a polled thread that has given up the CPU until it is
    /// granted it again, then receives as [`Ctx::receive_locked`] does.
    async fn receive_polled(
        &mut self,
        spec: SpecRef<'_>,
        sync: bool,
    ) -> Result<Envelope, KernelError> {
        loop {
            Suspend::default().await;
            let step = {
                let mut state = self.kernel.inner.lock();
                self.take_or_block(&mut state, spec, sync)?
            };
            if let Some(env) = step {
                return Ok(env);
            }
        }
    }

    /// A polled thread's owed preemption: if a send since its last
    /// suspension found a more urgent thread runnable, it gives way now.
    async fn settle(&mut self) {
        if !std::mem::take(&mut self.owes_preemption) {
            return;
        }
        let gave_way = {
            let mut state = self.kernel.inner.lock();
            self.give_way_if_preempted(&mut state)
        };
        if gave_way {
            Suspend::default().await;
        }
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
                state.wait(&self.cv);
            }
        }
    }

    /// A mid-processing receive in a critical section of its own.
    fn blocking_receive(&mut self, spec: SpecRef<'_>) -> Result<Envelope, KernelError> {
        let mut state = self.kernel.inner.lock();
        self.receive_locked(&mut state, spec, false)
    }

    /// The core blocking receive: takes a matching message or gives up the
    /// CPU until one arrives. With `sync`, the receive is the wait of an
    /// outstanding synchronous send: it fails when the peer terminates, and
    /// the reply's arrival ends the priority donation to the peer. Without
    /// it, a received request becomes the message being processed.
    fn receive_locked(
        &self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        sync: bool,
    ) -> Result<Envelope, KernelError> {
        loop {
            if let Some(env) = self.take_or_block(state, spec, sync)? {
                return Ok(env);
            }
            self.park(state)?;
        }
    }

    /// One attempt of a receive: takes a matching message, or blocks this
    /// thread on `spec` and gives up the CPU (`None`).
    fn take_or_block(
        &self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        sync: bool,
    ) -> Result<Option<Envelope>, KernelError> {
        if state.shutdown {
            return Err(KernelError::Shutdown);
        }
        {
            let rec = state.rec_mut(self.me).ok_or(KernelError::Shutdown)?;
            if sync {
                if let Some(peer) = rec.peer_gone.take() {
                    rec.waiting_on = None;
                    return Err(KernelError::PeerGone(peer));
                }
            }
            if let Some(idx) = rec.find_match(spec) {
                let env = rec.mailbox.remove(idx).expect("index from find_match");
                if sync {
                    if spec.is_reply(&env) {
                        rec.waiting_on = None;
                    }
                } else if env.wants_reply() {
                    rec.cur = env.constraint();
                    rec.processing = true;
                }
                return Ok(Some(env));
            }
            rec.state = RunState::Blocked;
            rec.set_wait(spec);
        }
        debug_assert_eq!(state.running, Some(self.me));
        state.running = None;
        self.kernel.inner.reschedule(state);
        Ok(None)
    }

    /// Gives up the CPU, staying runnable; returns once rescheduled.
    fn yield_cpu(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        self.give_way(state)?;
        self.park(state)
    }

    /// Gives up the CPU, staying runnable.
    fn give_way(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        if state.shutdown {
            return Err(KernelError::Shutdown);
        }
        let seq = state.ready_seq;
        state.ready_seq += 1;
        {
            let rec = state.rec_mut(self.me).ok_or(KernelError::Shutdown)?;
            rec.state = RunState::Runnable;
            rec.ready_seq = seq;
        }
        state.disturb();
        debug_assert_eq!(state.running, Some(self.me));
        state.running = None;
        self.kernel.inner.reschedule(state);
        Ok(())
    }

    /// After waking another thread: hand over the CPU if that thread is now
    /// more urgent than we are. A polled thread cannot hand it over here;
    /// it owes the preemption to its next suspension point.
    fn maybe_preempt(&mut self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        if !self.preempted(state) {
            return Ok(());
        }
        if self.polled {
            self.owes_preemption = true;
            return Ok(());
        }
        self.yield_cpu(state)
    }

    /// A polled thread's preemption point: gives up the CPU if a more
    /// urgent thread is runnable. Returns whether it did (the caller then
    /// suspends).
    fn give_way_if_preempted(&mut self, state: &mut KGuard<'_>) -> bool {
        self.owes_preemption = false;
        self.preempted(state) && self.give_way(state).is_ok()
    }

    /// Whether a more urgent thread than this (running) one is runnable.
    fn preempted(&self, state: &KState) -> bool {
        let inner = &self.kernel.inner;
        if !inner.cfg.preemptive || state.running != Some(self.me) {
            return false;
        }
        let mut my_eff = None;
        state.threads().any(|(id, rec)| {
            id != self.me && rec.wants_cpu() && {
                let mine =
                    my_eff.get_or_insert_with(|| sched::effective(state, &inner.cfg, self.me));
                sched::effective(state, &inner.cfg, id).urgency_cmp(mine)
                    == std::cmp::Ordering::Greater
            }
        })
    }
}

/// Where the reply to a request goes: what a reply needs of the request's
/// envelope.
#[derive(Copy, Clone)]
struct ReplyRoute {
    token: Option<ReplyToken>,
    to: Option<ThreadId>,
}

impl ReplyRoute {
    fn of(env: &Envelope) -> Self {
        ReplyRoute {
            token: env.reply_to,
            to: env.from,
        }
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

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.me).finish()
    }
}
