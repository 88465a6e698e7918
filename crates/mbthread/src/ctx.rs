//! The thread-side kernel API.
//!
//! A [`Ctx`] is handed to a thread's code function on every invocation; it
//! is the only way a thread interacts with the kernel: sending messages,
//! suspending for further messages, sleeping, and setting timers. All
//! operations are *preemption points*: waking a more urgent thread hands
//! the CPU over immediately (when the kernel is configured preemptive).

use crate::clock::Time;
use crate::constraint::{Constraint, Priority};
use crate::error::{KernelError, SendError};
use crate::kernel::{KGuard, Kernel};
use crate::message::{Envelope, Message, ReplyToken, SpecRef, Tag};
use crate::sched::{self, KState};
use crate::thread::{CodeFn, RunState, ThreadId};
use crate::timer::{TimerId, TimerKind};
use parking_lot::Condvar;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
pub struct Ctx<'k> {
    kernel: &'k Kernel,
    me: ThreadId,
    cv: Arc<Condvar>,
    /// The kernel generation at which [`Ctx::undisturbed`] last found
    /// nothing this thread has to give way to.
    quiet_at: Option<u64>,
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
        }
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
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let constraint = constraint.or_else(|| self.constraint_of(&state));
        let token = sched::enqueue_request(&mut state, &inner.stats, self.me, to, msg, constraint)?;
        let spec = SpecRef::reply_or_tags(token, interrupt_tags);
        self.preempt_unless_blocking(&mut state, spec);
        self.await_reply(&mut state, spec, to)
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
        pending.consume();
        let mut state = self.kernel.inner.lock();
        let spec = SpecRef::reply_or_tags(pending.token, interrupt_tags);
        self.await_reply(&mut state, spec, pending.to)
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
        let mut state = self.kernel.inner.lock();
        self.reply_locked(&mut state, env, msg)?;
        let _ = self.maybe_preempt(&mut state);
        Ok(())
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
        let mut state = self.kernel.inner.lock();
        let _ = self.reply_locked(&mut state, req, msg);
        let spec = SpecRef::tags(tags);
        self.preempt_unless_blocking(&mut state, spec);
        self.receive_locked(&mut state, spec, false)
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
        self.blocking_receive(SpecRef::tags(tags))
    }

    /// Top-level receive for the thread main loop. In the critical section
    /// that dequeues the next message it also retires the previous
    /// message's constraint and records the new one as the thread's
    /// current constraint.
    pub(crate) fn main_receive(&mut self) -> Result<Envelope, KernelError> {
        let mut state = self.kernel.inner.lock();
        if let Some(rec) = state.rec_mut(self.me) {
            rec.cur = None;
            rec.processing = false;
        }
        let env = self.receive_locked(&mut state, SpecRef::ANY, false)?;
        if let Some(rec) = state.rec_mut(self.me) {
            rec.cur = env.constraint();
            rec.processing = true;
        }
        Ok(env)
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
        if state.shutdown || self.maybe_preempt(&mut state).is_err() {
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
        let mut state = self.kernel.inner.lock();
        self.sleep_locked(&mut state, at)
    }

    /// Suspends this thread for the given duration (in kernel time).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn sleep(&mut self, d: Duration) -> Result<(), KernelError> {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let at = inner.now(&state) + d;
        self.sleep_locked(&mut state, at)
    }

    fn sleep_locked(&self, state: &mut KGuard<'_>, at: Time) -> Result<(), KernelError> {
        let inner = &self.kernel.inner;
        if at <= inner.now(state) {
            return self.yield_cpu(state);
        }
        inner.arm_timer(state, at, TimerKind::Wake(self.me));
        {
            let rec = state.rec_mut(self.me).ok_or(KernelError::Shutdown)?;
            rec.sleeping = true;
            rec.state = RunState::Blocked;
        }
        debug_assert_eq!(state.running, Some(self.me));
        state.running = None;
        inner.reschedule(state);
        self.park(state)
    }

    /// Offers the CPU to any other runnable thread.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn yield_now(&mut self) -> Result<(), KernelError> {
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
        env: &Envelope,
        msg: Message,
    ) -> Result<(), SendError> {
        let token = env.reply_to.ok_or(SendError::NotARequest)?;
        let to = env.from.ok_or(SendError::NotARequest)?;
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
        if spec.is_reply(&env) {
            return Ok(SyncOutcome::Reply(env));
        }
        let pending = PendingReply {
            kernel: self.kernel.clone(),
            token: spec.reply.expect("a reply wait").0,
            to,
            me: self.me,
            live: true,
        };
        Ok(SyncOutcome::Interrupted(pending, env))
    }

    /// The send half of a combined send-and-receive is a preemption point
    /// only when the receive half will not block; blocking dispatches the
    /// most urgent runnable thread anyway.
    fn preempt_unless_blocking(&self, state: &mut KGuard<'_>, spec: SpecRef<'_>) {
        if state
            .rec(self.me)
            .is_some_and(|rec| rec.find_match(spec).is_some())
        {
            // A failure means shutdown, which the receive reports.
            let _ = self.maybe_preempt(state);
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
            state.wait(&self.cv);
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
        let inner = &self.kernel.inner;
        loop {
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
                    return Ok(env);
                }
                rec.state = RunState::Blocked;
                rec.set_wait(spec);
            }
            debug_assert_eq!(state.running, Some(self.me));
            state.running = None;
            inner.reschedule(state);
            self.park(state)?;
        }
    }

    /// Gives up the CPU, staying runnable; returns once rescheduled.
    fn yield_cpu(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        let inner = &self.kernel.inner;
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
        inner.reschedule(state);
        self.park(state)
    }

    /// After waking another thread: hand over the CPU if that thread is now
    /// more urgent than we are.
    fn maybe_preempt(&self, state: &mut KGuard<'_>) -> Result<(), KernelError> {
        let inner = &self.kernel.inner;
        if !inner.cfg.preemptive || state.running != Some(self.me) {
            return Ok(());
        }
        let mut my_eff = None;
        let someone_better = state.threads().any(|(id, rec)| {
            id != self.me && rec.wants_cpu() && {
                let mine =
                    my_eff.get_or_insert_with(|| sched::effective(state, &inner.cfg, self.me));
                sched::effective(state, &inner.cfg, id).urgency_cmp(mine)
                    == std::cmp::Ordering::Greater
            }
        });
        if someone_better {
            self.yield_cpu(state)
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.me).finish()
    }
}
