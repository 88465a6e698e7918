//! Mailboxes for OS threads outside the kernel.
//!
//! An [`ExternalPort`] lets ordinary OS threads — `main`, a network
//! receiver, a test harness — exchange messages with kernel threads. This
//! is how the platform maps "network packets and signals from the operating
//! system" to messages (§4): the OS-facing thread blocks on real I/O and
//! injects what it reads as messages through its port.
//!
//! Ports are not scheduled: they do not take part in the kernel's
//! uniprocessor discipline and their receive operations block the calling
//! OS thread in real time (even when the kernel runs on the virtual
//! clock).

use crate::clock::Time;
use crate::constraint::Constraint;
use crate::error::{KernelError, SendError};
use crate::kernel::{KGuard, Kernel};
use crate::message::{Envelope, MatchSpec, Message, SpecRef};
use crate::sched::{self};
use crate::thread::{RunState, ThreadId};
use crate::timer::{TimerId, TimerKind};
use parking_lot::Condvar;
use std::sync::Arc;
use std::time::Duration;

/// A mailbox connecting an external OS thread to a [`Kernel`].
///
/// Created by [`Kernel::external`]. Dropping the port terminates its
/// mailbox; kernel threads synchronously waiting on it observe
/// [`KernelError::PeerGone`].
pub struct ExternalPort {
    kernel: Kernel,
    id: ThreadId,
    cv: Arc<Condvar>,
}

impl ExternalPort {
    pub(crate) fn new(kernel: Kernel, id: ThreadId) -> Self {
        let cv = {
            let state = kernel.inner.lock();
            Arc::clone(&state.rec(id).expect("external record exists").cv)
        };
        ExternalPort { kernel, id, cv }
    }

    /// The thread id kernel threads can use to send messages to this port.
    #[must_use]
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The kernel this port belongs to.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Sends a message to a kernel thread, without a constraint.
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist, has terminated, or the kernel is
    /// shutting down.
    pub fn send(&self, to: ThreadId, msg: Message) -> Result<(), SendError> {
        self.send_with(to, msg, None)
    }

    /// Sends a message to a kernel thread with an explicit constraint.
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist, has terminated, or the kernel is
    /// shutting down.
    pub fn send_with(
        &self,
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> Result<(), SendError> {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let env = state.stamp(Some(self.id), msg, constraint);
        sched::enqueue(&mut state, &inner.stats, to, env)?;
        // If the kernel was idle the target gets the CPU here; its OS
        // thread is woken when `state` drops.
        inner.reschedule(&mut state);
        Ok(())
    }

    /// Schedules `msg` for delivery to a kernel thread at the absolute
    /// kernel time `at` — timestamped delivery from outside the kernel.
    ///
    /// This is the injection point for *replayed* traffic: an external
    /// driver (e.g. a trace replayer assembling its session) can schedule
    /// work at a recorded virtual timestamp before the virtual clock
    /// starts advancing, instead of racing the kernel with an immediate
    /// send. A deadline at or before the current kernel time delivers as
    /// soon as the kernel next dispatches. Like all timer deliveries, a
    /// target that terminates before the deadline silently drops the
    /// message.
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist (or already terminated) or the
    /// kernel is shutting down.
    pub fn send_at(&self, to: ThreadId, at: Time, msg: Message) -> Result<TimerId, SendError> {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        if state.shutdown {
            return Err(SendError::Shutdown);
        }
        if state.rec(to).is_none() {
            return Err(SendError::UnknownThread(to));
        }
        Ok(inner.arm_timer(
            &mut state,
            at,
            TimerKind::Deliver {
                to,
                msg,
                constraint: None,
            },
        ))
    }

    /// Sends a message and blocks the calling OS thread until the kernel
    /// thread replies.
    ///
    /// # Errors
    ///
    /// Fails if the target is unknown, terminates before replying, or the
    /// kernel shuts down.
    pub fn send_sync(&self, to: ThreadId, msg: Message) -> Result<Envelope, KernelError> {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        let token = sched::enqueue_request(&mut state, &inner.stats, self.id, to, msg, None)?;
        inner.reschedule(&mut state);
        let out = self.recv_locked(&mut state, SpecRef::reply_or_tags(token, &[]), None);
        state.pending_tokens.remove(&token);
        if let Some(rec) = state.rec_mut(self.id) {
            rec.waiting_on = None;
        }
        out.ok_or(KernelError::Shutdown).and_then(|r| r)
    }

    /// Blocks until any message arrives at this port.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] when the kernel shuts down.
    pub fn recv(&self) -> Result<Envelope, KernelError> {
        self.blocking_recv(&MatchSpec::Any, None)
            .expect("no timeout given")
    }

    /// Blocks until a message matching `spec` arrives at this port, or
    /// `timeout` (wall clock) passes; `None` on timeout.
    pub fn recv_timeout(&self, spec: &MatchSpec, timeout: Duration) -> Option<Envelope> {
        self.blocking_recv(spec, Some(timeout)).and_then(Result::ok)
    }

    /// Current kernel time (convenience).
    #[must_use]
    pub fn now(&self) -> Time {
        self.kernel.now()
    }

    /// Waits on the port's condvar until a matching message is queued.
    /// Outer `None` = timed out; inner `Err` = shutdown/peer-gone.
    fn blocking_recv(
        &self,
        spec: &MatchSpec,
        timeout: Option<Duration>,
    ) -> Option<Result<Envelope, KernelError>> {
        let mut state = self.kernel.inner.lock();
        self.recv_locked(&mut state, spec.as_ref(), timeout)
    }

    fn recv_locked(
        &self,
        state: &mut KGuard<'_>,
        spec: SpecRef<'_>,
        timeout: Option<Duration>,
    ) -> Option<Result<Envelope, KernelError>> {
        let deadline = timeout.map(|d| std::time::Instant::now() + d);
        loop {
            if state.shutdown {
                return Some(Err(KernelError::Shutdown));
            }
            {
                let Some(rec) = state.rec_mut(self.id) else {
                    return Some(Err(KernelError::Shutdown));
                };
                if let Some(peer) = rec.peer_gone.take() {
                    rec.waiting_on = None;
                    return Some(Err(KernelError::PeerGone(peer)));
                }
                if let Some(idx) = rec.find_match(spec) {
                    let env = rec.mailbox.remove(idx).expect("index from find_match");
                    return Some(Ok(env));
                }
            }
            match deadline {
                Some(dl) => {
                    // The mailbox was re-checked above, so a wait that
                    // timed out reports the timeout from here.
                    let left = dl.checked_duration_since(std::time::Instant::now())?;
                    if left.is_zero() {
                        return None;
                    }
                    state.wait_for(&self.cv, left);
                }
                None => {
                    state.wait(&self.cv);
                }
            }
        }
    }
}

impl Drop for ExternalPort {
    fn drop(&mut self) {
        let inner = &self.kernel.inner;
        let mut state = inner.lock();
        if state.rec(self.id).is_some() {
            sched::terminate(&mut state, self.id);
            // terminate() keeps the record for diagnostics; mark it Done so
            // senders fail fast.
            if let Some(rec) = state.rec_mut(self.id) {
                rec.state = RunState::Done;
            }
            // Kernel threads that were waiting on this port are runnable.
            inner.reschedule(&mut state);
        }
    }
}

impl std::fmt::Debug for ExternalPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalPort")
            .field("id", &self.id)
            .finish()
    }
}
