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
        let env = Envelope::new(Some(self.id), msg, constraint);
        sched::enqueue(&mut state, &inner.stats, to, env)?;
        // If the kernel was idle the target gets the CPU here; its OS
        // thread is woken when `state` drops.
        inner.reschedule(&mut state);
        Ok(())
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
        state.retire_token(self.id, token);
        state.end_wait(self.id);
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
            let Some(rec) = state.rec_mut(self.id) else {
                return Some(Err(KernelError::Shutdown));
            };
            if let Some(peer) = rec.peer_gone.take() {
                state.end_wait(self.id);
                return Some(Err(KernelError::PeerGone(peer)));
            }
            if let Some(env) = rec.take_match(spec) {
                return Some(Ok(env));
            }
            let left = match deadline {
                // The mailbox was re-checked above, so a wait that timed
                // out reports the timeout from here.
                Some(dl) => match dl.checked_duration_since(std::time::Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return None,
                },
                None => None,
            };
            state.park(self.id, &self.cv, left);
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
