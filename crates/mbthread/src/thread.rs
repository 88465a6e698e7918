//! Per-thread bookkeeping: identities, run states, and the code-function
//! trait that user threads implement.

use crate::constraint::{Constraint, Priority};
use crate::ctx::Ctx;
use crate::message::{Envelope, ReplyToken, SpecRef, Tag};
use parking_lot::Condvar;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Identifies a thread within its [`Kernel`](crate::Kernel).
///
/// Thread ids are never reused within a kernel's lifetime.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u64);

impl ThreadId {
    /// Constructs a thread id from a raw value. Only meaningful within the
    /// kernel that issued it; intended for tests and diagnostics.
    #[doc(hidden)]
    #[must_use]
    pub fn from_raw(raw: u64) -> ThreadId {
        ThreadId(raw)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread:{}", self.0)
    }
}

/// Tells the kernel whether a code function wants to keep running after
/// handling a message.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Wait for the next message.
    #[default]
    Continue,
    /// Terminate this thread; its resources are released once the code
    /// function returns.
    Stop,
}

/// The behaviour of a user-level thread.
///
/// Unlike a conventional thread body, a code function is not called once at
/// thread creation: it is invoked **each time a message is received**, like
/// an event handler — but it may suspend mid-call (via [`Ctx::receive`],
/// synchronous sends, or sleeps) and be preempted at message operations, so
/// threads behave like extended finite state machines with real stacks.
///
/// Closures of type `FnMut(&mut Ctx<'_>, Envelope) -> Flow` implement this
/// trait, which is the common way to spawn simple threads; implement the
/// trait directly when per-thread state or a start hook is needed.
pub trait CodeFn: Send + 'static {
    /// Called once, before any message is delivered, when the thread is
    /// first scheduled. Useful for self-posting an initial tick.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called once per received message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow;
}

impl<F> CodeFn for F
where
    F: FnMut(&mut Ctx<'_>, Envelope) -> Flow + Send + 'static,
{
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        self(ctx, env)
    }
}

/// The behaviour of a *polled* user-level thread
/// ([`Kernel::spawn_polled`](crate::Kernel::spawn_polled)): a
/// [`CodeFn`] whose handler is a future. It suspends where an OS-backed
/// thread parks, in the `*_async` forms of [`Ctx`]'s blocking
/// operations, so a hand-off to it is a poll on the OS thread that gave
/// up the CPU rather than an OS context switch.
///
/// The handler must not call a blocking [`Ctx`] operation (they panic on
/// a polled thread); sends that are not awaited defer their preemption to
/// the thread's next suspension point (see [`Ctx`]).
pub trait PolledFn: Send + 'static {
    /// Called once per received message, as [`CodeFn::on_message`] is.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope)
        -> impl Future<Output = Flow> + Send;
}

/// A [`PolledFn`] on an OS thread of its own
/// ([`Kernel::spawn`](crate::Kernel::spawn)): the same handler, run to
/// completion by [`block_on`], each of whose kernel operations parks that
/// OS thread where a polled thread would suspend.
#[derive(Debug)]
pub struct OnOsThread<P>(pub P);

impl<P: PolledFn> CodeFn for OnOsThread<P> {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        block_on(|| self.0.on_message(ctx, env))
    }
}

/// Runs a future to completion on a thread that parks rather than
/// suspends: an OS-backed kernel thread, whose [`Ctx`] operations
/// complete within their first poll. This is how each blocking form of a
/// [`Ctx`] operation runs its async form, and how [`OnOsThread`] runs a
/// [`PolledFn`].
///
/// The future is made and kept in this function's own frame, out of line:
/// in the caller's, it would widen every frame of a recursive caller that
/// never blocks (inlined into the pipeline's section-tree walk, it grew
/// `PushNode::push`'s frame from 312 to 904 bytes and slowed the direct
/// chain benchmark by 3–5 %).
///
/// # Panics
///
/// Panics if the future suspends: a polled thread awaits its [`Ctx`]
/// operations instead.
#[inline(never)]
pub fn block_on<F: Future>(make: impl FnOnce() -> F) -> F::Output {
    let mut fut = std::pin::pin!(make());
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a kernel operation suspended a thread that must block"),
    }
}

/// A polled thread's whole life as one future, from its first message to
/// its return from the main loop.
pub(crate) type Body = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Scheduler-visible state of a thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Ready to run, waiting for the CPU.
    Runnable,
    /// The single thread currently executing.
    Running,
    /// Suspended waiting for a matching message (spec in
    /// [`ThreadRec::wait_spec`]) or for a timer ([`ThreadRec::sleeping`]);
    /// also a new thread's state until it is first made runnable.
    Blocked,
    /// Terminated; kept for diagnostics until the kernel is dropped.
    Done,
}

/// Kernel-internal record for one thread (user-level or external port).
pub(crate) struct ThreadRec {
    pub(crate) name: String,
    pub(crate) static_pri: Priority,
    pub(crate) mailbox: VecDeque<Envelope>,
    pub(crate) state: RunState,
    /// Whether a blocked receive is in progress, and the owned copy of its
    /// match spec: set by [`ThreadRec::set_wait`], read through
    /// [`ThreadRec::wait_spec`]. The tag buffer keeps its allocation from
    /// one wait to the next.
    pub(crate) receive_blocked: bool,
    wait_any: bool,
    wait_reply: Option<ReplyToken>,
    wait_tags: Vec<Tag>,
    /// True while blocked in a sleep (woken by a timer, not a message).
    pub(crate) sleeping: bool,
    /// Constraint of the message currently being processed (set by the
    /// thread main loop around each top-level delivery).
    pub(crate) cur: Option<Constraint>,
    /// True while the thread is inside a top-level message delivery, even
    /// if that message carried no constraint. Distinguishes "preempted
    /// mid-processing" from "waiting to dequeue the next message".
    pub(crate) processing: bool,
    /// The thread this one is blocked on in a synchronous send, for
    /// priority-inheritance donation chains. Written only through
    /// `KState::wait_for_reply` and `KState::end_wait`, which keep the
    /// target's [`ThreadRec::waiters`] in step.
    pub(crate) waiting_on: Option<ThreadId>,
    /// Every thread whose [`ThreadRec::waiting_on`] is this one, in no
    /// particular order: the donors of this thread's urgency.
    pub(crate) waiters: Vec<ThreadId>,
    /// Set when the peer this thread was synchronously waiting on
    /// terminated; the blocked operation returns an error.
    pub(crate) peer_gone: Option<ThreadId>,
    /// Reply tokens of this thread's synchronous sends that are neither
    /// answered nor cancelled: a reply must retire its token from here,
    /// or it is stale. Almost always 0 or 1 long (2 while an interrupt
    /// handler makes a call of its own); it keeps its allocation.
    pub(crate) outstanding: Vec<u64>,
    /// Sequence stamp of the moment this thread last became runnable, for
    /// FIFO tie-breaking among equal urgencies.
    pub(crate) ready_seq: u64,
    /// Parks the backing OS thread (paired with the kernel mutex).
    pub(crate) cv: Arc<Condvar>,
    /// How many OS threads sleep on [`ThreadRec::cv`] right now: set and
    /// cleared under the kernel mutex around the wait itself. A wake is
    /// sent only while it is nonzero; a thread that is not asleep re-checks
    /// its state under the mutex before it sleeps. At most one for a kernel
    /// thread; an external port may be received on from several OS threads.
    pub(crate) parked: u32,
    /// External ports are mailboxes for OS threads outside the kernel's
    /// uniprocessor discipline; they are never scheduled.
    pub(crate) external: bool,
    /// A polled thread has no OS thread of its own: whichever kernel OS
    /// thread finds it granted the CPU polls its body.
    pub(crate) polled: bool,
    /// A polled thread's body while it is suspended; `None` while some OS
    /// thread polls it (and always for OS-backed threads).
    pub(crate) body: Option<Body>,
}

impl ThreadRec {
    pub(crate) fn new(name: String, static_pri: Priority, external: bool) -> Self {
        ThreadRec {
            name,
            static_pri,
            mailbox: VecDeque::new(),
            state: RunState::Blocked,
            receive_blocked: false,
            wait_any: false,
            wait_reply: None,
            wait_tags: Vec::new(),
            sleeping: false,
            cur: None,
            processing: false,
            waiting_on: None,
            waiters: Vec::new(),
            peer_gone: None,
            outstanding: Vec::new(),
            ready_seq: 0,
            cv: Arc::new(Condvar::new()),
            parked: 0,
            external,
            polled: false,
            body: None,
        }
    }

    /// Whether the scheduler may grant this thread the CPU: runnable, and
    /// a kernel thread rather than an external port.
    pub(crate) fn wants_cpu(&self) -> bool {
        self.state == RunState::Runnable && !self.external
    }

    /// Index of the first queued envelope matching `spec`.
    pub(crate) fn find_match(&self, spec: SpecRef<'_>) -> Option<usize> {
        self.mailbox.iter().position(|env| spec.matches(env))
    }

    /// Removes and returns the first queued envelope matching `spec`.
    pub(crate) fn take_match(&mut self, spec: SpecRef<'_>) -> Option<Envelope> {
        // The front is the common case. `pop_front` is inlined here, while
        // `VecDeque::remove` is compiled out of line and hands the
        // envelope back through memory.
        match self.find_match(spec)? {
            0 => self.mailbox.pop_front(),
            idx => self.mailbox.remove(idx),
        }
    }

    /// Removes `token` from [`ThreadRec::outstanding`]; returns whether it
    /// was there.
    pub(crate) fn retire_token(&mut self, token: u64) -> bool {
        let Some(pos) = self.outstanding.iter().position(|&t| t == token) else {
            return false;
        };
        self.outstanding.swap_remove(pos);
        true
    }

    /// Records `spec` as what this thread's blocked receive accepts.
    pub(crate) fn set_wait(&mut self, spec: SpecRef<'_>) {
        self.receive_blocked = true;
        self.wait_any = spec.any;
        self.wait_reply = spec.reply;
        self.wait_tags.clear();
        self.wait_tags.extend_from_slice(spec.tags);
    }

    /// The match spec of the blocked receive; `None` while not
    /// receive-blocked.
    pub(crate) fn wait_spec(&self) -> Option<SpecRef<'_>> {
        self.receive_blocked.then_some(SpecRef {
            any: self.wait_any,
            reply: self.wait_reply,
            tags: &self.wait_tags,
        })
    }
}

impl fmt::Debug for ThreadRec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRec")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("queued", &self.mailbox.len())
            .field("wait", &self.wait_spec())
            .field("sleeping", &self.sleeping)
            .field("cur", &self.cur)
            .field("polled", &self.polled)
            .finish()
    }
}
