//! Per-thread bookkeeping: identities, run states, and the code-function
//! trait that user threads implement.

use crate::constraint::{Constraint, Priority};
use crate::ctx::Ctx;
use crate::message::{Envelope, ReplyToken, SpecRef, Tag};
use parking_lot::Condvar;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

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

/// Scheduler-visible state of a thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Ready to run, waiting for the CPU.
    Runnable,
    /// The single thread currently executing.
    Running,
    /// Suspended waiting for a matching message (spec in
    /// [`ThreadRec::wait_spec`]) or for a timer ([`ThreadRec::sleeping`]).
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
    /// priority-inheritance donation chains.
    pub(crate) waiting_on: Option<ThreadId>,
    /// Set when the peer this thread was synchronously waiting on
    /// terminated; the blocked operation returns an error.
    pub(crate) peer_gone: Option<ThreadId>,
    /// Sequence stamp of the moment this thread last became runnable, for
    /// FIFO tie-breaking among equal urgencies.
    pub(crate) ready_seq: u64,
    /// Parks the backing OS thread (paired with the kernel mutex).
    pub(crate) cv: Arc<Condvar>,
    /// External ports are mailboxes for OS threads outside the kernel's
    /// uniprocessor discipline; they are never scheduled.
    pub(crate) external: bool,
}

impl ThreadRec {
    pub(crate) fn new(name: String, static_pri: Priority, external: bool) -> Self {
        ThreadRec {
            name,
            static_pri,
            mailbox: VecDeque::new(),
            state: if external {
                RunState::Blocked
            } else {
                RunState::Runnable
            },
            receive_blocked: false,
            wait_any: false,
            wait_reply: None,
            wait_tags: Vec::new(),
            sleeping: false,
            cur: None,
            processing: false,
            waiting_on: None,
            peer_gone: None,
            ready_seq: 0,
            cv: Arc::new(Condvar::new()),
            external,
        }
    }

    /// Index of the first queued envelope matching `spec`.
    pub(crate) fn find_match(&self, spec: SpecRef<'_>) -> Option<usize> {
        self.mailbox.iter().position(|env| spec.matches(env))
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
            .finish()
    }
}
