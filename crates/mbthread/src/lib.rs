//! A message-based user-level thread package.
//!
//! This crate reproduces the threading substrate described in §4 of
//! *Thread Transparency in Information Flow Middleware* (Koster, Black,
//! Huang, Walpole, Pu; Middleware 2001): a user-level thread package in
//! which
//!
//! * each thread consists of a **code function** and a **queue for incoming
//!   messages**; the code function is invoked once per received message and
//!   may suspend mid-call waiting for further messages,
//! * inter-thread communication is performed by **sending messages**, either
//!   asynchronously or synchronously (send and wait for the reply),
//! * scheduling is controlled by **static thread priorities** and by
//!   **constraints attached to messages**: the effective priority of a
//!   thread is derived from the constraint of the message it is currently
//!   processing, or, while it waits for the CPU, from the constraint of the
//!   first message in its incoming queue,
//! * an optional **priority-inheritance** scheme raises a thread's effective
//!   priority when a message with a higher constraint than the one being
//!   processed is waiting in its queue,
//! * timers and external events (network packets, signals) are **mapped to
//!   messages**, so all stimuli arrive through the uniform message
//!   interface.
//!
//! Like the paper's platform, the package has *uniprocessor semantics*: at
//! most one thread of a [`Kernel`] executes at any instant, under a
//! kernel-wide hand-off protocol that guarantees mutual exclusion, which
//! is what makes the Infopipe layer's synchronized-object components and
//! coroutine sets correct without any per-component locks. A user-level
//! thread is backed by an OS thread ([`Kernel::spawn`]), and a context
//! switch to it is a park/unpark pair — the microsecond-scale cost that
//! §4 of the paper reports. Or it is *polled* ([`Kernel::spawn_polled`]):
//! its body is a future, and a context switch to it is a poll on the OS
//! thread that gave up the CPU — the cheap user-level transfer the paper's
//! coroutines assume.
//!
//! # What a message operation costs
//!
//! A send, reply or receive is one critical section under the kernel
//! mutex and wakes at most the one OS thread that must run next, and that
//! one only if it sleeps:
//!
//! * **A synchronous hand-off is one critical section per side.**
//!   [`Ctx::call`] enqueues a request and blocks for its reply (or an
//!   interrupting control message); [`Ctx::reply_and_receive`] answers a
//!   request and blocks for the next message. A received request becomes
//!   the receiver's current constraint in that same section. Neither
//!   checks for preemption after its send half unless its receive half
//!   finds a message already queued: a thread that blocks hands the CPU
//!   to the most urgent runnable thread anyway.
//!
//! * **A hand-off to a polled thread is a poll, not an OS wake.** An OS
//!   thread that gives up the CPU to a polled thread polls it itself, in
//!   its park loop, and goes on polling while the CPU passes from one
//!   polled thread to the next; a polled thread that blocks makes its poll
//!   return `Pending`, and the polling OS thread looks at who holds the
//!   CPU next. A polled thread granted from outside the kernel (an
//!   [`ExternalPort`] send, a spawn, a timer) is polled by the dispatcher.
//! * **Each operation has one body.** A [`Ctx`] operation that may wait
//!   is an `async fn` (`call_async`, `reply_and_receive_async`, …), and
//!   its blocking form ([`Ctx::call`], [`Ctx::reply_and_receive`], …) is
//!   that async form run to completion by [`block_on`]. The two backings
//!   part only where the thread has given up the CPU: an OS-backed thread
//!   parks there, inside the critical section, and a polled one suspends
//!   and takes the operation up again once polled. So the kernel takes the
//!   same critical sections, makes the same scheduling decisions and
//!   counts the same switches whatever backs a thread.
//! * **No OS wake is issued with the kernel mutex held.** Granting the CPU
//!   (or queueing a message for an [`ExternalPort`]) only records the wake;
//!   the lock guard delivers it after releasing the mutex — a parking
//!   thread unlocks, notifies its successor, relocks and then waits for its
//!   own turn — so a woken thread never blocks on the lock its waker still
//!   holds.
//! * **Only a sleeping OS thread is woken.** A thread's OS thread is
//!   marked parked, under the mutex, for exactly as long as it waits on
//!   its condvar; a hand-off notifies the condvar only while it is. A
//!   thread that is not parked re-checks its state under the mutex before
//!   it sleeps. So a hand-off back to the OS thread that is polling the
//!   yielding thread makes no syscall; [`KernelStats::os_wakes`] counts
//!   the notifications the kernel did issue.
//! * **The dispatcher is not on the message path.** Its OS thread (timers,
//!   virtual-time jumps) is woken only when the kernel goes idle — no
//!   thread running or runnable — with a virtual-clock jump pending
//!   ([`Kernel::wait_quiescent`] callers sleep on a condvar of their
//!   own), when a timer is armed
//!   ([`Ctx::set_timer`], [`Ctx::sleep_until`]),
//!   when a [`ClockHold`] is released, when a polled thread is granted the
//!   CPU with no kernel OS thread there to poll it, and at shutdown.
//!   Sends, replies and hand-offs between threads never wake it, and it
//!   polls no thread that another OS thread has looked at since its grant,
//!   so a wake-up that reaches it late takes over no hand-off;
//!   [`KernelStats::dispatcher_wakeups`] counts the times it did wake.
//! * **A hand-off walks no idle thread and allocates nothing.** The
//!   scheduler keeps the threads that want the CPU in a queue in the order
//!   they became runnable, and each thread lists the threads blocked on it
//!   in a synchronous send. A pick walks that queue; a lone candidate is
//!   picked without computing its effective constraint, and with
//!   priority scheduling off the pick is the queue front. Priority
//!   donation follows the waiter lists. So threads that wait for a message
//!   cost a hand-off nothing. Tag sets of blocked receives are copied into
//!   a per-thread buffer that is reused, and the queue and lists keep
//!   their capacity.
//! * **A thread with more work of its own need not send itself a message
//!   to stay preemptible.** [`Ctx::undisturbed`] tells it whether anything
//!   needs it back in its main loop — a message in its mailbox, a more
//!   urgent runnable thread, shutdown — for one atomic load while nothing
//!   happens in the kernel: every enqueue, every thread becoming runnable
//!   and the start of shutdown move one generation word on, and only a
//!   moved word costs the asking thread a critical section (which is a
//!   preemption point, like a send).
//!
//! # Clocks
//!
//! The kernel clock can be **real** or **virtual**. Under the virtual clock,
//! time advances only when every thread is blocked, which makes timing-
//! dependent pipelines (clocked pumps, network latency models) fully
//! deterministic in tests.
//!
//! # Example
//!
//! ```
//! use mbthread::{Flow, Kernel, KernelConfig, Message, Tag};
//!
//! # fn main() {
//! let kernel = Kernel::new(KernelConfig::default());
//! const PING: Tag = Tag(1);
//!
//! let echo = kernel
//!     .spawn("echo", |ctx: &mut mbthread::Ctx<'_>, mut env: mbthread::Envelope| {
//!         // Reply to every message with its body plus one.
//!         let n: u64 = env.message_mut().take_body().unwrap();
//!         ctx.reply(&env, Message::new(PING, n + 1)).ok();
//!         Flow::Continue
//!     })
//!     .unwrap();
//!
//! let port = kernel.external("main");
//! let reply = port.send_sync(echo, Message::new(PING, 41u64)).unwrap();
//! assert_eq!(reply.expect_body::<u64>(), 42);
//! kernel.shutdown();
//! # }
//! ```

mod clock;
mod constraint;
mod ctx;
mod error;
mod external;
mod kernel;
mod message;
mod sched;
mod stats;
mod thread;
mod timer;

pub use clock::{ClockMode, Time};
pub use constraint::{Constraint, Priority};
pub use ctx::{Ctx, PendingReply, SpawnOptions, SyncOutcome};
pub use error::{KernelError, SendError};
pub use external::ExternalPort;
pub use kernel::{ClockHold, Kernel, KernelConfig};
pub use message::{Body, Envelope, MatchSpec, Message, Tag};
pub use stats::KernelStats;
pub use thread::{block_on, CodeFn, Flow, OnOsThread, PolledFn, ThreadId};
pub use timer::TimerId;
