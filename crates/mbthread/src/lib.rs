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
//! most one thread of a [`Kernel`] executes at any instant. Each user-level
//! thread is backed by an OS thread, but a kernel-wide hand-off protocol
//! guarantees mutual exclusion, which is what makes the Infopipe layer's
//! synchronized-object components and coroutine sets correct without any
//! per-component locks. A context switch is therefore a park/unpark pair —
//! the microsecond-scale cost that §4 of the paper reports, two orders of
//! magnitude above a plain function call.
//!
//! # What a message operation costs
//!
//! A send, reply or receive is one critical section under the kernel
//! mutex and wakes at most the one OS thread that must run next:
//!
//! * **No OS wake is issued with the kernel mutex held.** Granting the CPU
//!   (or queueing a message for an [`ExternalPort`]) only records the wake;
//!   the lock guard delivers it after releasing the mutex — a parking
//!   thread unlocks, notifies its successor, relocks and then waits for its
//!   own turn — so a woken thread never blocks on the lock its waker still
//!   holds.
//! * **The dispatcher is not on the message path.** Its OS thread (timers,
//!   virtual-time jumps) is woken only when the kernel goes idle — no
//!   thread running or runnable — with a virtual-clock jump or a
//!   [`Kernel::wait_quiescent`] caller pending, when a timer is armed
//!   ([`Ctx::set_timer`], [`Ctx::sleep_until`], [`ExternalPort::send_at`]),
//!   when a [`ClockHold`] is released, and at shutdown. Sends, replies and
//!   hand-offs between threads never wake it;
//!   [`KernelStats::dispatcher_wakeups`] counts the times it did wake.
//! * The hand-off allocates nothing: tag sets of blocked receives are
//!   copied into a per-thread buffer that is reused, and effective
//!   priorities are computed by iteration over the thread table.
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
pub use thread::{CodeFn, Flow, ThreadId};
pub use timer::TimerId;
