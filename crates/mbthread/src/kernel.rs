//! The kernel: owns all threads, the clock, and the dispatcher.

use crate::clock::{ClockMode, Time};
use crate::constraint::Priority;
use crate::ctx::{Ctx, SpawnOptions};
use crate::error::KernelError;
use crate::external::ExternalPort;
use crate::sched::{self, KState, SchedConfig};
use crate::stats::{KernelStats, StatCounters};
use crate::thread::{CodeFn, Flow, ThreadId, ThreadRec};
use crate::timer::{TimerId, TimerKind};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

std::thread_local! {
    /// True on OS threads that back kernel threads (user threads and the
    /// dispatcher); used to reject blocking kernel-management calls that
    /// would deadlock if made from inside.
    static IS_KERNEL_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub(crate) fn on_kernel_thread() -> bool {
    IS_KERNEL_THREAD.with(|c| c.get())
}

/// Configuration for a [`Kernel`].
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Real or virtual time; see [`ClockMode`].
    pub clock: ClockMode,
    /// Enables the priority-inheritance scheme of §4: a thread's effective
    /// priority is raised by more urgent messages waiting in its queue and
    /// by threads synchronously blocked on it.
    pub priority_inheritance: bool,
    /// Enables preemption at message operations: a thread that wakes a more
    /// urgent thread yields the CPU to it immediately.
    pub preemptive: bool,
    /// Enables priority scheduling altogether; with this off the scheduler
    /// is plain FIFO (used by the control-latency ablation experiment).
    pub priority_scheduling: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            clock: ClockMode::Real,
            priority_inheritance: true,
            preemptive: true,
            priority_scheduling: true,
        }
    }
}

impl KernelConfig {
    /// A default-configured kernel on the virtual clock, for deterministic
    /// tests.
    #[must_use]
    pub fn virtual_time() -> Self {
        KernelConfig {
            clock: ClockMode::Virtual,
            ..KernelConfig::default()
        }
    }
}

pub(crate) struct KernelInner {
    /// Locked only through [`KernelInner::lock`], whose guard delivers the
    /// wakes a critical section produced after releasing the mutex.
    state: Mutex<KState>,
    /// The dispatcher and quiescence waiters sleep on it; see
    /// [`dispatcher_main`] for when it is notified.
    cv_global: Condvar,
    epoch: std::time::Instant,
    pub(crate) cfg: SchedConfig,
    pub(crate) stats: StatCounters,
    /// [`KState::generation`], readable without the mutex.
    pub(crate) generation: Arc<AtomicU64>,
    pub(crate) joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl KernelInner {
    pub(crate) fn lock(&self) -> KGuard<'_> {
        KGuard {
            inner: self,
            guard: Some(self.state.lock()),
        }
    }

    fn real_now(&self) -> Time {
        Time::from_nanos(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Current kernel time under the lock-holder's view of the world.
    pub(crate) fn now(&self, state: &KState) -> Time {
        match self.cfg.clock {
            ClockMode::Real => self.real_now(),
            ClockMode::Virtual => state.vnow,
        }
    }

    /// Fires due timers and, if the CPU is free, grants it to the best
    /// runnable thread. Called when a thread gives up the CPU and when an
    /// external thread may have made one runnable.
    pub(crate) fn reschedule(&self, state: &mut KState) {
        if !state.timers.is_empty() {
            let now = self.now(state);
            sched::fire_due_timers(state, &self.stats, now);
        }
        sched::dispatch(state, &self.cfg, &self.stats);
        let clock_may_jump = self.cfg.clock == ClockMode::Virtual && !state.timers.is_empty();
        if state.running.is_none() && (clock_may_jump || state.quiescence_waiters > 0) {
            // The kernel went idle: the dispatcher advances virtual time,
            // quiescence waiters re-check.
            state.wakes.dispatcher = true;
        }
    }

    /// Registers a timer and tells the dispatcher about the new deadline.
    pub(crate) fn arm_timer(&self, state: &mut KState, at: Time, kind: TimerKind) -> TimerId {
        let id = sched::add_timer(state, at, kind);
        // Under the virtual clock a running thread's timers are picked up
        // by the idle rule when it blocks.
        if self.cfg.clock == ClockMode::Real || state.running.is_none() {
            // The timer set changed: the dispatcher's sleep may be too long.
            state.wakes.dispatcher = true;
        }
        id
    }
}

/// The kernel mutex guard. Scheduling code never wakes an OS thread itself;
/// it records the wake in [`KState::wakes`], and this guard issues it once
/// the mutex is released — on drop, or before sleeping in
/// [`KGuard::wait`] — so a woken thread never runs into a held lock.
pub(crate) struct KGuard<'a> {
    inner: &'a KernelInner,
    /// `None` only inside `drop`.
    guard: Option<MutexGuard<'a, KState>>,
}

impl KGuard<'_> {
    /// Sleeps on `cv` until notified. If this critical section owes wakes,
    /// delivers them with the mutex released instead and returns `false`
    /// without sleeping: the state may have changed meanwhile, so the
    /// caller re-checks its predicate as after a spurious wake-up.
    pub(crate) fn wait(&mut self, cv: &Condvar) -> bool {
        if self.deliver_wakes() {
            return false;
        }
        cv.wait(self.guard.as_mut().expect("guard held"));
        true
    }

    /// [`KGuard::wait`] with a timeout.
    pub(crate) fn wait_for(&mut self, cv: &Condvar, timeout: Duration) -> bool {
        if self.deliver_wakes() {
            return false;
        }
        let _ = cv.wait_for(self.guard.as_mut().expect("guard held"), timeout);
        true
    }

    fn deliver_wakes(&mut self) -> bool {
        let wakes = std::mem::take(&mut self.wakes);
        if wakes.is_empty() {
            return false;
        }
        let cv_global = &self.inner.cv_global;
        MutexGuard::unlocked(self.guard.as_mut().expect("guard held"), || {
            wakes.deliver(cv_global);
        });
        true
    }
}

impl Deref for KGuard<'_> {
    type Target = KState;

    fn deref(&self) -> &KState {
        self.guard.as_ref().expect("guard held")
    }
}

impl DerefMut for KGuard<'_> {
    fn deref_mut(&mut self) -> &mut KState {
        self.guard.as_mut().expect("guard held")
    }
}

impl Drop for KGuard<'_> {
    fn drop(&mut self) {
        let wakes = std::mem::take(&mut self.wakes);
        drop(self.guard.take());
        wakes.deliver(&self.inner.cv_global);
    }
}

/// A handle to a message-based thread kernel.
///
/// The kernel owns a set of user-level threads with uniprocessor semantics
/// (at most one runs at a time), a timer wheel, and a clock. Handles are
/// cheap to clone; the kernel itself lives until [`Kernel::shutdown`].
///
/// See the [crate documentation](crate) for the programming model and an
/// example.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) inner: Arc<KernelInner>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut state = self.inner.lock();
        f.debug_struct("Kernel")
            .field("clock", &self.inner.cfg.clock)
            .field("threads", &state.threads.len())
            .field("running", &state.running)
            .field("now", &self.inner.now(&state))
            .field("idle", &state.is_idle())
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel and starts its dispatcher.
    #[must_use]
    pub fn new(cfg: KernelConfig) -> Kernel {
        let state = KState::new();
        let inner = Arc::new(KernelInner {
            generation: Arc::clone(&state.generation),
            state: Mutex::new(state),
            cv_global: Condvar::new(),
            epoch: std::time::Instant::now(),
            cfg: SchedConfig {
                clock: cfg.clock,
                priority_inheritance: cfg.priority_inheritance,
                preemptive: cfg.preemptive,
                priority_scheduling: cfg.priority_scheduling,
            },
            stats: StatCounters::default(),
            joins: Mutex::new(Vec::new()),
        });
        let kernel = Kernel {
            inner: Arc::clone(&inner),
        };
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("mbthread-dispatcher".into())
                .spawn(move || dispatcher_main(&inner))
                .expect("spawn dispatcher")
        };
        kernel.inner.joins.lock().push(dispatcher);
        kernel
    }

    /// Current kernel time.
    #[must_use]
    pub fn now(&self) -> Time {
        match self.inner.cfg.clock {
            ClockMode::Real => self.inner.real_now(),
            ClockMode::Virtual => self.inner.lock().vnow,
        }
    }

    /// A snapshot of the kernel's activity counters.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.inner.stats.snapshot()
    }

    /// Spawns a user-level thread running `code`.
    ///
    /// The thread starts runnable: its [`CodeFn::on_start`] hook runs as
    /// soon as it is first scheduled, after which the code function is
    /// invoked once per received message.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] if the kernel is shutting down.
    pub fn spawn(
        &self,
        opts: impl Into<SpawnOptions>,
        code: impl CodeFn,
    ) -> Result<ThreadId, KernelError> {
        let opts = opts.into();
        let id = {
            let mut state = self.inner.lock();
            if state.shutdown {
                return Err(KernelError::Shutdown);
            }
            let id = state.alloc_thread_id();
            state
                .threads
                .insert(id, ThreadRec::new(opts.name.clone(), opts.priority, false));
            state.make_runnable(id);
            StatCounters::bump(&self.inner.stats.threads_spawned);
            self.inner.reschedule(&mut state);
            id
        };
        let inner = Arc::clone(&self.inner);
        let code = Box::new(code);
        let handle = std::thread::Builder::new()
            .name(format!("mbt-{}", opts.name))
            .spawn(move || thread_main(&inner, id, code))
            .expect("spawn backing OS thread");
        self.inner.joins.lock().push(handle);
        Ok(id)
    }

    /// Creates a mailbox for an OS thread outside the kernel (e.g. `main`
    /// in an example, or a network receiver). The port can send messages to
    /// kernel threads — including synchronously — and receive replies, but
    /// does not participate in kernel scheduling.
    #[must_use]
    pub fn external(&self, name: &str) -> ExternalPort {
        let id = {
            let mut state = self.inner.lock();
            let id = state.alloc_thread_id();
            state
                .threads
                .insert(id, ThreadRec::new(name.to_owned(), Priority::NORMAL, true));
            id
        };
        ExternalPort::new(self.clone(), id)
    }

    /// Raises a **construction barrier**: until the returned
    /// [`ClockHold`] is [released](ClockHold::release) (or dropped), the
    /// virtual clock will not jump to a timer deadline.
    ///
    /// This closes the virtual-clock construction race: a program that
    /// arms timers while an external thread is still spawning kernel
    /// threads would otherwise see the clock leap to the first deadline
    /// *between* spawns, making traces depend on how fast the spawning
    /// thread runs. Freeze the clock first, build the whole program,
    /// then release — every timer armed during construction fires
    /// relative to the same t=0 anchor, no matter how slowly the
    /// external thread assembled things. (The pipeline layer's explicit
    /// `start_flow` barrier is the same idea one level up; this makes
    /// raw mbthread programs deterministic by default.)
    ///
    /// Holds nest: the clock stays frozen until every hold is released.
    /// Under the real clock this is a no-op (wall time cannot be held
    /// back). Threads keep running and messages keep flowing while the
    /// clock is frozen — only the idle-time jump is gated.
    ///
    /// Do not call [`Kernel::wait_quiescent`] while a hold is alive and
    /// a timer is armed: quiescence then requires the very clock jump
    /// the hold forbids, so the wait cannot complete until the hold is
    /// released. Release first, then wait.
    pub fn freeze_clock(&self) -> ClockHold {
        {
            let mut state = self.inner.lock();
            state.clock_holds += 1;
        }
        ClockHold {
            kernel: self.clone(),
            released: false,
        }
    }

    /// Blocks the calling (non-kernel) thread until the kernel is idle: no
    /// thread running or runnable and no pending timer. Under the virtual
    /// clock this means all work that can happen has happened.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a kernel thread, which would deadlock.
    pub fn wait_quiescent(&self) {
        assert!(
            !on_kernel_thread(),
            "wait_quiescent must not be called from a kernel thread"
        );
        let mut state = self.inner.lock();
        state.quiescence_waiters += 1;
        while !(state.shutdown || state.is_idle()) {
            state.wait(&self.inner.cv_global);
        }
        state.quiescence_waiters -= 1;
    }

    /// A human-readable dump of every thread's state, for debugging
    /// deadlocks.
    #[must_use]
    pub fn thread_dump(&self) -> String {
        let state = self.inner.lock();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel @ {} (running: {:?})",
            self.inner.now(&state),
            state.running
        );
        for (id, rec) in &state.threads {
            let _ = writeln!(
                out,
                "  {id} {:24} {:?} queued={} wait={:?} sleeping={} cur={:?} ext={}",
                rec.name,
                rec.state,
                rec.mailbox.len(),
                rec.wait_spec(),
                rec.sleeping,
                rec.cur,
                rec.external,
            );
        }
        out
    }

    /// Shuts the kernel down: blocked operations in every thread return
    /// [`KernelError::Shutdown`], all backing OS threads are joined, and
    /// the dispatcher exits. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a kernel thread, or (re-)panics with
    /// the first panic message captured from a user thread.
    pub fn shutdown(&self) {
        assert!(
            !on_kernel_thread(),
            "shutdown must not be called from a kernel thread"
        );
        let panic_info = {
            let mut state = self.inner.lock();
            state.begin_shutdown();
            state.panic.clone()
        };
        let handles: Vec<_> = std::mem::take(&mut *self.inner.joins.lock());
        for handle in handles {
            let _ = handle.join();
        }
        if let Some((name, msg)) = panic_info {
            panic!("kernel thread '{name}' panicked: {msg}");
        }
    }
}

/// An active construction barrier from [`Kernel::freeze_clock`]: the
/// virtual clock cannot jump to a timer deadline while this (or any
/// other hold) is alive. Released explicitly with [`ClockHold::release`]
/// or implicitly on drop.
#[must_use = "the clock unfreezes when the hold is dropped"]
pub struct ClockHold {
    kernel: Kernel,
    released: bool,
}

impl ClockHold {
    /// Lowers the barrier. When the last hold is released the kernel
    /// resumes advancing virtual time normally.
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        let mut state = self.kernel.inner.lock();
        state.clock_holds = state.clock_holds.saturating_sub(1);
        // A clock hold was released: the dispatcher may now be allowed to
        // jump to the next deadline.
        state.wakes.dispatcher = true;
    }
}

impl Drop for ClockHold {
    fn drop(&mut self) {
        self.do_release();
    }
}

impl fmt::Debug for ClockHold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockHold")
            .field("released", &self.released)
            .finish()
    }
}

/// Main loop of a user-level thread's backing OS thread.
fn thread_main(inner: &Arc<KernelInner>, me: ThreadId, mut code: Box<dyn CodeFn>) {
    IS_KERNEL_THREAD.with(|c| c.set(true));
    let kernel = Kernel {
        inner: Arc::clone(inner),
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx::new(&kernel, me);
        // Wait to be scheduled for the first time.
        if ctx.park_initial().is_err() {
            return;
        }
        code.on_start(&mut ctx);
        while let Ok(env) = ctx.main_receive() {
            if code.on_message(&mut ctx, env) == Flow::Stop {
                break;
            }
        }
    }));

    let mut state = inner.lock();
    if let Err(payload) = result {
        let msg = panic_message(payload.as_ref());
        let name = state
            .rec(me)
            .map_or_else(|| me.to_string(), |r| r.name.clone());
        if state.panic.is_none() {
            state.panic = Some((name, msg));
        }
        // A panicking thread poisons the kernel: everything shuts down so
        // the failure is loud rather than a silent hang.
        state.begin_shutdown();
    }
    sched::terminate(&mut state, me);
    inner.reschedule(&mut state);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// The dispatcher: fires timers, advances virtual time when the kernel is
/// otherwise blocked, and grants the CPU when a timer made a thread runnable
/// while no user thread held it.
///
/// It sleeps on `cv_global` and is woken only for something it (or a
/// `wait_quiescent` caller sharing the condvar) acts on:
///
/// * the kernel went idle — no thread running, none runnable — and either
///   the clock is virtual with a timer to jump to, or a `wait_quiescent`
///   caller is registered ([`KernelInner::reschedule`]; the dispatcher does
///   the same when its own timer firing leaves the kernel quiescent),
/// * a timer was armed ([`KernelInner::arm_timer`]),
/// * a clock hold was released,
/// * shutdown began.
///
/// Sends, replies and CPU hand-offs between threads never wake it. Like
/// every OS wake in this crate, the notification is issued by [`KGuard`]
/// after the kernel mutex is released.
fn dispatcher_main(inner: &Arc<KernelInner>) {
    IS_KERNEL_THREAD.with(|c| c.set(true));
    let mut state = inner.lock();
    loop {
        if state.shutdown {
            // Wake everyone so blocked threads observe shutdown.
            state.begin_shutdown();
            return;
        }
        let now = inner.now(&state);
        let fired = sched::fire_due_timers(&mut state, &inner.stats, now);
        sched::dispatch(&mut state, &inner.cfg, &inner.stats);
        let idle = state.running.is_none();

        let slept = match (state.next_timer_deadline(), inner.cfg.clock) {
            // Everything is blocked and no construction barrier is up
            // (under one the program is still being assembled from outside,
            // so wait for the release instead): jump time forward to the
            // next deadline. This is the only place virtual time advances.
            (Some(at), ClockMode::Virtual) if idle && state.clock_holds == 0 => {
                state.vnow = state.vnow.max(at);
                continue;
            }
            (Some(at), ClockMode::Real) => {
                let dur = (at - now).max(Duration::from_micros(50));
                state.wait_for(&inner.cv_global, dur)
            }
            (pending, _) => {
                if idle && fired > 0 && pending.is_none() && state.quiescence_waiters > 0 {
                    // The last timer fired without making anything
                    // runnable: the kernel went idle here, not in a thread.
                    state.wakes.dispatcher = true;
                }
                state.wait(&inner.cv_global)
            }
        };
        if slept {
            StatCounters::bump(&inner.stats.dispatcher_wakeups);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, Tag};

    #[test]
    fn kernel_starts_and_shuts_down_cleanly() {
        let kernel = Kernel::new(KernelConfig::default());
        kernel.shutdown();
        assert!(kernel.inner.lock().shutdown);
        // Idempotent.
        kernel.shutdown();
    }

    #[test]
    fn spawn_after_shutdown_fails() {
        let kernel = Kernel::new(KernelConfig::default());
        kernel.shutdown();
        let err = kernel
            .spawn("late", |_: &mut Ctx<'_>, _| Flow::Stop)
            .unwrap_err();
        assert_eq!(err, KernelError::Shutdown);
    }

    #[test]
    fn debug_and_dump_are_nonempty() {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        kernel
            .spawn("idler", |_: &mut Ctx<'_>, _| Flow::Stop)
            .unwrap();
        kernel.wait_quiescent();
        assert!(format!("{kernel:?}").contains("Kernel"));
        assert!(kernel.thread_dump().contains("idler"));
        kernel.shutdown();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn user_thread_panic_is_reported_at_shutdown() {
        let kernel = Kernel::new(KernelConfig::default());
        let id = kernel
            .spawn("bomb", |_: &mut Ctx<'_>, _env| -> Flow { panic!("boom") })
            .unwrap();
        let port = kernel.external("main");
        port.send(id, Message::signal(Tag(0))).unwrap();
        // Let the bomb go off before collecting the report.
        kernel.wait_quiescent();
        kernel.shutdown();
    }
}
