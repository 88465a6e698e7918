//! The kernel: owns all threads, the clock, and the dispatcher.

use crate::clock::{ClockMode, Time};
use crate::constraint::Priority;
use crate::ctx::{Ctx, SpawnOptions};
use crate::error::KernelError;
use crate::external::ExternalPort;
use crate::sched::{self, KState, SchedConfig};
use crate::stats::{KernelStats, StatCounters};
use crate::thread::{CodeFn, Flow, PolledFn, ThreadId, ThreadRec};
use crate::timer::{TimerId, TimerKind};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
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

std::thread_local! {
    /// True while this OS thread polls a polled thread's body. A grant to a
    /// polled thread made in there needs no dispatcher: the poller looks
    /// at the CPU again as soon as the poll returns.
    static POLLING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub(crate) fn polling() -> bool {
    POLLING.with(|c| c.get())
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
    /// grants the queue front, though while `preemptive` is on a more
    /// urgent runnable thread still ends the running one's turn (the
    /// ablation in `infopipes-bench`'s `control_events_overtake_busy_sections`).
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
    /// The dispatcher sleeps on it; see [`dispatcher_main`] for when it
    /// is notified.
    cv_global: Condvar,
    /// [`Kernel::wait_quiescent`] callers sleep on it: notified when the
    /// kernel goes idle while one is registered, and at shutdown.
    cv_quiet: Condvar,
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
            state.wakes.dispatcher |= clock_may_jump;
            state.wakes.quiet |= state.quiescence_waiters > 0;
        }
    }

    /// Polls the thread holding the CPU for as long as it is a polled
    /// thread: the calling OS thread, which has nothing to run itself, runs
    /// it instead of waking another. Each poll runs with the mutex
    /// released, the wakes owed so far delivered first. A polled body
    /// that is away (another OS thread is polling it) is left to that
    /// thread, which looks at the CPU again when it puts the body back. An
    /// OS-backed thread that a poll granted the CPU is woken only then, so
    /// it never finds that body away. Returns whether anything was polled.
    pub(crate) fn poll_granted(&self, state: &mut KGuard<'_>) -> bool {
        let mut polled = false;
        while !state.shutdown {
            let Some(id) = state.running else { break };
            let Some(rec) = state.rec_mut(id).filter(|rec| rec.polled) else {
                break;
            };
            let body = rec.body.take();
            // This OS thread, or the one holding the body, polls it: the
            // dispatcher is not needed for it.
            state.wakes.poll = false;
            state.unpolled = false;
            let Some(mut body) = body else { break };
            polled = true;
            let outcome = state.unlocked(|| {
                let outer = POLLING.with(|c| c.replace(true));
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    body.as_mut().poll(&mut Context::from_waker(Waker::noop()))
                }));
                POLLING.with(|c| c.set(outer));
                outcome
            });
            match outcome {
                Ok(Poll::Pending) if !state.shutdown => {
                    if let Some(rec) = state.rec_mut(id) {
                        rec.body = Some(body);
                    }
                    // The poll may have granted an OS-backed thread the
                    // CPU: its wake waited until the body was back
                    // (`sched::grant_cpu`). A polled thread never parks.
                    if let Some(next) = state.running {
                        state.wake_if_parked(next);
                    }
                    continue;
                }
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(())) => {
                    sched::terminate(state, id);
                    self.reschedule(state);
                }
                Err(payload) => {
                    state.record_panic(id, payload.as_ref());
                    sched::terminate(state, id);
                    self.reschedule(state);
                }
            }
            // A body's drop may lock the kernel (a cancelled synchronous
            // send retires its reply token), and one that panicked may
            // panic again: the poller must survive it.
            let _ = state.unlocked(|| panic::catch_unwind(AssertUnwindSafe(|| drop(body))));
        }
        polled
    }

    /// Issues the wakes a critical section owed; the mutex is released.
    fn deliver(&self, wakes: sched::Wakes) {
        wakes.deliver(&self.cv_global, &self.cv_quiet, &self.stats);
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

    /// [`KGuard::wait`] (or, with a `timeout`, [`KGuard::wait_for`]) on
    /// thread `me`'s own condvar, counted in its [`ThreadRec::parked`] for
    /// exactly as long as the OS thread sleeps there: both the count and
    /// the wait are under the mutex, so a waker that finds it zero knows
    /// the thread will re-check its state before it sleeps.
    pub(crate) fn park(&mut self, me: ThreadId, cv: &Condvar, timeout: Option<Duration>) {
        if self.deliver_wakes() {
            return;
        }
        if let Some(rec) = self.rec_mut(me) {
            rec.parked += 1;
        }
        let guard = self.guard.as_mut().expect("guard held");
        match timeout {
            Some(timeout) => drop(cv.wait_for(guard, timeout)),
            None => cv.wait(guard),
        }
        if let Some(rec) = self.rec_mut(me) {
            rec.parked -= 1;
        }
    }

    /// Runs `f` with the mutex released, after delivering the wakes this
    /// critical section owes.
    pub(crate) fn unlocked<U>(&mut self, f: impl FnOnce() -> U) -> U {
        if self.wakes.is_empty() {
            return MutexGuard::unlocked(self.guard.as_mut().expect("guard held"), f);
        }
        let wakes = std::mem::take(&mut self.wakes);
        let inner = self.inner;
        MutexGuard::unlocked(self.guard.as_mut().expect("guard held"), || {
            inner.deliver(wakes);
            f()
        })
    }

    /// Records the first panic of a user thread and poisons the kernel:
    /// everything shuts down, so the failure is loud rather than a silent
    /// hang.
    fn record_panic(&mut self, me: ThreadId, payload: &(dyn std::any::Any + Send)) {
        let msg = panic_message(payload);
        let name = self
            .rec(me)
            .map_or_else(|| me.to_string(), |r| r.name.clone());
        if self.panic.is_none() {
            self.panic = Some((name, msg));
        }
        self.begin_shutdown();
    }

    fn deliver_wakes(&mut self) -> bool {
        let wakes = std::mem::take(&mut self.wakes);
        if wakes.is_empty() {
            return false;
        }
        let inner = self.inner;
        MutexGuard::unlocked(self.guard.as_mut().expect("guard held"), || {
            inner.deliver(wakes);
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
        if self.wakes.is_empty() {
            return;
        }
        let wakes = std::mem::take(&mut self.wakes);
        drop(self.guard.take());
        self.inner.deliver(wakes);
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
            .field("threads", &state.threads().count())
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
            cv_quiet: Condvar::new(),
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
            let id = state.add_thread(ThreadRec::new(opts.name.clone(), opts.priority, false));
            state.make_runnable(id);
            self.inner.stats.threads_spawned.bump(&mut state);
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

    /// Spawns a *polled* user-level thread running `code`: a kernel thread
    /// like any other — scheduled, granted the CPU and counted in context
    /// switches the same way — whose body is a future instead of an OS
    /// thread. Whichever kernel OS thread gives up the CPU to it polls it
    /// (the dispatcher, when it was granted from outside the kernel), so a
    /// hand-off to it costs no OS context switch. It has no start hook:
    /// its code runs from its first message on.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shutdown`] if the kernel is shutting down.
    pub fn spawn_polled(
        &self,
        opts: impl Into<SpawnOptions>,
        code: impl PolledFn,
    ) -> Result<ThreadId, KernelError> {
        let opts = opts.into();
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(KernelError::Shutdown);
        }
        let id = state.add_thread(ThreadRec::new(opts.name, opts.priority, false));
        let rec = state.rec_mut(id).expect("thread just added");
        rec.polled = true;
        rec.body = Some(Box::pin(polled_main(self.clone(), id, code)));
        state.make_runnable(id);
        self.inner.stats.threads_spawned.bump(&mut state);
        self.inner.reschedule(&mut state);
        Ok(id)
    }

    /// Creates a mailbox for an OS thread outside the kernel (e.g. `main`
    /// in an example, or a network receiver). The port can send messages to
    /// kernel threads — including synchronously — and receive replies, but
    /// does not participate in kernel scheduling.
    #[must_use]
    pub fn external(&self, name: &str) -> ExternalPort {
        let rec = ThreadRec::new(name.to_owned(), Priority::NORMAL, true);
        let id = self.inner.lock().add_thread(rec);
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
            state.wait(&self.inner.cv_quiet);
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
        for (id, rec) in state.threads() {
            let _ = writeln!(
                out,
                "  {id} {:24} {:?} queued={} wait={:?} sleeping={} cur={:?} ext={} polled={}",
                rec.name,
                rec.state,
                rec.mailbox.len(),
                rec.wait_spec(),
                rec.sleeping,
                rec.cur,
                rec.external,
                rec.polled,
            );
        }
        out
    }

    /// Shuts the kernel down: blocked operations in every thread return
    /// [`KernelError::Shutdown`], every suspended polled thread's body is
    /// dropped (outside the kernel mutex), all backing OS threads are
    /// joined, and the dispatcher exits. Idempotent.
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
        let (panic_info, bodies) = {
            let mut state = self.inner.lock();
            state.begin_shutdown();
            (state.panic.clone(), state.take_bodies())
        };
        // A body being polled right now is dropped by its poller, which
        // sees the shutdown when the poll returns.
        drop(bodies);
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
        state.record_panic(me, payload.as_ref());
    }
    sched::terminate(&mut state, me);
    inner.reschedule(&mut state);
}

/// The body of a polled thread: [`thread_main`]'s loop, suspending where
/// that one parks. Being polled at all means being granted the CPU, so
/// there is no initial wait.
async fn polled_main(kernel: Kernel, me: ThreadId, mut code: impl PolledFn) {
    let mut ctx = Ctx::new_polled(&kernel, me);
    while let Ok(env) = ctx.main_receive_async().await {
        if code.on_message(&mut ctx, env).await == Flow::Stop {
            break;
        }
    }
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
/// It sleeps on `cv_global`, which is its alone, and is woken only for
/// something it acts on:
///
/// * the kernel went idle — no thread running, none runnable — under the
///   virtual clock with a timer to jump to ([`KernelInner::reschedule`],
///   whose idle rule notifies `wait_quiescent` callers on `cv_quiet`
///   instead; the dispatcher does that when its own timer firing leaves
///   the kernel quiescent),
/// * a timer was armed ([`KernelInner::arm_timer`]),
/// * a clock hold was released,
/// * a polled thread was granted the CPU by a critical section that no
///   kernel OS thread follows with a poll: an [`ExternalPort`] send, a
///   spawn from outside the kernel, an OS-backed thread's exit,
/// * shutdown began.
///
/// Sends, replies and CPU hand-offs between threads never wake it, and
/// it polls only a thread that no other OS thread has looked at since its
/// grant (`KState::unpolled`). Like every OS wake in this crate, the
/// notification is issued by [`KGuard`] after the kernel mutex is
/// released.
fn dispatcher_main(inner: &Arc<KernelInner>) {
    IS_KERNEL_THREAD.with(|c| c.set(true));
    let mut state = inner.lock();
    loop {
        if state.shutdown {
            // Wake everyone so blocked threads observe shutdown.
            state.begin_shutdown();
            let bodies = state.take_bodies();
            drop(state);
            drop(bodies);
            return;
        }
        let now = inner.now(&state);
        let fired = sched::fire_due_timers(&mut state, &inner.stats, now);
        sched::dispatch(&mut state, &inner.cfg, &inner.stats);
        // A polled thread granted from outside the kernel, or by a timer
        // fired here, has no OS thread but this one to run on. One that
        // another OS thread has looked at since its grant is that thread's.
        if state.unpolled && inner.poll_granted(&mut state) {
            continue;
        }
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
                    state.wakes.quiet = true;
                }
                state.wait(&inner.cv_global)
            }
        };
        if slept {
            inner.stats.dispatcher_wakeups.bump(&mut state);
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
