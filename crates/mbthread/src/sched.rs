//! Scheduler internals: kernel state, effective-constraint computation,
//! dispatch, message enqueueing, and timer firing.
//!
//! All of this runs under the single kernel mutex, which is what gives the
//! package its uniprocessor semantics: at most one user thread executes at
//! any instant, and every scheduling decision is a serialized state
//! transition. Nothing here wakes an OS thread: a transition that needs
//! one records it in [`KState::wakes`], and the kernel guard delivers it
//! after the mutex is released.
//!
//! A hand-off does only the work it needs, whatever the size of the
//! thread table:
//!
//! * **The pick walks the runnable queue, not the thread table.**
//!   [`KState`] keeps the threads that want the CPU in the order they
//!   became runnable. A lone candidate is the pick under every policy, so
//!   effective constraints are computed only when two or more threads want
//!   the CPU; with `priority_scheduling` off the pick is the queue front.
//! * **Donation follows waiter lists.** Each thread lists the threads
//!   blocked on it in a synchronous send, so [`effective`] visits the
//!   donors only, up to `MAX_DONATION_DEPTH` deep.
//! * **An OS thread is woken only while it sleeps.** A grant to an
//!   OS-backed thread, a message for an external port and a peer's
//!   termination notify the thread's condvar only when it is parked on it
//!   ([`ThreadRec::parked`]). The flag is read under the mutex and the
//!   notification is sent after unlock; a thread that is not parked
//!   re-checks its state under the mutex before it sleeps. So a hand-off
//!   back to the OS thread that polled the yielding thread costs no
//!   syscall. A grant made inside a poll leaves the wake to the poller,
//!   which issues it once it has put the polled body back: woken sooner,
//!   the thread could hand the CPU straight back to the polled thread,
//!   find its body away and go back to sleep, and the poller would go on
//!   polling for it, one wake per hand-off.
//! * **The bookkeeping takes no lock but the kernel mutex.** The kernel
//!   counters bumped here have one writer, the holder of the mutex, and
//!   are advanced by a relaxed load and a store
//!   ([`Counter::bump`](crate::stats::Counter::bump) needs the `&mut`
//!   [`KState`] that the mutex guard gives); `Kernel::stats` reads them
//!   without the mutex, so a snapshot may tear across fields. Only
//!   `os_wakes`, counted in [`Wakes::deliver`] after unlock, is an atomic
//!   add.
//! * **A reply token lives with its requester.** A synchronous send
//!   pushes its token into the sender's [`ThreadRec::outstanding`]; the
//!   reply retires it from there ([`KState::retire_token`]), and one that
//!   finds it gone is stale. A cancelled wait, a port's finished
//!   `send_sync` and a wait that ends in `PeerGone` retire it too.
//!   Nothing is hashed.

use crate::clock::{ClockMode, Time};
use crate::constraint::{Constraint, Priority};
use crate::error::SendError;
use crate::kernel::polling;
use crate::message::{Envelope, Message, ReplyToken};
use crate::stats::StatCounters;
use crate::thread::{Body, RunState, ThreadId, ThreadRec};
use crate::timer::{TimerEntry, TimerId, TimerKey, TimerKind};
use parking_lot::Condvar;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as MemOrdering};
use std::sync::Arc;

/// OS wakes a critical section has produced but not yet issued. A hand-off
/// produces at most one (none when the thread granted the CPU is polled,
/// or its OS thread is awake), which lives in the inline slot, so the
/// message path never allocates here.
#[derive(Default)]
pub(crate) struct Wakes {
    /// Notify `cv_global`: the dispatcher.
    pub(crate) dispatcher: bool,
    /// Notify `cv_quiet`: [`Kernel::wait_quiescent`](crate::Kernel::wait_quiescent)
    /// callers.
    pub(crate) quiet: bool,
    /// A polled thread was granted the CPU outside a poll. An OS thread
    /// that polls it itself clears this (`KernelInner::poll_granted`);
    /// otherwise the dispatcher is woken to poll it. A grant made inside a
    /// poll does not set it: the poller is there.
    pub(crate) poll: bool,
    first: Option<OsWake>,
    rest: Vec<OsWake>,
}

/// One condvar to notify: a kernel thread's has one sleeper at most, a
/// port's or a shutdown's may have more.
struct OsWake {
    cv: Arc<Condvar>,
    all: bool,
}

impl Wakes {
    fn push(&mut self, cv: Arc<Condvar>, all: bool) {
        let wake = OsWake { cv, all };
        if self.first.is_none() {
            self.first = Some(wake);
        } else {
            self.rest.push(wake);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        !self.dispatcher && !self.quiet && !self.poll && self.first.is_none()
    }

    /// Issues the wakes, counting each condvar notification in
    /// `os_wakes`. Must be called with the kernel mutex released, so a
    /// woken thread finds it free.
    pub(crate) fn deliver(self, cv_global: &Condvar, cv_quiet: &Condvar, stats: &StatCounters) {
        for wake in self.first.iter().chain(&self.rest) {
            stats.os_wake();
            if wake.all {
                wake.cv.notify_all();
            } else {
                wake.cv.notify_one();
            }
        }
        if self.dispatcher || self.poll {
            // Requested by the idle rule under the virtual clock, a timer
            // arming, a clock-hold release or shutdown (the sites that set
            // `wakes.dispatcher`),
            // or a polled thread granted the CPU with no OS thread there
            // to poll it.
            stats.os_wake();
            cv_global.notify_all();
        }
        if self.quiet {
            // The kernel went idle with a waiter registered, or shut down.
            stats.os_wake();
            cv_quiet.notify_all();
        }
    }
}

/// Everything the scheduler knows, guarded by the kernel mutex.
pub(crate) struct KState {
    /// Every thread ever created, indexed by its id: ids are dense and
    /// never reused, and a terminated thread's record stays (`Done`).
    threads: Vec<ThreadRec>,
    pub(crate) running: Option<ThreadId>,
    /// Previous occupant of the CPU, for context-switch counting.
    pub(crate) last_running: Option<ThreadId>,
    pub(crate) shutdown: bool,
    /// Current virtual time (ignored under the real clock).
    pub(crate) vnow: Time,
    /// Active construction barriers ([`Kernel::freeze_clock`]): while
    /// nonzero the virtual clock must not jump to a timer deadline, so a
    /// program can finish spawning threads and arming timers from
    /// external threads without racing the clock.
    pub(crate) clock_holds: u32,
    pub(crate) next_token: u64,
    pub(crate) next_timer: u64,
    pub(crate) send_seq: u64,
    pub(crate) ready_seq: u64,
    /// Exactly the threads that want the CPU ([`ThreadRec::wants_cpu`]),
    /// in `ready_seq` order: each is appended when it becomes runnable and
    /// removed when it is granted the CPU or terminates.
    runq: VecDeque<ThreadId>,
    pub(crate) timers: BinaryHeap<TimerKey>,
    pub(crate) timer_entries: HashMap<u64, TimerEntry>,
    /// First panic observed in a user thread (name, message).
    pub(crate) panic: Option<(String, String)>,
    /// Threads inside [`Kernel::wait_quiescent`]; while nonzero, going idle
    /// notifies `cv_quiet`.
    pub(crate) quiescence_waiters: u32,
    /// A polled thread was granted the CPU outside a poll and no OS thread
    /// has looked at it since: set with [`Wakes::poll`], cleared by
    /// `KernelInner::poll_granted`. The dispatcher polls only while it is
    /// set, so neither its OS thread's first run nor a wake-up that reaches
    /// it late takes over a hand-off that its poller is about to poll.
    pub(crate) unpolled: bool,
    /// Wakes owed to OS threads once the kernel mutex is released.
    pub(crate) wakes: Wakes,
    /// Changes whenever something happens that the running thread may have
    /// to give way to: a mailbox gains an envelope, a thread becomes
    /// runnable, shutdown begins. Written under the kernel mutex only;
    /// [`Ctx::undisturbed`](crate::Ctx::undisturbed) reads it without.
    pub(crate) generation: Arc<AtomicU64>,
}

impl KState {
    pub(crate) fn new() -> Self {
        KState {
            threads: Vec::new(),
            running: None,
            last_running: None,
            shutdown: false,
            vnow: Time::ZERO,
            clock_holds: 0,
            next_token: 0,
            next_timer: 0,
            send_seq: 0,
            ready_seq: 0,
            runq: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_entries: HashMap::new(),
            panic: None,
            quiescence_waiters: 0,
            unpolled: false,
            wakes: Wakes::default(),
            generation: Arc::default(),
        }
    }

    /// Moves [`KState::generation`] on. Writers hold the kernel mutex, so
    /// a load and a store do; `Release` pairs with the `Acquire` load in
    /// `Ctx::undisturbed`, which reads what changed under the mutex.
    pub(crate) fn disturb(&self) {
        let next = self.generation.load(MemOrdering::Relaxed).wrapping_add(1);
        self.generation.store(next, MemOrdering::Release);
    }

    /// Enters a new thread's record under the next id.
    pub(crate) fn add_thread(&mut self, rec: ThreadRec) -> ThreadId {
        let id = ThreadId(self.threads.len() as u64);
        self.threads.push(rec);
        id
    }

    pub(crate) fn rec(&self, id: ThreadId) -> Option<&ThreadRec> {
        self.threads.get(usize::try_from(id.0).ok()?)
    }

    pub(crate) fn rec_mut(&mut self, id: ThreadId) -> Option<&mut ThreadRec> {
        self.threads.get_mut(usize::try_from(id.0).ok()?)
    }

    /// Every thread record, in id order.
    pub(crate) fn threads(&self) -> impl Iterator<Item = (ThreadId, &ThreadRec)> {
        (0u64..).map(ThreadId).zip(&self.threads)
    }

    /// Marks a blocked or freshly created thread ready to run.
    pub(crate) fn make_runnable(&mut self, id: ThreadId) {
        debug_assert!(
            self.rec(id)
                .is_none_or(|rec| rec.state != RunState::Running),
            "make_runnable on running thread {id}"
        );
        self.queue_ready(id);
    }

    /// Puts a thread that is not `Done` at the back of the runnable queue,
    /// stamped with the next `ready_seq`, and disturbs the running thread.
    pub(crate) fn queue_ready(&mut self, id: ThreadId) {
        self.disturb();
        let seq = self.ready_seq;
        self.ready_seq += 1;
        let Some(rec) = self.rec_mut(id) else { return };
        if rec.state == RunState::Done {
            return;
        }
        debug_assert!(rec.state != RunState::Runnable, "{id} queued twice");
        rec.state = RunState::Runnable;
        rec.receive_blocked = false;
        rec.ready_seq = seq;
        if rec.wants_cpu() {
            self.runq.push_back(id);
        }
    }

    /// Notifies the OS thread(s) parked on `id`'s condvar, once the mutex
    /// is released; nothing if none is parked.
    pub(crate) fn wake_if_parked(&mut self, id: ThreadId) {
        // `threads` is indexed directly so `wakes` can be borrowed beside it.
        let Some(rec) = usize::try_from(id.0).ok().and_then(|i| self.threads.get(i)) else {
            return;
        };
        if rec.parked > 0 {
            self.wakes.push(Arc::clone(&rec.cv), rec.external);
        }
    }

    /// Records that `from` waits for a reply from `to`, in both records.
    pub(crate) fn wait_for_reply(&mut self, from: ThreadId, to: ThreadId) {
        self.end_wait(from);
        let Some(rec) = self.rec_mut(from) else {
            return;
        };
        rec.waiting_on = Some(to);
        if let Some(target) = self.rec_mut(to) {
            target.waiters.push(from);
        }
    }

    /// Ends `id`'s wait for a reply, if any: it stops donating its urgency.
    pub(crate) fn end_wait(&mut self, id: ThreadId) {
        let Some(to) = self.rec_mut(id).and_then(|rec| rec.waiting_on.take()) else {
            return;
        };
        if let Some(target) = self.rec_mut(to) {
            if let Some(pos) = target.waiters.iter().position(|&w| w == id) {
                target.waiters.swap_remove(pos);
            }
        }
    }

    /// Retires `requester`'s reply token `token`: the reply is sent, or
    /// no longer awaited. Returns whether it was still outstanding.
    pub(crate) fn retire_token(&mut self, requester: ThreadId, token: u64) -> bool {
        self.rec_mut(requester)
            .is_some_and(|rec| rec.retire_token(token))
    }

    /// Cancels `me`'s synchronous send of `token` to `to` (a dropped
    /// `PendingReply`): retires the token, ends the wait if it is still
    /// on `to`, and discards a reply that already landed.
    pub(crate) fn cancel_wait(&mut self, me: ThreadId, to: ThreadId, token: u64) {
        self.retire_token(me, token);
        if self.rec(me).is_some_and(|rec| rec.waiting_on == Some(to)) {
            self.end_wait(me);
        }
        if let Some(rec) = self.rec_mut(me) {
            let token = ReplyToken(token);
            rec.mailbox.retain(|env| env.in_reply != Some(token));
        }
    }

    /// The earliest pending (non-cancelled) timer deadline.
    pub(crate) fn next_timer_deadline(&mut self) -> Option<Time> {
        while let Some(top) = self.timers.peek() {
            match self.timer_entries.get(&top.id.0) {
                Some(entry) if !entry.cancelled => return Some(top.at),
                _ => {
                    // Cancelled or already fired: discard lazily.
                    let key = self.timers.pop().expect("peeked entry exists");
                    self.timer_entries.remove(&key.id.0);
                }
            }
        }
        None
    }

    pub(crate) fn has_runnable(&self) -> bool {
        !self.runq.is_empty()
    }

    /// True when nothing can make progress without external input: no
    /// thread running or runnable and no pending timers.
    pub(crate) fn is_idle(&mut self) -> bool {
        self.running.is_none() && !self.has_runnable() && self.next_timer_deadline().is_none()
    }

    /// Wraps `msg` in an envelope carrying the next send sequence number.
    pub(crate) fn stamp(
        &mut self,
        from: Option<ThreadId>,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> Envelope {
        let seq = self.send_seq;
        self.send_seq += 1;
        Envelope {
            from,
            msg,
            constraint,
            reply_to: None,
            in_reply: None,
            seq,
        }
    }

    /// Takes every suspended polled thread's body, for the caller to drop
    /// once the kernel mutex is released: a body's drop may lock it.
    pub(crate) fn take_bodies(&mut self) -> Vec<Body> {
        self.threads
            .iter_mut()
            .filter_map(|rec| rec.body.take())
            .collect()
    }

    /// Starts shutdown: every OS thread, parked or about to park, is
    /// woken to observe it.
    pub(crate) fn begin_shutdown(&mut self) {
        self.shutdown = true;
        self.disturb();
        for rec in &self.threads {
            self.wakes.push(Arc::clone(&rec.cv), true);
        }
        self.wakes.dispatcher = true;
        self.wakes.quiet = true;
    }
}

/// Scheduler behaviour switches (a copy of the user-facing config).
#[derive(Copy, Clone, Debug)]
pub(crate) struct SchedConfig {
    pub(crate) clock: ClockMode,
    pub(crate) priority_inheritance: bool,
    pub(crate) preemptive: bool,
    pub(crate) priority_scheduling: bool,
}

/// How many threads deep a donation chain is followed.
const MAX_DONATION_DEPTH: usize = 16;

/// Computes the effective constraint of a thread per §4 of the paper:
/// the constraint of the message currently being processed, or — while the
/// thread waits for the CPU — the constraint of the first queued message;
/// with priority inheritance, additionally the most urgent constraint among
/// all queued messages and among threads synchronously waiting on this one.
pub(crate) fn effective(state: &KState, cfg: &SchedConfig, id: ThreadId) -> Constraint {
    effective_along(state, cfg, id, &mut [id; MAX_DONATION_DEPTH], 0)
}

/// [`effective`] for the thread at the end of the donation chain
/// `chain[..depth]`.
fn effective_along(
    state: &KState,
    cfg: &SchedConfig,
    id: ThreadId,
    chain: &mut [ThreadId; MAX_DONATION_DEPTH],
    depth: usize,
) -> Constraint {
    let Some(rec) = state.rec(id) else {
        return Constraint::priority(Priority::LOW);
    };
    let mut eff = Constraint::priority(rec.static_pri);
    if rec.processing {
        if let Some(cur) = rec.cur {
            eff = eff.max_urgency(cur);
        }
    } else if rec.state == RunState::Runnable {
        // Waiting for the CPU with no message in progress: the head of the
        // incoming queue determines urgency.
        if let Some(c) = rec.mailbox.front().and_then(|e| e.constraint()) {
            eff = eff.max_urgency(c);
        }
    }
    if cfg.priority_inheritance {
        // Queue-based inheritance: a more urgent queued message raises the
        // thread processing a less urgent one.
        for env in &rec.mailbox {
            if let Some(c) = env.constraint() {
                eff = eff.max_urgency(c);
            }
        }
        // Donation chains: threads blocked on us in a synchronous send lend
        // us their urgency (classic priority inheritance).
        if depth < MAX_DONATION_DEPTH && !chain[..depth].contains(&id) {
            chain[depth] = id;
            for &waiter in &rec.waiters {
                let donated = effective_along(state, cfg, waiter, chain, depth + 1);
                eff = eff.max_urgency(donated);
            }
        }
    }
    eff
}

/// Picks the next thread to run: most urgent effective constraint first,
/// FIFO among equals. With `priority_scheduling` off, pure FIFO by the
/// moment each thread became runnable (the ablation in `infopipes-bench`'s
/// `control_events_overtake_busy_sections`). A lone candidate
/// is picked without computing its effective constraint.
pub(crate) fn pick_next(state: &KState, cfg: &SchedConfig) -> Option<ThreadId> {
    let mut queue = state.runq.iter().copied();
    let front = queue.next()?;
    if queue.len() == 0 || !cfg.priority_scheduling {
        return Some(front);
    }
    let mut best = (front, effective(state, cfg, front));
    for id in queue {
        let eff = effective(state, cfg, id);
        // The queue is in `ready_seq` order: a tie keeps the earlier one.
        if eff.urgency_cmp(&best.1) == Ordering::Greater {
            best = (id, eff);
        }
    }
    Some(best.0)
}

/// Whether a thread more urgent than `me`, the running thread, wants the
/// CPU (with preemption configured).
pub(crate) fn preempted(state: &KState, cfg: &SchedConfig, me: ThreadId) -> bool {
    if !cfg.preemptive || state.running != Some(me) || state.runq.is_empty() {
        return false;
    }
    let mine = effective(state, cfg, me);
    state
        .runq
        .iter()
        .any(|&id| id != me && effective(state, cfg, id).urgency_cmp(&mine) == Ordering::Greater)
}

/// Hands the CPU to `id`: marks it running and, outside a poll, records
/// the wake its OS thread is owed if it is parked, or for a polled thread
/// that it needs a poller. A grant to a different thread is a context
/// switch, whatever backs it.
pub(crate) fn grant_cpu(state: &mut KState, stats: &StatCounters, id: ThreadId) {
    debug_assert!(state.running.is_none());
    if state.last_running != Some(id) {
        stats.context_switches.bump(state);
        state.last_running = Some(id);
    }
    state.running = Some(id);
    if let Some(pos) = state.runq.iter().position(|&t| t == id) {
        state.runq.remove(pos);
    }
    let rec = state.rec_mut(id).expect("granted thread exists");
    rec.state = RunState::Running;
    // Inside a poll, the poller polls a polled thread next, and wakes an
    // OS-backed one once it has put the body back (`poll_granted`).
    if polling() {
        return;
    }
    if rec.polled {
        state.wakes.poll = true;
        state.unpolled = true;
    } else {
        state.wake_if_parked(id);
    }
}

/// If the CPU is free, dispatches the best runnable thread. Called (after
/// firing due timers) whenever a thread gives up the CPU, when an external
/// thread makes one runnable, and by the dispatcher.
pub(crate) fn dispatch(state: &mut KState, cfg: &SchedConfig, stats: &StatCounters) {
    if state.running.is_none() && !state.shutdown {
        if let Some(next) = pick_next(state, cfg) {
            grant_cpu(state, stats, next);
        }
    }
}

/// Fires every timer whose deadline has passed; returns how many fired.
pub(crate) fn fire_due_timers(state: &mut KState, stats: &StatCounters, now: Time) -> usize {
    let mut fired = 0;
    loop {
        let due = match state.timers.peek() {
            Some(top) if top.at <= now => *top,
            _ => break,
        };
        state.timers.pop();
        let Some(entry) = state.timer_entries.remove(&due.id.0) else {
            continue;
        };
        if entry.cancelled {
            continue;
        }
        stats.timer_fires.bump(state);
        fired += 1;
        match entry.kind {
            TimerKind::Wake(id) => {
                let asleep = state
                    .rec(id)
                    .is_some_and(|r| r.sleeping && r.state == RunState::Blocked);
                if asleep {
                    if let Some(rec) = state.rec_mut(id) {
                        rec.sleeping = false;
                    }
                    state.make_runnable(id);
                }
            }
            TimerKind::Deliver {
                to,
                msg,
                constraint,
            } => {
                let env = state.stamp(None, msg, constraint);
                // A dead target silently drops the delivery.
                let _ = enqueue(state, stats, to, env);
            }
        }
    }
    fired
}

/// Appends an envelope to `to`'s mailbox and makes the target runnable if
/// it is blocked on a matching receive.
pub(crate) fn enqueue(
    state: &mut KState,
    stats: &StatCounters,
    to: ThreadId,
    env: Envelope,
) -> Result<(), SendError> {
    if state.shutdown {
        return Err(SendError::Shutdown);
    }
    let rec = state.rec_mut(to).ok_or(SendError::UnknownThread(to))?;
    if rec.state == RunState::Done {
        return Err(SendError::UnknownThread(to));
    }
    let external = rec.external;
    let runnable = !external
        && rec.state == RunState::Blocked
        && !rec.sleeping
        && rec.wait_spec().is_some_and(|spec| spec.matches(&env));
    rec.mailbox.push_back(env);
    stats.messages_sent.bump(state);
    if runnable {
        // Disturbs the running thread as well.
        state.make_runnable(to);
    } else {
        if external {
            // External ports are OS threads waiting on their own condvar;
            // they are not scheduled, just notified if asleep.
            state.wake_if_parked(to);
        }
        state.disturb();
    }
    Ok(())
}

/// Enqueues `msg` for `to` as a synchronous request from `from` and
/// registers the wait (the reply token, kept in the requester's record,
/// and priority donation); returns the token.
pub(crate) fn enqueue_request(
    state: &mut KState,
    stats: &StatCounters,
    from: ThreadId,
    to: ThreadId,
    msg: Message,
    constraint: Option<Constraint>,
) -> Result<u64, SendError> {
    let token = state.next_token;
    state.next_token += 1;
    let mut env = state.stamp(Some(from), msg, constraint);
    env.reply_to = Some(ReplyToken(token));
    enqueue(state, stats, to, env)?;
    stats.sync_sends.bump(state);
    if let Some(rec) = state.rec_mut(from) {
        rec.outstanding.push(token);
    }
    state.wait_for_reply(from, to);
    Ok(token)
}

/// Creates a timer entry and registers it.
pub(crate) fn add_timer(state: &mut KState, at: Time, kind: TimerKind) -> TimerId {
    let id = TimerId(state.next_timer);
    state.next_timer += 1;
    state.timers.push(TimerKey { at, id });
    state.timer_entries.insert(
        id.0,
        TimerEntry {
            kind,
            cancelled: false,
        },
    );
    id
}

/// Cancels a pending timer; returns whether it was still pending.
pub(crate) fn cancel_timer(state: &mut KState, id: TimerId) -> bool {
    match state.timer_entries.get_mut(&id.0) {
        Some(entry) if !entry.cancelled => {
            entry.cancelled = true;
            true
        }
        _ => false,
    }
}

/// Terminates a thread: releases the CPU if it held it, and fails any
/// synchronous senders blocked on it.
pub(crate) fn terminate(state: &mut KState, id: ThreadId) {
    if state.running == Some(id) {
        state.running = None;
    }
    let Some(rec) = state.rec_mut(id) else { return };
    let queued = rec.wants_cpu();
    rec.state = RunState::Done;
    rec.receive_blocked = false;
    rec.mailbox.clear();
    // Its waiters stay listed (each ends its own wait when it takes
    // `peer_gone`); the blocked ones are woken to take it.
    let mut orphans = std::mem::take(&mut rec.waiters);
    if queued {
        state.runq.retain(|&t| t != id);
    }
    orphans.sort_unstable();
    for &w in &orphans {
        let Some(rec) = state.rec_mut(w).filter(|r| r.state == RunState::Blocked) else {
            continue;
        };
        rec.peer_gone = Some(id);
        if rec.external {
            state.wake_if_parked(w);
        } else {
            state.make_runnable(w);
        }
    }
    if let Some(rec) = state.rec_mut(id) {
        rec.waiters = orphans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, SpecRef, Tag};

    fn cfg() -> SchedConfig {
        SchedConfig {
            clock: ClockMode::Virtual,
            priority_inheritance: true,
            preemptive: true,
            priority_scheduling: true,
        }
    }

    fn spawn_rec(state: &mut KState, pri: Priority) -> ThreadId {
        let name = format!("t{}", state.threads.len());
        let id = state.add_thread(ThreadRec::new(name, pri, false));
        state.make_runnable(id);
        id
    }

    /// Blocks the runnable thread `id` as a receive does: it is granted the
    /// CPU, then gives it up blocked.
    fn block(state: &mut KState, id: ThreadId) {
        grant_cpu(state, &StatCounters::default(), id);
        state.rec_mut(id).unwrap().state = RunState::Blocked;
        state.running = None;
    }

    #[test]
    fn pick_prefers_higher_priority() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        let low = spawn_rec(&mut state, Priority::LOW);
        let high = spawn_rec(&mut state, Priority::HIGH);
        assert_eq!(pick_next(&state, &cfg()), Some(high));
        grant_cpu(&mut state, &stats, high);
        assert_eq!(state.running, Some(high));
        assert_eq!(pick_next(&state, &cfg()), Some(low));
    }

    #[test]
    fn pick_is_fifo_among_equal_priorities() {
        let mut state = KState::new();
        let first = spawn_rec(&mut state, Priority::NORMAL);
        let _second = spawn_rec(&mut state, Priority::NORMAL);
        assert_eq!(pick_next(&state, &cfg()), Some(first));
    }

    #[test]
    fn fifo_mode_ignores_priorities() {
        let mut state = KState::new();
        let low_first = spawn_rec(&mut state, Priority::LOW);
        let _high_later = spawn_rec(&mut state, Priority::HIGH);
        let mut c = cfg();
        c.priority_scheduling = false;
        assert_eq!(pick_next(&state, &c), Some(low_first));
    }

    #[test]
    fn queued_message_constraint_raises_effective_priority() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        let t = spawn_rec(&mut state, Priority::LOW);
        let env = Envelope {
            from: None,
            msg: Message::signal(Tag(1)),
            constraint: Some(Constraint::priority(Priority::CONTROL)),
            reply_to: None,
            in_reply: None,
            seq: 0,
        };
        enqueue(&mut state, &stats, t, env).unwrap();
        let eff = effective(&state, &cfg(), t);
        assert_eq!(eff.priority, Priority::CONTROL);

        // Without inheritance the head-of-queue rule still applies while
        // waiting for the CPU.
        let mut c = cfg();
        c.priority_inheritance = false;
        let eff = effective(&state, &c, t);
        assert_eq!(eff.priority, Priority::CONTROL);
    }

    #[test]
    fn inheritance_covers_non_head_messages_only_when_enabled() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        let t = spawn_rec(&mut state, Priority::LOW);
        // Mark the thread as processing a NORMAL message, with a CONTROL
        // message queued behind it.
        state.rec_mut(t).unwrap().cur = Some(Constraint::priority(Priority::NORMAL));
        state.rec_mut(t).unwrap().processing = true;
        let env = Envelope {
            from: None,
            msg: Message::signal(Tag(1)),
            constraint: Some(Constraint::priority(Priority::CONTROL)),
            reply_to: None,
            in_reply: None,
            seq: 0,
        };
        enqueue(&mut state, &stats, t, env).unwrap();

        let eff_pi = effective(&state, &cfg(), t);
        assert_eq!(eff_pi.priority, Priority::CONTROL);

        let mut c = cfg();
        c.priority_inheritance = false;
        let eff_nopi = effective(&state, &c, t);
        assert_eq!(eff_nopi.priority, Priority::NORMAL);
    }

    #[test]
    fn donation_flows_through_sync_waits() {
        let mut state = KState::new();
        let holder = spawn_rec(&mut state, Priority::LOW);
        let waiter = spawn_rec(&mut state, Priority::HIGH);
        block(&mut state, waiter);
        state.wait_for_reply(waiter, holder);
        let eff = effective(&state, &cfg(), holder);
        assert_eq!(eff.priority, Priority::HIGH);

        let mut c = cfg();
        c.priority_inheritance = false;
        let eff = effective(&state, &c, holder);
        assert_eq!(eff.priority, Priority::LOW);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        let t = spawn_rec(&mut state, Priority::NORMAL);
        block(&mut state, t);
        state.rec_mut(t).unwrap().sleeping = true;

        let early = add_timer(&mut state, Time::from_millis(1), TimerKind::Wake(t));
        let _late = add_timer(
            &mut state,
            Time::from_millis(5),
            TimerKind::Deliver {
                to: t,
                msg: Message::signal(Tag(9)),
                constraint: None,
            },
        );
        assert_eq!(state.next_timer_deadline(), Some(Time::from_millis(1)));
        assert!(cancel_timer(&mut state, early));
        assert!(!cancel_timer(&mut state, early));
        assert_eq!(state.next_timer_deadline(), Some(Time::from_millis(5)));

        fire_due_timers(&mut state, &stats, Time::from_millis(10));
        // The wake was cancelled, so the thread still sleeps, but the
        // delivery landed in its mailbox.
        assert!(state.rec(t).unwrap().sleeping);
        assert_eq!(state.rec(t).unwrap().mailbox.len(), 1);
        assert_eq!(state.next_timer_deadline(), None);
    }

    #[test]
    fn terminate_fails_sync_waiters() {
        let mut state = KState::new();
        let dead = spawn_rec(&mut state, Priority::NORMAL);
        let waiter = spawn_rec(&mut state, Priority::NORMAL);
        block(&mut state, waiter);
        state.wait_for_reply(waiter, dead);
        terminate(&mut state, dead);
        assert_eq!(state.rec(waiter).unwrap().peer_gone, Some(dead));
        assert_eq!(state.rec(waiter).unwrap().state, RunState::Runnable);
        assert_eq!(state.rec(dead).unwrap().state, RunState::Done);
    }

    #[test]
    fn lone_runnable_thread_is_picked() {
        let mut state = KState::new();
        let blocked = spawn_rec(&mut state, Priority::CONTROL);
        block(&mut state, blocked);
        let lone = spawn_rec(&mut state, Priority::LOW);
        assert_eq!(pick_next(&state, &cfg()), Some(lone));
        block(&mut state, lone);
        assert_eq!(pick_next(&state, &cfg()), None);
    }

    #[test]
    fn done_thread_record_stays_addressable() {
        let mut state = KState::new();
        let done = spawn_rec(&mut state, Priority::NORMAL);
        let live = spawn_rec(&mut state, Priority::NORMAL);
        terminate(&mut state, done);
        assert_eq!(state.rec(done).unwrap().state, RunState::Done);
        assert_eq!(state.rec(done).unwrap().name, "t0");
        let ids: Vec<ThreadId> = state.threads().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![done, live]);
        assert_eq!(pick_next(&state, &cfg()), Some(live));
    }

    #[test]
    fn enqueue_past_the_table_fails() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        spawn_rec(&mut state, Priority::NORMAL);
        let unknown = ThreadId::from_raw(1);
        let env = state.stamp(None, Message::signal(Tag(0)), None);
        assert_eq!(
            enqueue(&mut state, &stats, unknown, env).unwrap_err(),
            SendError::UnknownThread(unknown)
        );
        assert!(state.rec(ThreadId::from_raw(u64::MAX)).is_none());
    }

    #[test]
    fn enqueue_to_done_thread_fails() {
        let mut state = KState::new();
        let stats = StatCounters::default();
        let t = spawn_rec(&mut state, Priority::NORMAL);
        terminate(&mut state, t);
        let env = Envelope {
            from: None,
            msg: Message::signal(Tag(0)),
            constraint: None,
            reply_to: None,
            in_reply: None,
            seq: 0,
        };
        assert_eq!(
            enqueue(&mut state, &stats, t, env).unwrap_err(),
            SendError::UnknownThread(t)
        );
    }

    /// The scheduler this module's runnable queue and waiter lists
    /// replaced: a full scan of the thread table for every pick, and of
    /// the table again for the donors at each level of a donation chain.
    /// Kept here only as the reference the property test holds the
    /// scheduler to.
    mod full_scan {
        use super::super::{KState, SchedConfig, MAX_DONATION_DEPTH};
        use crate::constraint::{Constraint, Priority};
        use crate::thread::{RunState, ThreadId};
        use std::cmp::Ordering;

        pub(super) fn effective(state: &KState, cfg: &SchedConfig, id: ThreadId) -> Constraint {
            effective_along(state, cfg, id, &mut [id; MAX_DONATION_DEPTH], 0)
        }

        fn effective_along(
            state: &KState,
            cfg: &SchedConfig,
            id: ThreadId,
            chain: &mut [ThreadId; MAX_DONATION_DEPTH],
            depth: usize,
        ) -> Constraint {
            let Some(rec) = state.rec(id) else {
                return Constraint::priority(Priority::LOW);
            };
            let mut eff = Constraint::priority(rec.static_pri);
            if rec.processing {
                if let Some(cur) = rec.cur {
                    eff = eff.max_urgency(cur);
                }
            } else if rec.state == RunState::Runnable {
                if let Some(c) = rec.mailbox.front().and_then(|e| e.constraint()) {
                    eff = eff.max_urgency(c);
                }
            }
            if cfg.priority_inheritance {
                for env in &rec.mailbox {
                    if let Some(c) = env.constraint() {
                        eff = eff.max_urgency(c);
                    }
                }
                if depth < MAX_DONATION_DEPTH && !chain[..depth].contains(&id) {
                    chain[depth] = id;
                    for (waiter, wrec) in state.threads() {
                        if wrec.waiting_on == Some(id) {
                            let donated = effective_along(state, cfg, waiter, chain, depth + 1);
                            eff = eff.max_urgency(donated);
                        }
                    }
                }
            }
            eff
        }

        pub(super) fn pick_next(state: &KState, cfg: &SchedConfig) -> Option<ThreadId> {
            let mut best: Option<(ThreadId, Constraint, u64)> = None;
            for (id, rec) in state.threads().filter(|(_, rec)| rec.wants_cpu()) {
                let eff = effective(state, cfg, id);
                match &best {
                    None => best = Some((id, eff, rec.ready_seq)),
                    Some((_, beff, bseq)) => {
                        let better = if cfg.priority_scheduling {
                            match eff.urgency_cmp(beff) {
                                Ordering::Greater => true,
                                Ordering::Equal => rec.ready_seq < *bseq,
                                Ordering::Less => false,
                            }
                        } else {
                            rec.ready_seq < *bseq
                        };
                        if better {
                            best = Some((id, eff, rec.ready_seq));
                        }
                    }
                }
            }
            best.map(|(id, _, _)| id)
        }

        pub(super) fn preempted(state: &KState, cfg: &SchedConfig, me: ThreadId) -> bool {
            if !cfg.preemptive || state.running != Some(me) {
                return false;
            }
            let mut my_eff = None;
            state.threads().any(|(id, rec)| {
                id != me && rec.wants_cpu() && {
                    let mine = my_eff.get_or_insert_with(|| effective(state, cfg, me));
                    effective(state, cfg, id).urgency_cmp(mine) == Ordering::Greater
                }
            })
        }
    }

    const CTL: Tag = Tag(2);

    /// A kernel driven one scheduler transition at a time, as the kernel's
    /// operations drive it, with what the test needs to know about the
    /// synchronous sends in flight.
    struct World {
        state: KState,
        cfg: SchedConfig,
        stats: StatCounters,
        /// Synchronous sends not yet answered: (token, from, to).
        requests: Vec<(u64, ThreadId, ThreadId)>,
        /// The reply token each thread waits for, by thread index.
        waits: Vec<Option<(u64, ThreadId)>>,
        /// Interrupted waits whose `PendingReply` is still alive after
        /// the thread began another: (thread, peer, token).
        abandoned: Vec<(ThreadId, ThreadId, u64)>,
        /// The reply tokens each thread's record must hold, by thread
        /// index: its synchronous sends neither answered nor cancelled.
        owed: Vec<Vec<u64>>,
    }

    impl World {
        fn new(cfg: SchedConfig) -> World {
            let mut world = World {
                state: KState::new(),
                cfg,
                stats: StatCounters::default(),
                requests: Vec::new(),
                waits: Vec::new(),
                abandoned: Vec::new(),
                owed: Vec::new(),
            };
            world.spawn(1, false);
            world.spawn(2, false);
            world
        }

        fn ids(&self) -> usize {
            self.waits.len()
        }

        fn nth(&self, r: u64) -> ThreadId {
            ThreadId(r % self.ids() as u64)
        }

        fn constraint(r: u64) -> Option<Constraint> {
            let priority = [Priority::LOW, Priority::NORMAL, Priority::HIGH][(r % 3) as usize];
            match r % 5 {
                0 => None,
                1 | 2 => Some(Constraint::priority(priority)),
                _ => Some(Constraint {
                    priority,
                    deadline: Some(Time::from_millis(r % 7)),
                }),
            }
        }

        fn spawn(&mut self, r: u64, external: bool) {
            let pri = [
                Priority::LOW,
                Priority::NORMAL,
                Priority::HIGH,
                Priority::CONTROL,
            ];
            let name = format!("t{}", self.ids());
            let rec = ThreadRec::new(name, pri[(r % 4) as usize], external);
            let id = self.state.add_thread(rec);
            self.waits.push(None);
            self.owed.push(Vec::new());
            if !external {
                self.state.make_runnable(id);
            }
        }

        /// One attempt of a receive by the running thread `me`, as
        /// `Ctx::take_or_wait` makes it: the reply it waits for (or an
        /// interrupt), else the next message, else it blocks.
        fn receive(&mut self, me: ThreadId, r: u64) {
            let idx = me.0 as usize;
            if let Some((token, _)) = self.waits[idx] {
                if self.state.rec_mut(me).unwrap().peer_gone.take().is_some() {
                    self.retire(me, token);
                    self.state.end_wait(me);
                    self.waits[idx] = None;
                    return;
                }
                let tags = [CTL];
                let spec = SpecRef::reply_or_tags(token, &tags);
                let rec = self.state.rec_mut(me).unwrap();
                if let Some(env) = rec.take_match(spec) {
                    if spec.is_reply(&env) {
                        self.state.end_wait(me);
                        self.waits[idx] = None;
                    }
                    return;
                }
                self.block(me, spec);
                return;
            }
            let rec = self.state.rec_mut(me).unwrap();
            if r.is_multiple_of(3) {
                rec.cur = None;
                rec.processing = false;
            }
            if let Some(env) = rec.mailbox.pop_front() {
                rec.cur = env.constraint();
                rec.processing = true;
                return;
            }
            self.block(me, SpecRef::ANY);
        }

        fn block(&mut self, me: ThreadId, spec: SpecRef<'_>) {
            let rec = self.state.rec_mut(me).unwrap();
            rec.state = RunState::Blocked;
            rec.set_wait(spec);
            self.state.running = None;
        }

        /// A synchronous send from `from`; a kernel thread then waits for
        /// the reply as `Ctx::call_async` does.
        fn call(&mut self, from: ThreadId, to: ThreadId, r: u64) {
            let msg = Message::signal(Tag(1));
            let Ok(token) = enqueue_request(
                &mut self.state,
                &self.stats,
                from,
                to,
                msg,
                Self::constraint(r),
            ) else {
                return;
            };
            self.requests.push((token, from, to));
            self.owed[from.0 as usize].push(token);
            if let Some((old, peer)) = self.waits[from.0 as usize].replace((token, to)) {
                self.abandoned.push((from, peer, old));
            }
            if self.state.running == Some(from) {
                self.receive(from, r);
            }
        }

        /// The running thread answers a request addressed to it, as
        /// `Ctx::reply` does.
        fn reply(&mut self, me: ThreadId, r: u64) {
            let mine: Vec<usize> = (0..self.requests.len())
                .filter(|&i| self.requests[i].2 == me)
                .collect();
            if mine.is_empty() {
                return;
            }
            let (token, from, _) = self.requests.remove(mine[(r % mine.len() as u64) as usize]);
            if !self.retire(from, token) {
                return;
            }
            let cur = self.state.rec(me).and_then(|rec| rec.cur);
            let mut env = self.state.stamp(Some(me), Message::signal(Tag(1)), cur);
            env.in_reply = Some(ReplyToken(token));
            let _ = enqueue(&mut self.state, &self.stats, from, env);
        }

        /// Retires `requester`'s `token` from its record, as a reply or
        /// an ended wait does, and checks the record held it exactly when
        /// the model says it is owed.
        fn retire(&mut self, requester: ThreadId, token: u64) -> bool {
            let owed = &mut self.owed[requester.0 as usize];
            let expected = owed.contains(&token);
            owed.retain(|&t| t != token);
            let held = self.state.retire_token(requester, token);
            assert_eq!(held, expected, "token {token} of {requester}");
            held
        }

        /// An external port's `send_sync` takes its reply (or learns its
        /// peer is gone) and ends its wait.
        fn port_takes_reply(&mut self, port: ThreadId) {
            let idx = port.0 as usize;
            let Some((token, _)) = self.waits[idx] else {
                return;
            };
            let rec = self.state.rec_mut(port).unwrap();
            let gone = rec.peer_gone.take().is_some();
            let spec = SpecRef::reply_or_tags(token, &[]);
            let replied = rec.take_match(spec);
            if gone || replied.is_some() {
                self.retire(port, token);
                self.state.end_wait(port);
                self.waits[idx] = None;
            }
        }

        fn step(&mut self, word: u64) {
            let (op, r) = (word % 13, word >> 8);
            let running = self.state.running;
            let external =
                |w: &World, id: ThreadId| w.state.rec(id).is_some_and(|rec| rec.external);
            match (op, running) {
                (0, _) if self.ids() < 32 => self.spawn(r, r.is_multiple_of(5)),
                (4, Some(me)) => self.receive(me, r),
                (5, _) => {
                    // An asynchronous send, from the running thread or
                    // from outside the kernel.
                    let tag = if r.is_multiple_of(2) { CTL } else { Tag(1) };
                    let env =
                        self.state
                            .stamp(running, Message::signal(tag), Self::constraint(r >> 4));
                    let to = self.nth(r >> 12);
                    let _ = enqueue(&mut self.state, &self.stats, to, env);
                }
                (6, Some(me)) if !r.is_multiple_of(3) => self.call(me, self.nth(r >> 4), r >> 12),
                (6, _) => {
                    let port = self.nth(r >> 4);
                    if external(self, port) && self.waits[port.0 as usize].is_none() {
                        self.call(port, self.nth(r >> 12), r >> 20);
                    }
                }
                (7, Some(me)) => self.reply(me, r),
                (8, _) => {
                    let port = self.nth(r);
                    if external(self, port) {
                        self.port_takes_reply(port);
                    }
                }
                (9, Some(me)) => {
                    // A `PendingReply` dropped: the running thread's own
                    // interrupted wait, or one it abandoned for another.
                    let cancelled = match self.abandoned.iter().position(|a| a.0 == me) {
                        Some(i) => {
                            let (_, to, token) = self.abandoned.remove(i);
                            Some((token, to))
                        }
                        None => self.waits[me.0 as usize].take(),
                    };
                    if let Some((token, to)) = cancelled {
                        self.state.cancel_wait(me, to, token);
                        self.owed[me.0 as usize].retain(|&t| t != token);
                    }
                }
                (10, Some(me)) => {
                    self.state.queue_ready(me);
                    self.state.running = None;
                }
                (11, _) if r.is_multiple_of(4) => {
                    let id = self.nth(r >> 4);
                    terminate(&mut self.state, id);
                    if let Some(rec) = self.state.rec_mut(id) {
                        rec.state = RunState::Done;
                    }
                }
                _ => dispatch(&mut self.state, &self.cfg, &self.stats),
            }
        }

        /// Every decision the scheduler makes now equals the full scan's.
        fn check(&self, step: usize) {
            let (state, cfg) = (&self.state, &self.cfg);
            let queued: Vec<ThreadId> = state.runq.iter().copied().collect();
            let mut wanting: Vec<(u64, ThreadId)> = state
                .threads()
                .filter(|(_, rec)| rec.wants_cpu())
                .map(|(id, rec)| (rec.ready_seq, id))
                .collect();
            wanting.sort_unstable();
            let wanting: Vec<ThreadId> = wanting.into_iter().map(|(_, id)| id).collect();
            assert_eq!(queued, wanting, "runnable queue at step {step}");
            for (id, rec) in state.threads() {
                let mut held = rec.outstanding.clone();
                let mut owed = self.owed[id.0 as usize].clone();
                held.sort_unstable();
                owed.sort_unstable();
                assert_eq!(held, owed, "reply tokens of {id} at step {step}");
                assert_eq!(
                    effective(state, cfg, id),
                    full_scan::effective(state, cfg, id),
                    "effective constraint of {id} at step {step}"
                );
            }
            assert_eq!(
                pick_next(state, cfg),
                full_scan::pick_next(state, cfg),
                "pick at step {step}"
            );
            if let Some(me) = state.running {
                assert_eq!(
                    preempted(state, cfg, me),
                    full_scan::preempted(state, cfg, me),
                    "preemption of {me} at step {step}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Random runs of spawns, blocks, asynchronous and synchronous
        /// sends, replies, cancelled waits, yields and terminations over at
        /// most 32 threads: after every step the runnable queue holds
        /// exactly the threads that want the CPU, every thread's record
        /// holds exactly the reply tokens it is owed, and every effective
        /// constraint, pick and preemption equals the full scan's, with
        /// priority inheritance on and off and in FIFO mode.
        #[test]
        fn scheduler_matches_the_full_scan(words in proptest::collection::vec(proptest::prelude::any::<u64>(), 50..400)) {
            let fifo = SchedConfig {
                priority_scheduling: false,
                ..cfg()
            };
            let no_inheritance = SchedConfig {
                priority_inheritance: false,
                ..cfg()
            };
            for config in [cfg(), no_inheritance, fifo] {
                let mut world = World::new(config);
                for (step, &word) in words.iter().enumerate() {
                    world.step(word);
                    world.check(step);
                }
            }
        }
    }
}
