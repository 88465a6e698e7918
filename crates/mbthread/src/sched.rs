//! Scheduler internals: kernel state, effective-constraint computation,
//! dispatch, message enqueueing, and timer firing.
//!
//! All of this runs under the single kernel mutex, which is what gives the
//! package its uniprocessor semantics: at most one user thread executes at
//! any instant, and every scheduling decision is a serialized state
//! transition. Nothing here wakes an OS thread: a transition that needs
//! one records it in [`KState::wakes`], and the kernel guard delivers it
//! after the mutex is released.

use crate::clock::{ClockMode, Time};
use crate::constraint::{Constraint, Priority};
use crate::error::SendError;
use crate::message::{Envelope, Message, ReplyToken};
use crate::stats::StatCounters;
use crate::thread::{RunState, ThreadId, ThreadRec};
use crate::timer::{TimerEntry, TimerId, TimerKey, TimerKind};
use parking_lot::Condvar;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as MemOrdering};
use std::sync::Arc;

/// OS wakes a critical section has produced but not yet issued. A hand-off
/// produces exactly one, which lives in the inline slot, so the message
/// path never allocates here.
#[derive(Default)]
pub(crate) struct Wakes {
    /// Notify `cv_global`: the dispatcher and `wait_quiescent` callers.
    pub(crate) dispatcher: bool,
    first: Option<Arc<Condvar>>,
    rest: Vec<Arc<Condvar>>,
}

impl Wakes {
    pub(crate) fn push(&mut self, cv: Arc<Condvar>) {
        if self.first.is_none() {
            self.first = Some(cv);
        } else {
            self.rest.push(cv);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        !self.dispatcher && self.first.is_none()
    }

    /// Issues the wakes. Must be called with the kernel mutex released, so
    /// a woken thread finds it free.
    pub(crate) fn deliver(self, cv_global: &Condvar) {
        for cv in self.first.iter().chain(&self.rest) {
            cv.notify_all();
        }
        if self.dispatcher {
            // Requested by the idle rule, a timer arming, a clock-hold
            // release or shutdown (the sites that set `wakes.dispatcher`).
            cv_global.notify_all();
        }
    }
}

/// Everything the scheduler knows, guarded by the kernel mutex.
pub(crate) struct KState {
    pub(crate) threads: BTreeMap<ThreadId, ThreadRec>,
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
    pub(crate) next_thread: u64,
    pub(crate) next_token: u64,
    pub(crate) next_timer: u64,
    pub(crate) send_seq: u64,
    pub(crate) ready_seq: u64,
    pub(crate) timers: BinaryHeap<TimerKey>,
    pub(crate) timer_entries: HashMap<u64, TimerEntry>,
    /// Reply tokens of synchronous sends that have not been answered yet;
    /// replying to a token not in this set is a stale reply.
    pub(crate) pending_tokens: HashSet<u64>,
    /// First panic observed in a user thread (name, message).
    pub(crate) panic: Option<(String, String)>,
    /// Threads inside [`Kernel::wait_quiescent`]; while nonzero, going idle
    /// notifies `cv_global` under the real clock too.
    pub(crate) quiescence_waiters: u32,
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
            threads: BTreeMap::new(),
            running: None,
            last_running: None,
            shutdown: false,
            vnow: Time::ZERO,
            clock_holds: 0,
            next_thread: 0,
            next_token: 0,
            next_timer: 0,
            send_seq: 0,
            ready_seq: 0,
            timers: BinaryHeap::new(),
            timer_entries: HashMap::new(),
            pending_tokens: HashSet::new(),
            panic: None,
            quiescence_waiters: 0,
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

    pub(crate) fn alloc_thread_id(&mut self) -> ThreadId {
        let id = ThreadId(self.next_thread);
        self.next_thread += 1;
        id
    }

    pub(crate) fn rec(&self, id: ThreadId) -> Option<&ThreadRec> {
        self.threads.get(&id)
    }

    pub(crate) fn rec_mut(&mut self, id: ThreadId) -> Option<&mut ThreadRec> {
        self.threads.get_mut(&id)
    }

    /// Marks a blocked or freshly created thread ready to run.
    pub(crate) fn make_runnable(&mut self, id: ThreadId) {
        self.disturb();
        let seq = self.ready_seq;
        self.ready_seq += 1;
        if let Some(rec) = self.threads.get_mut(&id) {
            debug_assert!(
                rec.state != RunState::Running,
                "make_runnable on running thread {id}"
            );
            if rec.state != RunState::Done {
                rec.state = RunState::Runnable;
                rec.receive_blocked = false;
                rec.ready_seq = seq;
            }
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
        self.threads
            .values()
            .any(|r| r.state == RunState::Runnable && !r.external)
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

    /// Starts shutdown: every blocked OS thread is woken to observe it.
    pub(crate) fn begin_shutdown(&mut self) {
        self.shutdown = true;
        self.disturb();
        for rec in self.threads.values() {
            self.wakes.push(Arc::clone(&rec.cv));
        }
        self.wakes.dispatcher = true;
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
            for (&waiter, wrec) in &state.threads {
                if wrec.waiting_on == Some(id) {
                    let donated = effective_along(state, cfg, waiter, chain, depth + 1);
                    eff = eff.max_urgency(donated);
                }
            }
        }
    }
    eff
}

/// Picks the next thread to run: most urgent effective constraint first,
/// FIFO among equals. With `priority_scheduling` off, pure FIFO by the
/// moment each thread became runnable (the E7 ablation).
pub(crate) fn pick_next(state: &KState, cfg: &SchedConfig) -> Option<ThreadId> {
    let mut best: Option<(ThreadId, Constraint, u64)> = None;
    for (&id, rec) in &state.threads {
        if rec.state != RunState::Runnable || rec.external {
            continue;
        }
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

/// Hands the CPU to `id`: marks it running and records the wake its OS
/// thread is owed.
pub(crate) fn grant_cpu(state: &mut KState, stats: &StatCounters, id: ThreadId) {
    debug_assert!(state.running.is_none());
    if state.last_running != Some(id) {
        StatCounters::bump(&stats.context_switches);
        state.last_running = Some(id);
    }
    state.running = Some(id);
    let rec = state.rec_mut(id).expect("granted thread exists");
    rec.state = RunState::Running;
    let cv = Arc::clone(&rec.cv);
    state.wakes.push(cv);
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
        StatCounters::bump(&stats.timer_fires);
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
    let rec = state
        .threads
        .get_mut(&to)
        .ok_or(SendError::UnknownThread(to))?;
    if rec.state == RunState::Done {
        return Err(SendError::UnknownThread(to));
    }
    StatCounters::bump(&stats.messages_sent);
    let matched = rec.wait_spec().is_some_and(|spec| spec.matches(&env));
    rec.mailbox.push_back(env);
    if rec.external {
        // External ports are OS threads waiting on their own condvar; they
        // are not scheduled, just notified.
        let cv = Arc::clone(&rec.cv);
        state.wakes.push(cv);
    } else if matched && rec.state == RunState::Blocked && !rec.sleeping {
        state.make_runnable(to);
    }
    state.disturb();
    Ok(())
}

/// Enqueues `msg` for `to` as a synchronous request from `from` and
/// registers the wait (reply token, priority donation); returns the token.
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
    StatCounters::bump(&stats.sync_sends);
    state.pending_tokens.insert(token);
    if let Some(rec) = state.rec_mut(from) {
        rec.waiting_on = Some(to);
    }
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
    if let Some(rec) = state.rec_mut(id) {
        rec.state = RunState::Done;
        rec.receive_blocked = false;
        rec.mailbox.clear();
    }
    let orphans: Vec<ThreadId> = state
        .threads
        .iter()
        .filter(|(_, r)| r.waiting_on == Some(id) && r.state == RunState::Blocked)
        .map(|(wid, _)| *wid)
        .collect();
    for w in orphans {
        if let Some(rec) = state.rec_mut(w) {
            rec.peer_gone = Some(id);
            if rec.external {
                let cv = Arc::clone(&rec.cv);
                state.wakes.push(cv);
                continue;
            }
        }
        state.make_runnable(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, Tag};

    fn cfg() -> SchedConfig {
        SchedConfig {
            clock: ClockMode::Virtual,
            priority_inheritance: true,
            preemptive: true,
            priority_scheduling: true,
        }
    }

    fn spawn_rec(state: &mut KState, pri: Priority) -> ThreadId {
        let id = state.alloc_thread_id();
        state
            .threads
            .insert(id, ThreadRec::new(format!("t{}", id.0), pri, false));
        state.make_runnable(id);
        id
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
        state.rec_mut(waiter).unwrap().state = RunState::Blocked;
        state.rec_mut(waiter).unwrap().waiting_on = Some(holder);
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
        state.rec_mut(t).unwrap().state = RunState::Blocked;
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
        state.rec_mut(waiter).unwrap().state = RunState::Blocked;
        state.rec_mut(waiter).unwrap().waiting_on = Some(dead);
        terminate(&mut state, dead);
        assert_eq!(state.rec(waiter).unwrap().peer_gone, Some(dead));
        assert_eq!(state.rec(waiter).unwrap().state, RunState::Runnable);
        assert_eq!(state.rec(dead).unwrap().state, RunState::Done);
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
}
