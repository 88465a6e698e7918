//! The serving tier: many clients per producer (§2.4 scaled out).
//!
//! The paper's remote pipelines are point-to-point: one producer, one
//! link, one consumer. A streaming service is one producer and *many*
//! consumers, arriving and leaving while the flow runs. This module adds
//! that tier on top of the [`Transport`](crate::Transport) family without
//! touching how a pipeline is composed:
//!
//! * an [`AcceptLoop`] per transport turns incoming links into
//!   registered **sessions** — it polls
//!   [`Acceptor::accept_timeout`] so shutdown never needs a poison
//!   connection. Its thread, like the [`Housekeeper`]'s, is one of the
//!   crate's shared service workers: stopped and joined on shutdown or
//!   drop,
//! * a [`SessionRegistry`] owns the roster: each session walks the
//!   lifecycle [`Connecting` → `Active` → `Draining` →
//!   `Evicted`](SessionState), observable through
//!   [`SessionSnapshot`]s and aggregate [`RegistryStats`],
//! * [`SessionRegistry::broadcast`] tees one sealed
//!   [`PayloadBytes`] frame into every active session's bounded send
//!   queue **by refcount** — N sessions cost N queue slots, zero payload
//!   copies (the capacity bench gates on
//!   [`infopipes::payload_copy_count`] staying flat), and
//! * each session keeps its own saturation window, surfacing per-session
//!   `net-send-saturation` readings ([`SessionRegistry::take_readings`])
//!   that a per-session controller bank (e.g.
//!   `feedback::SessionControllerBank`) maps to per-session drop levels
//!   ([`SessionRegistry::set_drop_level`]) — one slow client is thinned
//!   or evicted while the rest stream on.
//!
//! # Isolation of slow clients
//!
//! The broadcast sweep never blocks on a session: a link whose send
//! path would wait is skipped outright ([`Link::send_ready`]), flushing
//! stops at the first [`SendStatus::Saturated`], the bounded per-session
//! queue sheds its oldest frame on overflow, and a session whose link
//! reports [`SendStatus::Closed`] is evicted on the spot. The worst a
//! dead-slow client can do is lose its own frames.
//!
//! # Locking
//!
//! A session has **one lock**: its lifecycle state, drain deadline,
//! queue, saturation window and frame counters share a cell, taken once
//! per session by [`broadcast`](SessionRegistry::broadcast),
//! [`sweep`](SessionRegistry::sweep) and the snapshot calls. Every data
//! send happens under that lock and only after [`Link::send_ready`]
//! said it would not wait. Because no data frame reaches the link any
//! other way, nothing can fill the lane between the question and the
//! send — the "never blocks" contract holds by construction — and two
//! flushers of one session (a broadcaster and a housekeeper) cannot
//! reorder its frames. A frame for a session whose queue is empty and
//! whose link is ready goes straight to the link under the same
//! acquisition and never touches the queue. Control frames and `Fin`
//! travel the control lane outside the lock. Lock order: roster, then a
//! session's cell, then the readings queue; no two cells at once.
//!
//! The roster is an `Arc`'d vector replaced copy-on-write by
//! `register`/`reap`; a pass over it holds one refcount, not the roster
//! lock and not a private copy.
//!
//! # Typical assembly
//!
//! ```no_run
//! use netpipe::serve::{AcceptLoop, ServeConfig, SessionRegistry};
//! use netpipe::{InProcTransport, Transport};
//!
//! let transport = InProcTransport::new();
//! let acceptor = transport.listen("studio").unwrap();
//! let registry = SessionRegistry::new(ServeConfig::default());
//! let accept = AcceptLoop::spawn(acceptor, registry.clone());
//! // ... the producer pipeline ends in
//! // `BroadcastSendEnd::new("fan-out", registry.clone())` ...
//! accept.shutdown();
//! ```

use crate::proto::WireEvent;
use crate::transport::{
    sealed, Acceptor, Frame, KernelPost, Link, NetSendEnd, PeerIdentity, SaturationWindow,
    SendSink, SendStatus,
};
use crate::worker::{spawn_accept_loop, Accepted, Worker};
use infopipes::{ControlEvent, PayloadBytes};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one session within a [`SessionRegistry`] (unique for the
/// registry's lifetime; never reused).
pub type SessionId = u64;

/// Where a session is in its lifecycle.
///
/// ```text
/// Connecting ──activate──▶ Active ──drain──▶ Draining ──flushed/deadline──▶ Evicted
///      │                     │                                                 ▲
///      └──── link closed ────┴────────────────── evict ───────────────────────┘
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Registered but not yet receiving broadcasts (handshake pending).
    Connecting,
    /// Receiving broadcast frames.
    Active,
    /// No new frames; queued frames are flushed until empty or the drain
    /// deadline passes, then the session is evicted with a `Fin`.
    Draining,
    /// Done: queue released, `Fin` sent (best effort), awaiting
    /// [`SessionRegistry::reap`].
    Evicted,
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionState::Connecting => "connecting",
            SessionState::Active => "active",
            SessionState::Draining => "draining",
            SessionState::Evicted => "evicted",
        };
        f.write_str(s)
    }
}

/// Tuning knobs for a [`SessionRegistry`].
#[derive(Copy, Clone, Debug)]
pub struct ServeConfig {
    /// Bounded frames per session queue; on overflow the *oldest* queued
    /// frame is shed (streaming favours fresh data) and the window is
    /// marked pressured.
    pub queue_capacity: usize,
    /// Send attempts per session between saturation readings (mirrors
    /// [`NetSendEnd`]'s window).
    pub saturation_window: u64,
    /// How long a [`Draining`](SessionState::Draining) session may keep
    /// flushing before it is force-evicted with its queue unsent.
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            saturation_window: 32,
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// Bound on per-session readings awaiting
/// [`SessionRegistry::take_readings`]; past it the oldest reading is
/// discarded (a stale congestion sample is worthless anyway).
const MAX_PENDING_READINGS: usize = 4096;

/// Per-level keep-every strides, matching the drop-level fractions
/// `[1.0, 0.34, 0.12]` used by the media filters: level 1 keeps every
/// 3rd broadcast frame for that session, level 2 every 8th.
const KEEP_EVERY: [u64; 3] = [1, 3, 8];

/// Everything about one session that changes, behind the session's one
/// lock: a snapshot taken under it is exact
/// (`enqueued == sent + shed + queued`).
struct SessionCell {
    state: SessionState,
    drain_deadline: Option<Instant>,
    /// Bounded outbound queue, used only while the link pushes back.
    frames: VecDeque<PayloadBytes>,
    window: SaturationWindow,
    /// Broadcast tick for drop-level thinning (counts offered frames).
    tick: u64,
    enqueued: u64,
    sent: u64,
    shed: u64,
    thinned: u64,
}

struct SessionShared<L> {
    id: SessionId,
    peer: PeerIdentity,
    link: L,
    cell: Mutex<SessionCell>,
    drop_level: AtomicU8,
}

/// A point-in-time view of one session (see
/// [`SessionRegistry::sessions`]).
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// The session's registry-unique id.
    pub id: SessionId,
    /// The remote end, e.g. `tcp://127.0.0.1:41234`.
    pub peer: String,
    /// Lifecycle state at snapshot time.
    pub state: SessionState,
    /// Frames waiting in the session's send queue.
    pub queued: usize,
    /// Current drop level (0 = no thinning).
    pub drop_level: u8,
    /// Frames accepted into the queue since registration.
    pub enqueued: u64,
    /// Frames handed to the link.
    pub sent: u64,
    /// Frames lost to this session: queue overflow, link drops, and
    /// frames discarded at eviction.
    pub shed: u64,
    /// Frames withheld by drop-level thinning (not counted as loss —
    /// thinning is the feedback loop working as designed).
    pub thinned: u64,
}

/// Aggregate registry counters (see [`SessionRegistry::stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions ever registered.
    pub accepted_total: u64,
    /// Sessions that reached [`SessionState::Evicted`].
    pub evicted_total: u64,
    /// Resident sessions currently [`SessionState::Connecting`].
    pub connecting: usize,
    /// Resident sessions currently [`SessionState::Active`].
    pub active: usize,
    /// Resident sessions currently [`SessionState::Draining`].
    pub draining: usize,
    /// Evicted sessions not yet reaped.
    pub evicted_resident: usize,
    /// Frames queued across all resident sessions right now.
    pub queued_frames: usize,
    /// Total frames accepted into session queues.
    pub enqueued_total: u64,
    /// Total frames handed to links.
    pub sent_total: u64,
    /// Total frames lost (overflow + link drops + eviction discards).
    pub shed_total: u64,
    /// Total frames withheld by drop-level thinning.
    pub thinned_total: u64,
}

/// A pass over the roster: shared, immutable, one refcount to take.
type Roster<L> = Arc<Vec<Arc<SessionShared<L>>>>;

struct RegistryInner<L> {
    cfg: ServeConfig,
    next_id: AtomicU64,
    /// Replaced copy-on-write (`Arc::make_mut`) by `enroll` and `reap`.
    roster: Mutex<Roster<L>>,
    /// Per-session saturation readings awaiting collection, oldest first.
    readings: Mutex<VecDeque<(SessionId, f64)>>,
    accepted_total: AtomicU64,
    evicted_total: AtomicU64,
}

/// The session roster of a serving tier: registration, lifecycle,
/// refcounted broadcast fan-out, per-session congestion readings.
///
/// Cheaply cloneable; clones share the roster (the [`AcceptLoop`] holds
/// one clone, the producer-side [`BroadcastSendEnd`] another, the
/// feedback loop a third).
pub struct SessionRegistry<L: Link> {
    inner: Arc<RegistryInner<L>>,
}

impl<L: Link> Clone for SessionRegistry<L> {
    fn clone(&self) -> Self {
        SessionRegistry {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<L: Link> SessionRegistry<L> {
    /// Creates an empty registry.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> SessionRegistry<L> {
        SessionRegistry {
            inner: Arc::new(RegistryInner {
                cfg,
                next_id: AtomicU64::new(1),
                roster: Mutex::new(Arc::default()),
                readings: Mutex::new(VecDeque::new()),
                accepted_total: AtomicU64::new(0),
                evicted_total: AtomicU64::new(0),
            }),
        }
    }

    /// The registry's configuration.
    #[must_use]
    pub fn config(&self) -> ServeConfig {
        self.inner.cfg
    }

    /// Registers a link as a [`Connecting`](SessionState::Connecting)
    /// session; it receives no broadcasts until
    /// [`activate`](SessionRegistry::activate)d.
    pub fn register(&self, link: L) -> SessionId {
        self.enroll(link, SessionState::Connecting)
    }

    /// Moves a [`Connecting`](SessionState::Connecting) session into
    /// [`Active`](SessionState::Active); no-op in any other state.
    pub fn activate(&self, id: SessionId) {
        if let Some(s) = self.find(id) {
            let mut cell = s.cell.lock();
            if cell.state == SessionState::Connecting {
                cell.state = SessionState::Active;
            }
        }
    }

    /// Registers and immediately activates (the accept loop's path).
    pub fn admit(&self, link: L) -> SessionId {
        self.enroll(link, SessionState::Active)
    }

    fn enroll(&self, link: L, state: SessionState) -> SessionId {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(SessionShared {
            id,
            peer: link.peer(),
            link,
            cell: Mutex::new(SessionCell {
                state,
                drain_deadline: None,
                // Preallocated once: steady-state broadcasts push into
                // existing capacity, keeping the fan-out allocation-free.
                frames: VecDeque::with_capacity(self.inner.cfg.queue_capacity),
                window: SaturationWindow::new(self.inner.cfg.saturation_window),
                tick: 0,
                enqueued: 0,
                sent: 0,
                shed: 0,
                thinned: 0,
            }),
            drop_level: AtomicU8::new(0),
        });
        // Counted before it is resident, so a concurrent `stats` never
        // sees more sessions in the roster than were ever accepted.
        self.inner.accepted_total.fetch_add(1, Ordering::Relaxed);
        Arc::make_mut(&mut *self.inner.roster.lock()).push(session);
        id
    }

    /// By-id lookup for the public per-session calls; passes over the
    /// roster work on the `Arc` they already hold.
    fn find(&self, id: SessionId) -> Option<Arc<SessionShared<L>>> {
        self.roster().iter().find(|s| s.id == id).cloned()
    }

    /// Tees one sealed payload to every active session by refcount — no
    /// copy, N sessions share one allocation — without ever blocking on
    /// a slow client: straight to the link when the session's queue is
    /// empty and the link ready, otherwise queued (drop-oldest) and
    /// flushed. One lock acquisition per session. Returns the number of
    /// sessions that accepted the frame.
    pub fn broadcast(&self, payload: &PayloadBytes) -> usize {
        let capacity = self.inner.cfg.queue_capacity;
        let mut reached = 0;
        for s in self.roster().iter() {
            let mut cell = s.cell.lock();
            if cell.state != SessionState::Active {
                continue;
            }
            let level = usize::from(s.drop_level.load(Ordering::Relaxed)).min(KEEP_EVERY.len() - 1);
            let tick = cell.tick;
            cell.tick += 1;
            if !tick.is_multiple_of(KEEP_EVERY[level]) {
                cell.thinned += 1;
                continue;
            }
            cell.enqueued += 1;
            reached += 1;
            let open = if cell.frames.is_empty() && s.link.send_ready() {
                self.send(s, &mut cell, payload.clone()) != SendStatus::Closed
            } else {
                if cell.frames.len() >= capacity {
                    // Shed the *oldest* frame: a streaming client wants
                    // fresh data, and an overflowing queue is a
                    // pressured link.
                    cell.frames.pop_front();
                    cell.shed += 1;
                    self.observe(s, &mut cell, true);
                }
                cell.frames.push_back(payload.clone());
                self.flush(s, &mut cell)
            };
            if !open {
                self.evict_locked(s, cell);
            }
        }
        reached
    }

    /// Counts one send attempt in the session's saturation window.
    fn observe(&self, s: &SessionShared<L>, cell: &mut SessionCell, pressured: bool) {
        if let Some(fraction) = cell.window.observe(pressured) {
            let mut readings = self.inner.readings.lock();
            if readings.len() >= MAX_PENDING_READINGS {
                readings.pop_front();
            }
            readings.push_back((s.id, fraction));
        }
    }

    /// One data send, counted and observed. Every data frame reaches a
    /// link through here, under the session's lock and after
    /// [`Link::send_ready`] — so the send cannot wait on a slow client
    /// and two flushers cannot reorder a session's frames.
    fn send(
        &self,
        s: &SessionShared<L>,
        cell: &mut SessionCell,
        frame: PayloadBytes,
    ) -> SendStatus {
        let status = s.link.send(Frame::Data(frame));
        if status.accepted() {
            cell.sent += 1;
        } else {
            cell.shed += 1;
        }
        if status != SendStatus::Closed {
            self.observe(s, cell, status != SendStatus::Sent);
        }
        status
    }

    /// Sends queued frames until the queue is empty or the link pushes
    /// back: a link whose send path would wait keeps its frames queued
    /// and is merely marked pressured, and one that answers `Saturated`
    /// or `Dropped` gets no second frame this pass. Returns false when
    /// the link reported `Closed` — the caller evicts.
    fn flush(&self, s: &SessionShared<L>, cell: &mut SessionCell) -> bool {
        while !cell.frames.is_empty() {
            if !s.link.send_ready() {
                self.observe(s, cell, true);
                break;
            }
            let frame = cell.frames.pop_front().expect("non-empty, checked above");
            match self.send(s, cell, frame) {
                SendStatus::Sent => {}
                SendStatus::Saturated | SendStatus::Dropped => break,
                SendStatus::Closed => return false,
            }
        }
        true
    }

    /// Sends a control event to every connecting, active, or draining
    /// session (control lane — overtakes queued data on every backend).
    pub fn broadcast_event(&self, event: &ControlEvent) {
        self.broadcast_ctrl(&Frame::Event(WireEvent::from(event)));
    }

    fn broadcast_ctrl(&self, frame: &Frame) {
        for s in self.roster().iter() {
            let state = s.cell.lock().state;
            if state != SessionState::Evicted {
                let _ = s.link.send(frame.clone());
            }
        }
    }

    /// Starts draining one session: no new broadcast frames; queued
    /// frames keep flushing (via [`sweep`](SessionRegistry::sweep)) until
    /// empty or the drain deadline, then the session is evicted.
    pub fn drain(&self, id: SessionId) {
        if let Some(s) = self.find(id) {
            self.start_drain(&mut s.cell.lock());
        }
    }

    /// Starts draining every connecting or active session (the serving
    /// tier's response to end of stream).
    pub fn drain_all(&self) {
        for s in self.roster().iter() {
            self.start_drain(&mut s.cell.lock());
        }
    }

    fn start_drain(&self, cell: &mut SessionCell) {
        if matches!(cell.state, SessionState::Connecting | SessionState::Active) {
            cell.state = SessionState::Draining;
            cell.drain_deadline = Some(Instant::now() + self.inner.cfg.drain_deadline);
        }
    }

    /// One housekeeping pass: flushes active and draining queues,
    /// completes drains (empty queue → `Fin` → evicted), and force-evicts
    /// draining sessions past their deadline. Call this from a
    /// housekeeper thread ([`SessionRegistry::spawn_housekeeper`]) or
    /// between broadcasts.
    pub fn sweep(&self) {
        for s in self.roster().iter() {
            let mut cell = s.cell.lock();
            let done = match cell.state {
                SessionState::Active => !self.flush(s, &mut cell),
                SessionState::Draining => {
                    !self.flush(s, &mut cell)
                        || cell.frames.is_empty()
                        || cell.drain_deadline.is_some_and(|d| Instant::now() >= d)
                }
                SessionState::Connecting | SessionState::Evicted => false,
            };
            if done {
                self.evict_locked(s, cell);
            }
        }
    }

    /// Evicts a session immediately: its queue is released (every queued
    /// frame's refcount drops), a `Fin` is sent best-effort, and the
    /// session becomes [`Evicted`](SessionState::Evicted) (resident until
    /// [`reap`](SessionRegistry::reap)).
    pub fn evict(&self, id: SessionId) {
        if let Some(s) = self.find(id) {
            self.evict_locked(&s, s.cell.lock());
        }
    }

    /// Evicts the session whose lock the caller holds. Only the caller
    /// that makes the transition gets past the check, so the `Fin` goes
    /// out once — on the control lane, after the lock is released.
    fn evict_locked(&self, s: &SessionShared<L>, mut cell: MutexGuard<'_, SessionCell>) {
        if cell.state == SessionState::Evicted {
            return;
        }
        cell.state = SessionState::Evicted;
        cell.drain_deadline = None;
        cell.shed += cell.frames.len() as u64;
        cell.frames.clear();
        drop(cell);
        let _ = s.link.send(Frame::Fin);
        // Release pairs with the Acquire load in `stats`.
        self.inner.evicted_total.fetch_add(1, Ordering::Release);
    }

    /// Removes evicted sessions from the roster, returning how many were
    /// released (their links drop once no pass in progress holds them).
    pub fn reap(&self) -> usize {
        let mut roster = self.inner.roster.lock();
        let before = roster.len();
        Arc::make_mut(&mut *roster).retain(|s| s.cell.lock().state != SessionState::Evicted);
        before - roster.len()
    }

    /// Sets one session's drop level (0–2): the thinning stride the
    /// broadcast applies to that session only. This is the actuator a
    /// per-session congestion controller drives.
    pub fn set_drop_level(&self, id: SessionId, level: u8) {
        if let Some(s) = self.find(id) {
            s.drop_level.store(level, Ordering::Relaxed);
        }
    }

    /// Drains the pending per-session saturation readings (the same
    /// 0..=1 pressured-fraction a [`NetSendEnd`]
    /// broadcasts under [`feedback::readings::SEND_SATURATION`], but one
    /// stream per session). Feed these to a per-session controller bank.
    pub fn take_readings(&self) -> Vec<(SessionId, f64)> {
        self.inner.readings.lock().drain(..).collect()
    }

    /// Point-in-time snapshots of every resident session. Each is taken
    /// under its session's lock, so its counters and queue depth belong
    /// to one instant: `enqueued == sent + shed + queued`.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionSnapshot> {
        self.roster()
            .iter()
            .map(|s| {
                let cell = s.cell.lock();
                SessionSnapshot {
                    id: s.id,
                    peer: s.peer.to_string(),
                    state: cell.state,
                    queued: cell.frames.len(),
                    drop_level: s.drop_level.load(Ordering::Relaxed),
                    enqueued: cell.enqueued,
                    sent: cell.sent,
                    shed: cell.shed,
                    thinned: cell.thinned,
                }
            })
            .collect()
    }

    /// Aggregate counters across the registry's lifetime and the current
    /// roster. The frame totals are sums of per-session instants, so
    /// `enqueued_total == sent_total + shed_total + queued_frames`.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        // Read order keeps `evicted_total <= accepted_total` and
        // `resident <= accepted_total` under concurrent churn: evictions
        // first, then the roster, admissions last.
        let evicted_total = self.inner.evicted_total.load(Ordering::Acquire);
        let roster = self.roster();
        let mut stats = RegistryStats {
            accepted_total: self.inner.accepted_total.load(Ordering::Relaxed),
            evicted_total,
            ..RegistryStats::default()
        };
        for s in roster.iter() {
            let cell = s.cell.lock();
            match cell.state {
                SessionState::Connecting => stats.connecting += 1,
                SessionState::Active => stats.active += 1,
                SessionState::Draining => stats.draining += 1,
                SessionState::Evicted => stats.evicted_resident += 1,
            }
            stats.queued_frames += cell.frames.len();
            stats.enqueued_total += cell.enqueued;
            stats.sent_total += cell.sent;
            stats.shed_total += cell.shed;
            stats.thinned_total += cell.thinned;
        }
        stats
    }

    /// Resident session count (all states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.roster.lock().len()
    }

    /// Whether no sessions are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.roster.lock().is_empty()
    }

    /// The current roster, for one pass: a refcount, not a copy.
    fn roster(&self) -> Roster<L> {
        Arc::clone(&self.inner.roster.lock())
    }

    /// Spawns a thread that calls [`sweep`](SessionRegistry::sweep) and
    /// [`reap`](SessionRegistry::reap) every `period` until the returned
    /// handle is shut down or dropped.
    #[must_use]
    pub fn spawn_housekeeper(&self, period: Duration) -> Housekeeper {
        let registry = self.clone();
        let worker = Worker::spawn("serve-housekeeper", move |stop| loop {
            registry.sweep();
            registry.reap();
            if stop.sleep(period) {
                return;
            }
        })
        .expect("spawn housekeeper");
        Housekeeper { _worker: worker }
    }
}

impl<L: Link> fmt::Debug for SessionRegistry<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("SessionRegistry")
            .field("active", &stats.active)
            .field("draining", &stats.draining)
            .field("evicted_total", &stats.evicted_total)
            .finish()
    }
}

/// Handle to a registry housekeeper thread
/// ([`SessionRegistry::spawn_housekeeper`]); stops and joins it on
/// [`shutdown`](Housekeeper::shutdown) or drop, without waiting out the
/// current period.
pub struct Housekeeper {
    _worker: Worker,
}

impl Housekeeper {
    /// Stops the housekeeper and waits for its thread to exit.
    pub fn shutdown(self) {}
}

/// A serving thread turning incoming links into registered sessions:
/// polls [`Acceptor::accept_timeout`] so [`shutdown`](AcceptLoop::shutdown)
/// completes promptly without a poison connection, and
/// [`admit`](SessionRegistry::admit)s each accepted link. Dropping it
/// stops and joins the thread too.
pub struct AcceptLoop {
    worker: Worker<Accepted>,
}

impl AcceptLoop {
    /// Spawns the loop for one bound acceptor, admitting every connection
    /// into `registry`.
    #[must_use]
    pub fn spawn<A>(acceptor: A, registry: SessionRegistry<A::Link>) -> AcceptLoop
    where
        A: Acceptor + 'static,
    {
        let worker = spawn_accept_loop("serve-accept", acceptor, move |link| {
            registry.admit(link);
            None
        })
        .expect("spawn accept loop");
        AcceptLoop { worker }
    }

    /// Stops the loop and joins its thread, returning how many sessions
    /// it admitted. The acceptor is dropped (unbinding the address).
    pub fn shutdown(self) -> u64 {
        self.worker.shutdown().map_or(0, |done| done.links)
    }
}

impl fmt::Debug for AcceptLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcceptLoop")
            .field("stopped", &self.worker.is_finished())
            .finish()
    }
}

/// The producer-side pipeline stage of the serving tier: the
/// [`NetSendEnd`] whose sink is a session roster instead of one link. It
/// accepts [`WireBytes`](crate::WireBytes) and tees each sealed payload
/// into every registered session via [`SessionRegistry::broadcast`].
///
/// Broadcast control events go to every session's control lane; end of
/// stream starts a registry-wide drain (sessions flush their queues, get
/// a `Fin`, and are evicted). Per-session saturation readings come out
/// of the registry ([`SessionRegistry::take_readings`]), not the
/// pipeline's event bus.
pub type BroadcastSendEnd<L> = NetSendEnd<SessionRegistry<L>>;

impl<L: Link> sealed::Sealed for SessionRegistry<L> {}

impl<L: Link> SendSink for SessionRegistry<L> {
    fn transmit(&self, _post: KernelPost<'_>, frame: Frame) -> Option<SendStatus> {
        match frame {
            Frame::Data(bytes) => {
                self.broadcast(&bytes);
            }
            Frame::Fin => {
                self.drain_all();
                self.sweep();
            }
            ctrl_frame => self.broadcast_ctrl(&ctrl_frame),
        }
        None
    }
}
