//! Session lifecycle coverage for the serving tier: refcounted fan-out,
//! slow-client isolation and eviction, mid-broadcast disconnects, and
//! the per-session feedback loop. A scripted stub [`Link`] drives the
//! lifecycle deterministically; a pipeline ending in a [`NetSendEnd`]
//! over the registry drives the tier the way a producer does; a
//! real-socket TCP smoke closes the loop end to end.

use infopipes::helpers::IterSource;
use infopipes::{
    payload_copy_count, BufferPool, ControlEvent, FreePump, InboxSender, PayloadBytes, Pipeline,
};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcTransport, Link, LinkStats, Marshal, NetSendEnd,
    PeerIdentity, RecvOutcome, SendStatus, ServeConfig, SessionRegistry, SessionState,
    TcpTransport, Transport, TransportError,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------
// A scripted link: the test controls readiness and send outcomes
// ---------------------------------------------------------------------

struct StubInner {
    /// Status data-lane sends report (accepted frames are retained).
    mode: Mutex<SendStatus>,
    /// What `send_ready` reports (false = a send would block).
    ready: AtomicBool,
    /// Data frames the link accepted, as a receiver would hold them.
    accepted: Mutex<Vec<PayloadBytes>>,
    fins: AtomicUsize,
    /// Armed by `hold_next_send`: the next data send reports on the
    /// first channel that it is inside the link, then waits on the second.
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

#[derive(Clone)]
struct StubLink {
    inner: Arc<StubInner>,
}

impl StubLink {
    fn new(mode: SendStatus, ready: bool) -> StubLink {
        StubLink {
            inner: Arc::new(StubInner {
                mode: Mutex::new(mode),
                ready: AtomicBool::new(ready),
                accepted: Mutex::new(Vec::new()),
                fins: AtomicUsize::new(0),
                gate: Mutex::new(None),
            }),
        }
    }

    /// Holds the next data send inside the link: the receiver hears when
    /// it got there, the sender lets it go on.
    fn hold_next_send(&self) -> (Receiver<()>, Sender<()>) {
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        *self.inner.gate.lock() = Some((held_tx, release_rx));
        (held_rx, release_tx)
    }

    fn set_ready(&self, ready: bool) {
        self.inner.ready.store(ready, Ordering::Release);
    }

    fn accepted(&self) -> Vec<PayloadBytes> {
        self.inner.accepted.lock().clone()
    }

    fn clear_accepted(&self) {
        self.inner.accepted.lock().clear();
    }

    fn fins(&self) -> usize {
        self.inner.fins.load(Ordering::Acquire)
    }
}

impl Link for StubLink {
    fn peer(&self) -> PeerIdentity {
        PeerIdentity::new("stub", "scripted")
    }

    fn send(&self, frame: Frame) -> SendStatus {
        match frame {
            Frame::Data(bytes) => {
                let gate = self.inner.gate.lock().take();
                if let Some((held, release)) = gate {
                    let _ = held.send(());
                    let _ = release.recv();
                }
                let status = *self.inner.mode.lock();
                if status.accepted() {
                    self.inner.accepted.lock().push(bytes);
                }
                status
            }
            Frame::Fin => {
                self.inner.fins.fetch_add(1, Ordering::AcqRel);
                SendStatus::Sent
            }
            Frame::Event(_) | Frame::Control(_) => SendStatus::Sent,
        }
    }

    fn send_ready(&self) -> bool {
        self.inner.ready.load(Ordering::Acquire)
    }

    fn recv(&self, _timeout: Duration) -> RecvOutcome {
        RecvOutcome::TimedOut
    }

    fn bind_receiver(
        &self,
        _inbox: Option<InboxSender>,
        _on_event: impl Fn(ControlEvent) + Send + 'static,
    ) -> Result<(), TransportError> {
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        LinkStats::default()
    }
}

fn small_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 8,
        saturation_window: 4,
        drain_deadline: Duration::from_millis(100),
    }
}

// ---------------------------------------------------------------------
// Fan-out is refcounted: N sessions, one allocation, zero copies
// ---------------------------------------------------------------------

#[test]
fn broadcast_shares_one_allocation_across_sessions() {
    const SESSIONS: usize = 100;
    let registry = SessionRegistry::new(ServeConfig::default());
    let links: Vec<StubLink> = (0..SESSIONS)
        .map(|_| {
            let link = StubLink::new(SendStatus::Sent, true);
            registry.admit(link.clone());
            link
        })
        .collect();

    let pool = BufferPool::new();
    let mut sealed = pool.acquire(512);
    sealed.buf_mut().extend_from_slice(&[0xAB; 512]);
    let payload = sealed.seal();
    // Our reference plus the pool's own tracking reference.
    let base_refs = payload.ref_count();

    let copies_before = payload_copy_count();
    assert_eq!(registry.broadcast(&payload), SESSIONS);
    assert_eq!(
        payload_copy_count(),
        copies_before,
        "fanning one frame out to {SESSIONS} sessions must deep-copy nothing"
    );

    // Every session received a refcounted view of the *same* allocation…
    for link in &links {
        let got = link.accepted();
        assert_eq!(got.len(), 1);
        assert!(got[0].shares_allocation_with(&payload));
        assert_eq!(got[0].as_ptr(), payload.as_ptr());
    }
    // …so the one buffer is held once more per session.
    assert_eq!(payload.ref_count(), base_refs + SESSIONS);

    // Releasing the receivers releases the buffer back to the baseline.
    for link in &links {
        link.clear_accepted();
    }
    assert_eq!(payload.ref_count(), base_refs);
    drop(payload);
    assert_eq!(pool.stats().outstanding, 0, "the pooled buffer came home");
}

// ---------------------------------------------------------------------
// A slow client degrades alone, then is force-evicted at the deadline
// ---------------------------------------------------------------------

#[test]
fn slow_client_is_isolated_and_force_evicted_at_the_drain_deadline() {
    let registry = SessionRegistry::new(small_config());
    let fast = StubLink::new(SendStatus::Sent, true);
    let slow = StubLink::new(SendStatus::Sent, false); // send would block
    let fast_id = registry.admit(fast.clone());
    let slow_id = registry.admit(slow.clone());

    for i in 0..20u8 {
        registry.broadcast(&PayloadBytes::from_vec(vec![i; 64]));
    }

    // The fast client got everything; the slow one stalled alone, its
    // queue capped at capacity with the overflow shed oldest-first.
    assert_eq!(fast.accepted().len(), 20);
    assert!(slow.accepted().is_empty());
    let snap = |id| {
        registry
            .sessions()
            .into_iter()
            .find(|s| s.id == id)
            .expect("session resident")
    };
    assert_eq!(snap(fast_id).sent, 20);
    assert_eq!(snap(slow_id).queued, 8, "queue bounded at capacity");
    assert_eq!(snap(slow_id).shed, 12, "overflow sheds the oldest frames");

    // Pressure shows up only in the slow session's readings.
    let readings = registry.take_readings();
    assert!(!readings.is_empty());
    for (id, fraction) in &readings {
        if *id == slow_id {
            assert!(*fraction > 0.5, "slow session must read as pressured");
        } else {
            assert_eq!(*fraction, 0.0, "fast session must read calm");
        }
    }
    assert!(readings.iter().any(|(id, _)| *id == slow_id));

    // Drain: the fast session flushes out immediately; the slow one
    // lingers in Draining until its deadline, then is force-evicted.
    registry.drain_all();
    registry.sweep();
    assert_eq!(snap(fast_id).state, SessionState::Evicted);
    assert_eq!(fast.fins(), 1, "orderly drain ends with a Fin");
    assert_eq!(snap(slow_id).state, SessionState::Draining);

    std::thread::sleep(Duration::from_millis(150));
    registry.sweep();
    let slow_snap = snap(slow_id);
    assert_eq!(slow_snap.state, SessionState::Evicted);
    assert_eq!(slow_snap.queued, 0, "force-eviction releases the queue");
    assert_eq!(slow_snap.shed, 20, "unsent frames count as shed");
    assert_eq!(slow.fins(), 1);

    assert_eq!(registry.reap(), 2);
    assert!(registry.is_empty());
    let stats = registry.stats();
    assert_eq!(stats.accepted_total, 2);
    assert_eq!(stats.evicted_total, 2);
}

// ---------------------------------------------------------------------
// A mid-broadcast disconnect evicts without leaking payload buffers
// ---------------------------------------------------------------------

#[test]
fn disconnected_client_is_evicted_mid_broadcast_without_leaking() {
    let registry = SessionRegistry::new(small_config());
    let alive_a = StubLink::new(SendStatus::Sent, true);
    let alive_b = StubLink::new(SendStatus::Sent, true);
    let gone = StubLink::new(SendStatus::Closed, true);
    registry.admit(alive_a.clone());
    registry.admit(alive_b.clone());
    let gone_id = registry.admit(gone.clone());

    let pool = BufferPool::new();
    let payload = {
        let mut buf = pool.acquire(256);
        buf.buf_mut().extend_from_slice(&[0x5A; 256]);
        buf.seal()
    };
    // Our reference plus the pool's own tracking reference.
    let base_refs = payload.ref_count();

    // The dead link surfaces Closed during the flush: its session is
    // evicted on the spot while the others receive the frame.
    registry.broadcast(&payload);
    let snapshot = registry
        .sessions()
        .into_iter()
        .find(|s| s.id == gone_id)
        .expect("resident until reaped");
    assert_eq!(snapshot.state, SessionState::Evicted);
    assert_eq!(alive_a.accepted().len(), 1);
    assert_eq!(alive_b.accepted().len(), 1);
    assert!(gone.accepted().is_empty());

    // Subsequent broadcasts reach only the survivors.
    assert_eq!(registry.broadcast(&payload), 2);
    assert_eq!(registry.stats().active, 2);

    // The evicted session holds no frame references: once the survivors
    // and our original release theirs, the pooled buffer is home.
    assert_eq!(
        payload.ref_count(),
        base_refs + 4,
        "2 survivors × 2 frames beyond the baseline"
    );
    alive_a.clear_accepted();
    alive_b.clear_accepted();
    drop(payload);
    registry.reap();
    assert_eq!(
        pool.stats().outstanding,
        0,
        "no payload buffer may leak through an eviction"
    );
}

// ---------------------------------------------------------------------
// Two flushers of one session cannot reorder its frames
// ---------------------------------------------------------------------

/// One round: two frames queue behind a link that is not ready; it
/// becomes ready, a broadcaster's first send is held inside the link,
/// and a sweep runs beside it.
fn flush_beside_a_held_send() {
    let registry = SessionRegistry::new(small_config());
    let link = StubLink::new(SendStatus::Sent, false);
    registry.admit(link.clone());
    let frames: Vec<PayloadBytes> = (0..3u8)
        .map(|i| PayloadBytes::from_vec(vec![i; 8]))
        .collect();
    registry.broadcast(&frames[0]);
    registry.broadcast(&frames[1]);
    assert!(link.accepted().is_empty(), "a stalled link keeps its queue");

    link.set_ready(true);
    let (held, release) = link.hold_next_send();
    let registry = &registry;
    std::thread::scope(|scope| {
        scope.spawn(|| registry.broadcast(&frames[2]));
        held.recv_timeout(DEADLINE)
            .expect("the broadcaster must reach the link");
        // Frame 0 is inside the link now. A flusher that sends outside
        // the session's lock pops frame 1 and overtakes it, and this
        // sweep returns; one that sends under the lock waits its turn,
        // and all there is to see of that is the sweep not returning.
        let (swept_tx, swept_rx) = mpsc::channel();
        scope.spawn(move || {
            registry.sweep();
            let _ = swept_tx.send(());
        });
        let _ = swept_rx.recv_timeout(Duration::from_millis(5));
        release.send(()).expect("the held send is still waiting");
    });
    let order: Vec<u8> = link.accepted().iter().map(|frame| frame[0]).collect();
    assert_eq!(order, [0, 1, 2], "the link must see broadcast order");
}

#[test]
fn concurrent_flushers_keep_a_sessions_frames_in_order() {
    let (done_tx, done_rx) = mpsc::channel();
    let rounds = std::thread::spawn(move || {
        for _ in 0..200 {
            flush_beside_a_held_send();
        }
        let _ = done_tx.send(());
    });
    if done_rx.recv_timeout(DEADLINE) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("a flusher hung");
    }
    if let Err(panic) = rounds.join() {
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------
// Per-session readings → controller bank → per-session drop levels
// ---------------------------------------------------------------------

#[test]
fn per_session_readings_drive_independent_drop_levels() {
    use feedback::readings::SEND_SATURATION;
    use feedback::{SessionControllerBank, SignalRule, UnifiedCongestionController};

    let registry = SessionRegistry::new(small_config());
    let fast = StubLink::new(SendStatus::Sent, true);
    let slow = StubLink::new(SendStatus::Sent, false);
    let fast_id = registry.admit(fast.clone());
    let slow_id = registry.admit(slow.clone());

    for i in 0..16u8 {
        registry.broadcast(&PayloadBytes::from_vec(vec![i; 32]));
    }

    // Close the loop: the registry's per-session readings feed a bank of
    // independent congestion controllers; commands come back per session.
    let mut bank = SessionControllerBank::new(|_| {
        UnifiedCongestionController::new().with_signal(SignalRule::new(SEND_SATURATION))
    });
    let commands = bank.observe_values(SEND_SATURATION, registry.take_readings());
    assert!(
        commands.iter().all(|(id, _)| *id == slow_id),
        "only the pressured session may be commanded: {commands:?}"
    );
    let mut slow_level = 0;
    for (id, command) in commands {
        if let ControlEvent::SetDropLevel(level) = command {
            registry.set_drop_level(id, level);
            slow_level = level;
        }
    }
    assert!(slow_level >= 1, "the slow session must be told to thin");

    // With the slow client recovered, its frames are now *thinned* at
    // the configured stride while the fast client still gets everything.
    slow.set_ready(true);
    let fast_before = fast.accepted().len();
    for i in 0..24u8 {
        registry.broadcast(&PayloadBytes::from_vec(vec![i; 32]));
    }
    let snap = |id| {
        registry
            .sessions()
            .into_iter()
            .find(|s| s.id == id)
            .expect("resident")
    };
    assert_eq!(fast.accepted().len(), fast_before + 24);
    assert_eq!(snap(fast_id).thinned, 0);
    assert!(
        snap(slow_id).thinned >= 16,
        "a thinning session skips most broadcast frames: {:?}",
        snap(slow_id)
    );
    assert_eq!(snap(fast_id).drop_level, 0);
    assert!(snap(slow_id).drop_level >= 1);
}

// ---------------------------------------------------------------------
// A producer pipeline drives the tier through a `NetSendEnd`
// ---------------------------------------------------------------------

#[test]
fn pipeline_broadcasts_events_and_frames_then_drains_every_session() {
    const SESSIONS: usize = 4;
    const FRAMES: u32 = 64;

    let transport = InProcTransport::new();
    let acceptor = transport.listen("studio").expect("listen");
    let registry = SessionRegistry::new(ServeConfig::default());
    let accept = AcceptLoop::spawn(acceptor, registry.clone());
    let clients: Vec<_> = (0..SESSIONS)
        .map(|_| transport.connect("studio").expect("connect"))
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().active < SESSIONS {
        assert!(Instant::now() < deadline, "sessions must be admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(accept.shutdown() as usize, SESSIONS);

    let kernel = Kernel::new(KernelConfig::default());
    let producer = Pipeline::new(&kernel, "producer");
    let src = producer.add_producer("src", IterSource::new("src", 0..FRAMES));
    let pump = producer.add_pump("pump", FreePump::new());
    let marshal = producer.add_function("marshal", Marshal::<u32>::new("marshal"));
    let fan_out = producer.add_consumer("fan-out", NetSendEnd::new("fan-out", registry.clone()));
    let _ = src >> pump >> marshal >> fan_out;
    let running = producer.start().expect("plan");

    // A broadcast control event reaches every session's control lane…
    running
        .send_event(ControlEvent::custom("tune", 0.25))
        .expect("send event");
    // …then the flow: every frame to every session, nothing deep-copied
    // between the marshaller's seal and the clients' hands.
    let copies_before = payload_copy_count();
    let eos = running.subscribe();
    running.start_flow().expect("start");
    assert!(eos.wait_for("eos", DEADLINE), "the source must run dry");

    for client in &clients {
        let mut events = Vec::new();
        let mut frames = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        loop {
            registry.sweep();
            match client.recv(Duration::from_millis(50)) {
                RecvOutcome::Frame(Frame::Data(bytes)) => {
                    frames.push(netpipe::wire::from_bytes::<u32>(&bytes).expect("decode"));
                }
                RecvOutcome::Frame(Frame::Event(ev)) => events.push(ev),
                RecvOutcome::Frame(other) => panic!("unexpected {other:?}"),
                RecvOutcome::Fin => break,
                RecvOutcome::Closed => panic!("a drained session ends with Fin"),
                RecvOutcome::TimedOut => {
                    assert!(Instant::now() < deadline, "stalled at {frames:?}");
                }
            }
        }
        assert_eq!(frames, (0..FRAMES).collect::<Vec<u32>>());
        assert_eq!(events, vec![ControlEvent::custom("tune", 0.25)]);
    }
    assert_eq!(payload_copy_count(), copies_before);

    // End of stream drained, finished and evicted every session (the
    // `Fin` a client saw leaves the sweeping thread before its count).
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().evicted_total < SESSIONS as u64 {
        assert!(Instant::now() < deadline, "{:?}", registry.stats());
        std::thread::yield_now();
    }
    let stats = registry.stats();
    assert_eq!(stats.sent_total, u64::from(FRAMES) * SESSIONS as u64);
    assert_eq!(stats.shed_total, 0);
    assert_eq!(registry.reap(), SESSIONS);
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// Real sockets: accept, fan out, drain — over TCP
// ---------------------------------------------------------------------

#[test]
fn tcp_fanout_smoke() {
    const CLIENTS: usize = 8;
    const FRAMES: usize = 20;

    let transport = TcpTransport::new();
    let acceptor = transport.listen("127.0.0.1:0").expect("listen");
    let addr = acceptor.local_addr();
    let registry = SessionRegistry::new(ServeConfig::default());
    let accept = AcceptLoop::spawn(acceptor, registry.clone());

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| transport.connect(&addr).expect("connect"))
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().active < CLIENTS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(registry.stats().active, CLIENTS);

    for i in 0..FRAMES {
        registry.broadcast(&PayloadBytes::from_vec(vec![i as u8; 1024]));
    }
    registry.drain_all();

    // Every client sees all frames in order, then the drain's Fin.
    for client in &clients {
        let mut got = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        loop {
            registry.sweep();
            match client.recv(Duration::from_millis(100)) {
                RecvOutcome::Frame(Frame::Data(bytes)) => {
                    got.push(bytes.as_slice()[0]);
                }
                RecvOutcome::Frame(_) => {}
                RecvOutcome::Fin | RecvOutcome::Closed => break,
                RecvOutcome::TimedOut => {
                    assert!(Instant::now() < deadline, "fan-out stalled at {got:?}");
                }
            }
        }
        assert_eq!(got, (0..FRAMES).map(|i| i as u8).collect::<Vec<u8>>());
    }

    let deadline = Instant::now() + DEADLINE;
    loop {
        registry.sweep();
        registry.reap();
        if registry.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "drain must complete");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(accept.shutdown() as usize, CLIENTS);
    assert_eq!(registry.stats().evicted_total, CLIENTS as u64);
}
