//! Serving-tier capacity: one producer broadcast to many sessions.
//!
//! Each rung spins up the full serving tier — an `AcceptLoop` admitting
//! clients into a `SessionRegistry`, a broadcaster teeing pooled payloads
//! into every session, four reader threads draining the client links —
//! and holds it to three gates:
//!
//! * the largest inproc rung has at least 1 000 sessions;
//! * every rung is sustained: no session is evicted, and `sessions ×
//!   frames` data frames reach the clients;
//! * every rung makes 0 payload copies ([`infopipes::payload_copy_count`]
//!   across the broadcast phase): fan-out is by refcount, no matter how
//!   many sessions ride one producer.
//!
//! The broadcaster runs closed loop: before each frame it waits until
//! fewer than `CREDIT` broadcast deliveries are unread, so no reader
//! falls a lane behind. The inproc rungs are 256 and 1 024 sessions at 48
//! frames; a simulated-network rung and a real-socket TCP rung prove the
//! same path off the in-process fast lane.

use infopipes::{payload_copy_count, BufferPool};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcTransport, Link, RecvOutcome, ServeConfig, SessionRegistry,
    SimConfig, SimTransport, TcpTransport, Transport,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_BYTES: usize = 4096;
const READERS: usize = 4;
/// Unread deliveries the broadcaster lets stand before its next frame:
/// below the 256-frame inproc lane and the sim link's 1 MiB queue.
const CREDIT: u64 = 128;
const DEADLINE: Duration = Duration::from_secs(120);

/// What one rung measured.
#[derive(Debug)]
struct Rung {
    name: String,
    sessions: usize,
    frames: usize,
    /// Sessions active when the broadcast phase ended.
    active: usize,
    evicted: u64,
    /// Data frames the clients received.
    delivered: u64,
    payload_copies: u64,
}

impl Rung {
    /// No session fell out of the roster, and every session got every
    /// frame: none shed, none starved.
    fn sustained(&self) -> bool {
        self.active == self.sessions
            && self.evicted == 0
            && self.delivered == (self.sessions * self.frames) as u64
    }
}

/// Spawns `READERS` threads sharing the client links between them; each
/// drains its shard round-robin until every link in it has seen `Fin`.
/// Returns handles yielding the data frames each shard received. Every
/// lane polls at `Duration::ZERO`: each link's frames are already in its
/// receive queue.
///
/// Every delivered data frame also bumps `progress`, so the broadcaster
/// can hold its credit and the rung can watch the reader side go quiet.
fn spawn_readers<L: Link>(
    links: Vec<L>,
    progress: &Arc<AtomicU64>,
) -> Vec<std::thread::JoinHandle<u64>> {
    let mut shards: Vec<Vec<L>> = (0..READERS).map(|_| Vec::new()).collect();
    for (i, link) in links.into_iter().enumerate() {
        shards[i % READERS].push(link);
    }
    shards
        .into_iter()
        .map(|mut open| {
            let progress = Arc::clone(progress);
            std::thread::spawn(move || {
                let mut frames = 0u64;
                let mut deadline = Instant::now() + DEADLINE;
                while !open.is_empty() {
                    let mut progressed = false;
                    open.retain(|link| loop {
                        match link.recv(Duration::ZERO) {
                            RecvOutcome::Frame(Frame::Data(_)) => {
                                frames += 1;
                                progress.fetch_add(1, Ordering::Relaxed);
                                progressed = true;
                            }
                            RecvOutcome::Frame(_) => progressed = true,
                            RecvOutcome::TimedOut => return true,
                            RecvOutcome::Fin | RecvOutcome::Closed => return false,
                        }
                    });
                    if progressed {
                        deadline = Instant::now() + DEADLINE;
                    } else {
                        assert!(Instant::now() < deadline, "readers starved");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                frames
            })
        })
        .collect()
}

/// One fan-out rung: accept `sessions` clients, broadcast `frames` pooled
/// payloads through the registry, drain to `Fin`, and report.
fn fanout_rung<T: Transport>(
    name: &str,
    transport: &T,
    addr: &str,
    sessions: usize,
    frames: usize,
) -> Rung {
    let acceptor = transport.listen(addr).expect("listen");
    let bound = acceptor.local_addr();
    let registry: SessionRegistry<T::Link> = SessionRegistry::new(ServeConfig {
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let accept = AcceptLoop::spawn(acceptor, registry.clone());

    let clients: Vec<T::Link> = (0..sessions)
        .map(|_| transport.connect(&bound).expect("connect"))
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().active < sessions {
        assert!(Instant::now() < deadline, "{name}: sessions never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let progress = Arc::new(AtomicU64::new(0));
    let readers = spawn_readers(clients, &progress);

    // The broadcast phase: one pooled, sealed payload per frame, teed to
    // every session by refcount.
    let pool = BufferPool::new();
    let body = vec![0xF0u8; FRAME_BYTES];
    let copies0 = payload_copy_count();
    for i in 0..frames {
        // Closed loop: the next frame waits until fewer than `CREDIT` of
        // the deliveries already broadcast are unread. No session then
        // lags by `CREDIT` frames, so none overflows its lane and sheds.
        let deadline = Instant::now() + DEADLINE;
        while (i * sessions) as u64 - progress.load(Ordering::Relaxed) >= CREDIT {
            assert!(Instant::now() < deadline, "{name}: readers stalled");
            registry.sweep();
            std::thread::sleep(Duration::from_micros(100));
        }
        let mut buf = pool.acquire(FRAME_BYTES);
        buf.buf_mut().extend_from_slice(&body);
        registry.broadcast(&buf.seal());
        if i % 16 == 0 {
            registry.sweep();
        }
    }
    // Settle: flush every queue dry so each frame has reached its link.
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().queued_frames > 0 {
        assert!(Instant::now() < deadline, "{name}: queues never drained");
        registry.sweep();
        std::thread::sleep(Duration::from_millis(1));
    }
    // Then wait for the reader side to go quiet: the simulator delivers
    // on its own clock, and control frames overtake queued data at recv,
    // so a `Fin` sent now would orphan whatever is still in flight.
    let deadline = Instant::now() + DEADLINE;
    let mut last = progress.load(Ordering::Relaxed);
    let mut quiet = 0;
    while quiet < 5 {
        std::thread::sleep(Duration::from_millis(5));
        let now = progress.load(Ordering::Relaxed);
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
        assert!(
            Instant::now() < deadline,
            "{name}: readers never went quiet"
        );
    }
    let payload_copies = payload_copy_count() - copies0;
    let stats = registry.stats();

    // Orderly teardown: drain every session to its `Fin` so readers exit.
    registry.drain_all();
    let deadline = Instant::now() + DEADLINE;
    loop {
        registry.sweep();
        registry.reap();
        if registry.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "{name}: drain never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let delivered = readers
        .into_iter()
        .map(|handle| handle.join().expect("reader thread"))
        .sum();
    accept.shutdown();
    Rung {
        name: name.to_owned(),
        sessions,
        frames,
        active: stats.active,
        evicted: stats.evicted_total,
        delivered,
        payload_copies,
    }
}

#[test]
fn a_thousand_sessions_are_sustained_without_a_payload_copy() {
    let mut rungs: Vec<Rung> = [256, 1024]
        .into_iter()
        .map(|sessions| {
            let transport = InProcTransport::with_capacity(256);
            fanout_rung(
                &format!("inproc_{sessions}"),
                &transport,
                "fanout",
                sessions,
                48,
            )
        })
        .collect();
    let peak = rungs.last().expect("inproc rungs").sessions;

    // Simulated network: every link crosses the kernel-driven simulator
    // with 1 ms latency under the real-time clock.
    let kernel = Kernel::new(KernelConfig::default());
    let sim = SimTransport::new(
        &kernel,
        SimConfig {
            latency: Duration::from_millis(1),
            ..SimConfig::default()
        },
    );
    rungs.push(fanout_rung("sim_64", &sim, "fanout", 64, 24));
    // Real sockets, off the in-process fast path.
    rungs.push(fanout_rung(
        "tcp_16",
        &TcpTransport::new(),
        "127.0.0.1:0",
        16,
        48,
    ));
    kernel.shutdown();

    assert!(peak >= 1000, "the largest inproc rung has {peak} sessions");
    for rung in &rungs {
        assert!(rung.sustained(), "{} not sustained: {rung:?}", rung.name);
        assert_eq!(
            rung.payload_copies, 0,
            "{}: fan-out must be refcount-only",
            rung.name
        );
    }
}
