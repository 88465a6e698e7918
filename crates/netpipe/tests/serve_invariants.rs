//! Accounting invariants of the [`SessionRegistry`] under concurrent
//! admit / broadcast / evict / drain traffic — the contract the live
//! inspector ([`netpipe::inspect`]) relies on when it samples
//! [`SessionRegistry::stats`] and [`SessionRegistry::sessions`] from an
//! unsynchronized observer thread:
//!
//! * lifetime counters (`accepted_total`, `evicted_total`) are monotone
//!   and never let evictions outrun admissions,
//! * resident-state accounting stays within the admitted population,
//! * the final ledger balances: every enqueued frame was either sent or
//!   shed, and every admitted session is eventually evicted,
//! * reaped (evicted) sessions leave the roster snapshot,
//! * every snapshot balances *exactly* while frames move — a session's
//!   counters and queue depth are read under its one lock:
//!   `enqueued == sent + shed + queued`,
//! * end of stream retires a large roster in one pass per call.

use infopipes::{ControlEvent, InboxSender};
use netpipe::{
    Frame, Link, LinkStats, PeerIdentity, RecvOutcome, SendStatus, ServeConfig, SessionId,
    SessionRegistry, SessionState, TransportError,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);

/// The smallest possible always-accepting link: every data frame is
/// counted as sent, every Fin acknowledged (and counted).
#[derive(Clone, Default)]
struct MiniLink {
    fins: Arc<AtomicUsize>,
}

impl Link for MiniLink {
    fn peer(&self) -> PeerIdentity {
        PeerIdentity::new("stub", "mini")
    }
    fn send(&self, frame: Frame) -> SendStatus {
        if matches!(frame, Frame::Fin) {
            self.fins.fetch_add(1, Ordering::Relaxed);
        }
        SendStatus::Sent
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

#[test]
fn registry_accounting_survives_concurrent_lifecycle_churn() {
    const ADMITTERS: usize = 2;
    const PER_ADMITTER: usize = 150;
    const TOTAL: u64 = (ADMITTERS * PER_ADMITTER) as u64;

    let registry: SessionRegistry<MiniLink> = SessionRegistry::new(ServeConfig {
        queue_capacity: 4,
        drain_deadline: Duration::from_millis(50),
        ..ServeConfig::default()
    });
    // Ids admitted but not yet claimed by the evictor/drainer.
    let pending: Arc<Mutex<Vec<SessionId>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::new();

    for _ in 0..ADMITTERS {
        let registry = registry.clone();
        let pending = Arc::clone(&pending);
        threads.push(std::thread::spawn(move || {
            for i in 0..PER_ADMITTER {
                let id = registry.admit(MiniLink::default());
                pending.lock().unwrap().push(id);
                if i % 8 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }

    // A broadcaster keeps frames moving through session queues.
    {
        let registry = registry.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let payload = netpipe::wire::to_payload(&0xAB_u32).expect("encode");
            while !stop.load(Ordering::Acquire) {
                registry.broadcast(&payload);
                registry.sweep();
                std::thread::yield_now();
            }
        }));
    }

    // An evictor and a drainer each claim sessions and retire them (an
    // id is claimed exactly once, so eviction totals stay checkable).
    for evict in [true, false] {
        let registry = registry.clone();
        let pending = Arc::clone(&pending);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let claimed = pending.lock().unwrap().pop();
                match claimed {
                    Some(id) if evict => registry.evict(id),
                    Some(id) => registry.drain(id),
                    None => std::thread::yield_now(),
                }
            }
        }));
    }

    // The observer: what the inspector's sampler closure does, from an
    // unsynchronized thread, while everything above churns. No reap
    // runs during this phase, so roster-summed totals are monotone too.
    let admitters_done = Instant::now() + DEADLINE;
    let mut prev_accepted = 0u64;
    let mut prev_evicted = 0u64;
    let mut prev_enqueued = 0u64;
    let mut prev_retired = 0u64;
    loop {
        let stats = registry.stats();
        assert!(
            stats.accepted_total >= prev_accepted,
            "accepted_total regressed: {} -> {}",
            prev_accepted,
            stats.accepted_total
        );
        assert!(
            stats.evicted_total >= prev_evicted,
            "evicted_total regressed: {} -> {}",
            prev_evicted,
            stats.evicted_total
        );
        assert!(
            stats.evicted_total <= stats.accepted_total,
            "evictions cannot outrun admissions"
        );
        assert!(stats.accepted_total <= TOTAL);
        let resident = stats.connecting + stats.active + stats.draining + stats.evicted_resident;
        assert!(
            resident as u64 <= stats.accepted_total,
            "resident sessions ({resident}) exceed admissions ({})",
            stats.accepted_total
        );
        assert!(stats.enqueued_total >= prev_enqueued, "enqueued regressed");
        let retired = stats.sent_total + stats.shed_total;
        assert!(retired >= prev_retired, "sent+shed regressed");
        prev_accepted = stats.accepted_total;
        prev_evicted = stats.evicted_total;
        prev_enqueued = stats.enqueued_total;
        prev_retired = retired;

        // The roster snapshot carries each resident session once.
        let roster = registry.sessions();
        let ids: HashSet<SessionId> = roster.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), roster.len(), "duplicate session in snapshot");

        if stats.accepted_total == TOTAL {
            break;
        }
        assert!(Instant::now() < admitters_done, "admitters stalled");
    }

    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("worker");
    }

    // Quiesce: retire every remaining session and flush the drains.
    for snap in registry.sessions() {
        if snap.state != SessionState::Evicted {
            registry.drain(snap.id);
        }
    }
    let deadline = Instant::now() + DEADLINE;
    loop {
        registry.sweep();
        let stats = registry.stats();
        if stats.evicted_total == TOTAL {
            break;
        }
        assert!(Instant::now() < deadline, "sessions failed to drain out");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The pre-reap ledger balances exactly.
    let stats = registry.stats();
    assert_eq!(stats.accepted_total, TOTAL);
    assert_eq!(stats.evicted_total, TOTAL);
    assert_eq!(stats.evicted_resident as u64, TOTAL);
    assert_eq!(stats.connecting + stats.active + stats.draining, 0);
    assert_eq!(stats.queued_frames, 0, "evicted queues must be empty");
    assert_eq!(
        stats.enqueued_total,
        stats.sent_total + stats.shed_total,
        "every enqueued frame must be either sent or shed"
    );

    // Reap removes the evicted sessions from the roster snapshot while
    // the lifetime counters keep counting them.
    assert_eq!(registry.reap(), TOTAL as usize);
    assert!(
        registry.sessions().is_empty(),
        "reaped roster must be empty"
    );
    let stats = registry.stats();
    assert_eq!(stats.accepted_total, TOTAL);
    assert_eq!(stats.evicted_total, TOTAL);
    assert_eq!(stats.evicted_resident, 0);
}

/// A link whose answer changes with every `send_ready`: ready and
/// `Sent`, not ready, ready and `Dropped`, and round again.
#[derive(Clone, Default)]
struct FlakyLink {
    asked: Arc<AtomicUsize>,
}

impl Link for FlakyLink {
    fn peer(&self) -> PeerIdentity {
        PeerIdentity::new("stub", "flaky")
    }
    fn send_ready(&self) -> bool {
        self.asked.fetch_add(1, Ordering::Relaxed) % 3 != 1
    }
    fn send(&self, _frame: Frame) -> SendStatus {
        if self.asked.load(Ordering::Relaxed).is_multiple_of(3) {
            SendStatus::Dropped
        } else {
            SendStatus::Sent
        }
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

#[test]
fn every_snapshot_balances_exactly_while_frames_move() {
    const SESSIONS: usize = 8;
    const FRAMES: u32 = 20_000;

    let registry: SessionRegistry<FlakyLink> = SessionRegistry::new(ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    for _ in 0..SESSIONS {
        registry.admit(FlakyLink::default());
    }
    let done = AtomicBool::new(false);

    let observed = std::thread::scope(|scope| {
        scope.spawn(|| {
            let payload = netpipe::wire::to_payload(&0xCD_u32).expect("encode");
            for frame in 0..FRAMES {
                registry.broadcast(&payload);
                if frame % 4 == 0 {
                    registry.sweep();
                }
            }
            done.store(true, Ordering::Release);
        });

        // The inspector's sampler, unsynchronised with the broadcaster.
        let mut observed = 0u64;
        loop {
            let finished = done.load(Ordering::Acquire);
            for snap in registry.sessions() {
                assert_eq!(
                    snap.enqueued,
                    snap.sent + snap.shed + snap.queued as u64,
                    "a snapshot is one instant of its session: {snap:?}"
                );
                observed += 1;
            }
            let stats = registry.stats();
            assert_eq!(
                stats.enqueued_total,
                stats.sent_total + stats.shed_total + stats.queued_frames as u64,
                "totals are sums of per-session instants: {stats:?}"
            );
            if finished {
                return observed;
            }
        }
    });
    assert!(observed >= SESSIONS as u64);

    // Every path was taken: sent, shed (link drops and overflow), queued.
    let stats = registry.stats();
    assert_eq!(stats.enqueued_total, u64::from(FRAMES) * SESSIONS as u64);
    assert!(stats.sent_total > 0 && stats.shed_total > 0, "{stats:?}");
}

#[test]
fn end_of_stream_retires_a_large_roster() {
    const SESSIONS: usize = 2048;

    let registry = SessionRegistry::new(ServeConfig::default());
    let links: Vec<MiniLink> = (0..SESSIONS)
        .map(|_| {
            let link = MiniLink::default();
            registry.admit(link.clone());
            link
        })
        .collect();
    assert_eq!(registry.stats().active, SESSIONS);

    // What a `Fin` through `BroadcastSendEnd` runs.
    registry.drain_all();
    registry.sweep();
    assert_eq!(registry.stats().evicted_resident, SESSIONS);
    assert_eq!(registry.reap(), SESSIONS);
    assert!(registry.is_empty());
    for link in &links {
        assert_eq!(link.fins.load(Ordering::Relaxed), 1, "one Fin each");
    }
    assert_eq!(registry.stats().evicted_total, SESSIONS as u64);
}
