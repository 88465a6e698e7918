//! Serving-tier capacity census: sessions versus aggregate throughput.
//!
//! Each row spins up the full serving tier — an `AcceptLoop` admitting
//! clients into a `SessionRegistry`, a broadcast loop teeing pooled
//! payloads into every session, sharded reader threads draining the
//! client links — and measures:
//!
//! * **aggregate bytes/sec**: payload bytes actually delivered to
//!   clients per wall-clock second, summed over all sessions,
//! * **payload copies**: the process-wide deep-copy counter
//!   ([`infopipes::payload_copy_count`]) across the broadcast phase.
//!   Fan-out is refcounted, so this must be **exactly 0** no matter how
//!   many sessions ride one producer — the capacity claim's teeth,
//! * **allocs/delivery**: heap allocations per delivered frame from the
//!   workspace's counting allocator (`counting_alloc`; published for
//!   context, the steady-state allocation story is `alloc_report`'s
//!   gate),
//! * **shed_total**: frames the registry shed (queue overflow or a
//!   refused send); a sustained row sheds none.
//!
//! The broadcaster runs closed loop: before each frame it waits until
//! fewer than `CREDIT` broadcast deliveries are unread, so no reader
//! falls a lane behind.
//!
//! The inproc ladder rises to 1024 concurrent sessions; a simulated-
//! network row and a real-socket TCP row prove the same path off the
//! in-process fast lane.
//!
//! Run with `cargo run --release -p infopipes-bench --bin fanout_report`.
//! Writes `BENCH_fanout.json` into the current directory. `--smoke`
//! shrinks frame counts for CI but keeps the 1024-session row and BOTH
//! hard gates: ≥ 1000 sessions sustained (every session active through
//! the whole broadcast phase, and `sessions × frames` delivered) and zero
//! payload copies. Every other row must be sustained too.

use counting_alloc::allocs;
use infopipes::{payload_copy_count, BufferPool};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcTransport, Link, RecvOutcome, ServeConfig, SessionRegistry,
    SimConfig, SimTransport, TcpTransport, Transport,
};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

const FRAME_BYTES: usize = 4096;
const READERS: usize = 4;
/// Unread deliveries the broadcaster lets stand before its next frame:
/// below the 256-frame inproc lane and the sim link's 1 MiB queue.
const CREDIT: u64 = 128;
const DEADLINE: Duration = Duration::from_secs(120);

struct CaseResult {
    name: String,
    transport: &'static str,
    sessions: usize,
    frames: usize,
    delivered: u64,
    aggregate_bytes_per_sec: f64,
    payload_copies: u64,
    allocs_per_delivery: f64,
    sustained: bool,
    min_session_sent: u64,
    /// Frames the registry shed: queue overflow or a refused send.
    shed_total: u64,
}

impl CaseResult {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"case\": \"{}\", \"transport\": \"{}\", \"sessions\": {}, ",
                "\"frames\": {}, \"frame_bytes\": {}, \"delivered\": {}, ",
                "\"aggregate_bytes_per_sec\": {:.0}, \"payload_copies\": {}, ",
                "\"allocs_per_delivery\": {:.4}, \"sustained\": {}, ",
                "\"min_session_sent\": {}, \"shed_total\": {}}}"
            ),
            self.name,
            self.transport,
            self.sessions,
            self.frames,
            FRAME_BYTES,
            self.delivered,
            self.aggregate_bytes_per_sec,
            self.payload_copies,
            self.allocs_per_delivery,
            self.sustained,
            self.min_session_sent,
            self.shed_total
        )
    }
}

/// Spawns `READERS` threads sharing the client links between them; each
/// drains its shard round-robin until every link in it has seen `Fin`.
/// Returns handles yielding (frames, bytes) delivered per shard. Every
/// lane polls at `Duration::ZERO`: each link's frames are already in its
/// receive queue.
///
/// Every delivered data frame also bumps `progress`, so the lane driver
/// can watch the reader side go quiet before starting the drain.
fn spawn_readers<L: Link>(
    links: Vec<L>,
    progress: &std::sync::Arc<AtomicU64>,
) -> Vec<std::thread::JoinHandle<(u64, u64)>> {
    let mut shards: Vec<Vec<L>> = (0..READERS).map(|_| Vec::new()).collect();
    for (i, link) in links.into_iter().enumerate() {
        shards[i % READERS].push(link);
    }
    shards
        .into_iter()
        .map(|shard| {
            let progress = std::sync::Arc::clone(progress);
            std::thread::spawn(move || {
                let mut open: Vec<L> = shard;
                let mut frames = 0u64;
                let mut bytes = 0u64;
                let mut deadline = Instant::now() + DEADLINE;
                while !open.is_empty() {
                    let mut progressed = false;
                    open.retain(|link| loop {
                        match link.recv(Duration::ZERO) {
                            RecvOutcome::Frame(Frame::Data(payload)) => {
                                frames += 1;
                                bytes += payload.len() as u64;
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
                (frames, bytes)
            })
        })
        .collect()
}

/// One fan-out row: accept `sessions` clients, broadcast `frames` pooled
/// payloads through the registry, drain to `Fin`, and report.
fn fanout_lane<T: Transport>(
    name: String,
    scheme: &'static str,
    transport: &T,
    addr: &str,
    sessions: usize,
    frames: usize,
) -> CaseResult {
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
    let progress = std::sync::Arc::new(AtomicU64::new(0));
    let readers = spawn_readers(clients, &progress);

    // The broadcast phase: one pooled, sealed payload per frame, teed to
    // every session by refcount. The counters around it are the claim.
    let pool = BufferPool::new();
    let body = vec![0xF0u8; FRAME_BYTES];
    let copies0 = payload_copy_count();
    let allocs0 = allocs();
    let t0 = Instant::now();
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
        let payload = buf.seal();
        registry.broadcast(&payload);
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
    // Then wait for the reader side to go quiet: a lossy transport like
    // the simulator delivers on its own clock, and control frames
    // overtake queued data at recv — so a Fin sent now would orphan
    // whatever is still in flight.
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
    let alloc_delta = allocs() - allocs0;

    let stats = registry.stats();
    let min_session_sent = registry
        .sessions()
        .iter()
        .map(|s| s.sent)
        .min()
        .unwrap_or(0);

    // Orderly teardown: drain every session to its Fin so readers exit.
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
    let (mut delivered, mut bytes) = (0u64, 0u64);
    for handle in readers {
        let (f, b) = handle.join().expect("reader thread");
        delivered += f;
        bytes += b;
    }
    let elapsed = t0.elapsed();
    accept.shutdown();

    // Sustained = nobody fell out of the roster mid-broadcast, and every
    // session got every frame: none shed, none starved.
    let sustained = stats.active == sessions
        && stats.evicted_total == 0
        && delivered == (sessions * frames) as u64;
    CaseResult {
        name,
        transport: scheme,
        sessions,
        frames,
        delivered,
        aggregate_bytes_per_sec: bytes as f64 / elapsed.as_secs_f64(),
        payload_copies,
        allocs_per_delivery: alloc_delta as f64 / delivered.max(1) as f64,
        sustained,
        min_session_sent,
        shed_total: stats.shed_total,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The 1024-session rung stays in smoke mode: the CI gate must prove
    // real thousand-client capacity, only with fewer frames per session.
    let (ladder, frames, sim_frames, tcp_frames): (&[usize], usize, usize, usize) = if smoke {
        (&[256, 1024], 48, 24, 48)
    } else {
        (&[16, 64, 256, 1024], 400, 200, 400)
    };

    let mut cases: Vec<CaseResult> = Vec::new();
    for &sessions in ladder {
        let transport = InProcTransport::with_capacity(256);
        cases.push(fanout_lane(
            format!("inproc_{sessions}"),
            "inproc",
            &transport,
            "fanout",
            sessions,
            frames,
        ));
    }

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
    cases.push(fanout_lane(
        "sim_64".to_owned(),
        "sim",
        &sim,
        "fanout",
        64,
        sim_frames,
    ));

    // Real sockets: the smoke-scale proof that the serving tier holds up
    // off the in-process fast path.
    cases.push(fanout_lane(
        "tcp_16".to_owned(),
        "tcp",
        &TcpTransport::new(),
        "127.0.0.1:0",
        16,
        tcp_frames,
    ));
    kernel.shutdown();

    println!(
        "{:>14} {:>9} {:>8} {:>10} {:>14} {:>8} {:>12} {:>6} {:>10}",
        "case",
        "sessions",
        "frames",
        "delivered",
        "agg MB/s",
        "copies",
        "allocs/dlv",
        "shed",
        "sustained"
    );
    for c in &cases {
        println!(
            "{:>14} {:>9} {:>8} {:>10} {:>14.2} {:>8} {:>12.4} {:>6} {:>10}",
            c.name,
            c.sessions,
            c.frames,
            c.delivered,
            c.aggregate_bytes_per_sec / 1e6,
            c.payload_copies,
            c.allocs_per_delivery,
            c.shed_total,
            c.sustained
        );
    }

    let rows: Vec<String> = cases.iter().map(CaseResult::json).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"fanout_report\",\n",
            "  \"note\": \"one producer broadcast to N sessions, closed loop (at most ",
            "{} unread deliveries before each frame); payload_copies must be 0 ",
            "(refcounted fan-out); sustained = no eviction and sessions x frames delivered\",\n",
            "  \"smoke\": {},\n  \"cases\": [\n{}\n  ]\n}}\n"
        ),
        CREDIT,
        smoke,
        rows.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_fanout.json").expect("create BENCH_fanout.json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote BENCH_fanout.json");

    // Hard gates — enforced in smoke mode too: this is the CI capacity
    // gate, not a tunable report.
    let mut failed = false;
    let peak = cases
        .iter()
        .filter(|c| c.transport == "inproc")
        .max_by_key(|c| c.sessions)
        .expect("inproc rows");
    if peak.sessions < 1000 || !peak.sustained {
        eprintln!(
            "FAIL: serving tier must sustain >= 1000 concurrent sessions \
             (got {} sessions, sustained = {})",
            peak.sessions, peak.sustained
        );
        failed = true;
    }
    for c in &cases {
        if c.payload_copies != 0 {
            eprintln!(
                "FAIL: {} deep-copied {} payloads — fan-out must be refcount-only",
                c.name, c.payload_copies
            );
            failed = true;
        }
        if !c.sustained {
            eprintln!(
                "FAIL: {} did not sustain all {} sessions: delivered {} of {} \
                 (min frames/session {}, shed {})",
                c.name,
                c.sessions,
                c.delivered,
                c.sessions * c.frames,
                c.min_session_sent,
                c.shed_total
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
