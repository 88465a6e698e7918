//! Every thread the link layer starts is gone once its owners are, and
//! every pooled buffer comes home once the frames are consumed.
//!
//! For each backend: listen, connect, accept, bind the server's receive
//! side to a pipeline, poll the client's and then bind it to events only
//! (`RemoteClient`'s pattern), stream frames sealed from a pool the test
//! owns (that pool, and a pooling backend's receive pool, must then have
//! nothing checked out: the sending side — writer, lane queue, simulated
//! queue — let go of every frame), run the serving tier's accept loop and
//! an inspector beside it — then drop everything and hold the process to
//! the thread count it started with.
//!
//! One thread rule holds on the way, with exact counts:
//!
//! * connect and accept start no thread (the simulator's connect starts
//!   the two direction kernel threads that are its network model);
//! * a link that reads its own socket (TCP, the UDP client) runs one
//!   reader, started when it is first polled or bound — none while
//!   nobody reads it, and no second one when a polled link is then
//!   bound. Any other link (inproc, sim, the UDP server) starts no thread
//!   when bound: the sender's thread, the simulator's kernel thread or
//!   the listener's reader delivers;
//! * a socket link's (TCP, UDP) first send starts exactly one writer,
//!   and later sends start none; inproc and sim start none. A link that
//!   only ever sends the drop's `Fin` starts none: that `Fin` goes out on
//!   the dropping thread;
//! * an events-only bound TCP client whose handles are all dropped takes
//!   its reader with it.
//!
//! This is what proves the `Worker` arrangement: owners join their
//! service threads, and a worker that ends up dropping its own last
//! owner (the UDP server's reader, a reader whose binding held the last
//! handle on its link) neither leaks nor joins itself — a self-join
//! panics that worker, which the panic hook below turns into a failure.
//! The kernel keeps the same rule for a polled coroutine: a shutdown while
//! one is blocked mid-`GET` drops its future, joins every OS thread and
//! brings home the pooled frame the future held.
//!
//! One `#[test]`, so no sibling test's threads or panics blur the count.

#![cfg(target_os = "linux")]

use infopipes::helpers::{ActiveRelay, CollectSink, FnFunction};
use infopipes::{
    ActiveCtx, ActiveObject, ActiveRun, BufferSpec, ControlEvent, FreePump, InboxSender, Item,
    PayloadBytes, Pipeline, Stage, StatsRegistry,
};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    wire, AcceptLoop, Acceptor, BufferPool, Frame, InProcTransport, InspectClient, InspectServer,
    Link, PoolStats, RecvOutcome, ServeConfig, SessionRegistry, SimConfig, SimTransport, TcpLink,
    TcpTransport, Transport, UdpLink, UdpTransport, Unmarshal,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);
const FRAMES: u32 = 40;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The sink's log, and how many received payloads were not pooled.
type Received = (Arc<Mutex<Vec<u32>>>, Arc<AtomicUsize>);

/// `inbox >> pump >> check >> unmarshal >> sink` on `kernel`, not yet
/// started: the pipeline, its inbox's sender and what it received.
fn consumer(kernel: &Kernel) -> (Pipeline, InboxSender, Received) {
    let consumer = Pipeline::new(kernel, "consumer");
    let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(256));
    let pump = consumer.add_pump("pump", FreePump::new());
    let unpooled = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&unpooled);
    let check = consumer.add_function(
        "check",
        FnFunction::new("check", move |bytes: PayloadBytes| {
            seen.fetch_add(usize::from(!bytes.is_pooled()), Ordering::Relaxed);
            Some(bytes)
        }),
    );
    let unmarshal = consumer.add_function("unmarshal", Unmarshal::<u32>::new("unmarshal"));
    let (sink, got) = CollectSink::<u32>::new("sink");
    let sink = consumer.add_consumer("sink", sink);
    let _ = inbox >> pump >> check >> unmarshal >> sink;
    (consumer, inbox_sender, (got, unpooled))
}

/// The thread rule for one backend: what its links start, and when.
#[derive(Copy, Clone)]
struct Threads {
    /// Started by a connect and its accept together.
    per_connection: usize,
    /// Which of (server, client) reads its own socket: such a link starts
    /// one reader when first read, and any other link none.
    own_reader: [bool; 2],
    /// Whether a link's first send starts a writer.
    writer: bool,
}

/// Inproc and sim links start no thread of their own.
const IN_PROCESS: Threads = Threads {
    per_connection: 0,
    own_reader: [false; 2],
    writer: false,
};

/// Drives every service thread a backend has, then lets go of all of it.
/// `pool` reads the receiving link's buffer pool, for backends that
/// receive into one. `threads` is the backend's thread rule, checked
/// exactly at each step that may start a thread.
fn exercise<T: Transport>(
    kernel: &Kernel,
    transport: &T,
    addrs: [&str; 3],
    pool: Option<fn(&T::Link) -> PoolStats>,
    threads: Threads,
) {
    let rule = |since: usize, expected: usize, step: &str| {
        let started = live_threads().saturating_sub(since);
        assert_eq!(
            started,
            expected,
            "{}: {step} started {started} threads",
            transport.scheme()
        );
    };
    // A point-to-point link with both receive sides bound.
    let acceptor = transport.listen(addrs[0]).expect("listen");
    let before = live_threads();
    let client = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");
    rule(before, threads.per_connection, "connect and accept");

    let (consumer, inbox_sender, (got, unpooled)) = consumer(kernel);
    let own_reader = threads.own_reader.map(usize::from);
    let before = live_threads();
    server
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind data side");
    rule(before, own_reader[0], "a bound server link");
    let before = live_threads();
    let _ = client.recv(Duration::ZERO);
    rule(before, own_reader[1], "a polled client link");
    client.bind_receiver(None, |_| {}).expect("bind event side");
    rule(before, own_reader[1], "a polled, then bound client link");
    let running = consumer.start().expect("plan");
    running.start_flow().expect("start");

    let send_pool = BufferPool::new();
    let frame = |i: u32| Frame::Data(wire::to_payload_in(&send_pool, 64, &i).expect("encode"));
    let before = live_threads();
    assert!(client.send(frame(0)).accepted(), "frame 0");
    rule(before, usize::from(threads.writer), "a link's first send");
    let before = live_threads();
    for i in 1..FRAMES {
        assert!(client.send(frame(i)).accepted(), "frame {i}");
    }
    rule(before, 0, "a link's later sends");
    let deadline = Instant::now() + DEADLINE;
    while got.lock().len() < FRAMES as usize {
        assert!(Instant::now() < deadline, "stalled at {:?}", got.lock());
        std::thread::sleep(Duration::from_millis(2));
    }
    // The sink holds every frame, so no part of the sending side may
    // still hold one: each buffer the test sealed is back in its pool.
    while send_pool.stats().outstanding > 0 {
        let stats = send_pool.stats();
        assert!(Instant::now() < deadline, "send buffers leak: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Every frame arrived in a pooled buffer: the test's own on a backend
    // that hands frames over, the receive pool's where a socket is read
    // (a send buffer never crosses one).
    assert_eq!(
        unpooled.load(Ordering::Relaxed),
        0,
        "frames bypassed the pools"
    );
    // The sink holds every frame, so no payload view is left downstream:
    // each buffer the receiver filled is back in its pool.
    if let Some(pool) = pool {
        let stats = pool(&server);
        assert!(
            stats.hits + stats.misses > 0,
            "frames bypassed the receive pool: {stats:?}"
        );
        while pool(&server).outstanding > 0 {
            let stats = pool(&server);
            assert!(Instant::now() < deadline, "receive buffers leak: {stats:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // An orderly end: the one way a datagram peer learns we are done.
    assert!(client.send(Frame::Fin).accepted());

    // The serving tier: an accept loop admitting one session.
    let sessions = transport.listen(addrs[1]).expect("listen");
    let session_addr = sessions.local_addr();
    let registry = SessionRegistry::new(ServeConfig::default());
    let accept = AcceptLoop::spawn(sessions, registry.clone());
    let viewer = transport.connect(&session_addr).expect("connect");
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().active < 1 {
        assert!(Instant::now() < deadline, "session must be admitted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The inspector: an accept loop plus one handler for our client.
    let control = transport.listen(addrs[2]).expect("listen");
    let control_addr = control.local_addr();
    let inspector = InspectServer::spawn(control, StatsRegistry::new());
    let probe = InspectClient::connect(transport, &control_addr).expect("connect");
    probe.fetch().expect("fetch");

    drop((probe, inspector, viewer, accept, registry));
    drop((client, server, acceptor, running));
}

/// An events-only binding does not hold its link: once every handle of a
/// bound TCP client is gone, so are its writer and reader, though the
/// peer (a bare socket, which starts no thread) keeps the connection
/// open and never sends a `Fin`.
fn abandoned_event_binding_leaves_no_thread() {
    let before = live_threads();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listen");
    let addr = listener.local_addr().expect("addr").to_string();
    let client = TcpTransport::new().connect(&addr).expect("connect");
    let (_peer, _) = listener.accept().expect("accept");
    client.bind_receiver(None, |_| {}).expect("bind event side");
    drop(client);
    settle(before, "tcp: an abandoned events-only binding");
}

/// A link that only ever sends the drop's `Fin` holds no thread of its
/// own while it lives, and its peer still reads that `Fin`: it went out
/// on the dropping thread.
fn fin_only_link_starts_no_writer<T: Transport>(transport: &T, addr: &str) {
    let acceptor = transport.listen(addr).expect("listen");
    let before = live_threads();
    let client = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");
    assert_eq!(
        live_threads(),
        before,
        "{}: a link that never sent holds a thread",
        transport.scheme()
    );
    drop(client);
    match server.recv(DEADLINE) {
        RecvOutcome::Fin => {}
        other => panic!(
            "{}: the drop's Fin must arrive, got {other:?}",
            transport.scheme()
        ),
    }
    drop((server, acceptor));
}

/// A bound link whose sending end goes without an explicit `Fin` still
/// ends the consumer's stream: the sender's drop finishes the inbox — at
/// once on inproc, on sim through the direction's kernel thread after the
/// data still in flight, and on TCP and UDP with the `Fin` the drop sends
/// behind the queued data.
fn dropped_sender_ends_the_stream<T: Transport>(kernel: &Kernel, transport: &T, addr: &str) {
    let acceptor = transport.listen(addr).expect("listen");
    let client = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");

    let (consumer, inbox_sender, (got, _)) = consumer(kernel);
    server
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind");
    let running = consumer.start().expect("plan");
    let events = running.subscribe();
    running.start_flow().expect("start");

    for i in 0..FRAMES {
        let frame = Frame::Data(wire::to_payload(&i).expect("encode"));
        assert!(client.send(frame).accepted(), "frame {i}");
    }
    drop(client);
    let deadline = Instant::now() + DEADLINE;
    while events.recv_timeout(Duration::from_millis(50)) != Some(ControlEvent::Eos) {
        assert!(
            Instant::now() < deadline,
            "a dropped sender must end the stream ({} frames)",
            got.lock().len()
        );
    }
    assert_eq!(*got.lock(), (0..FRAMES).collect::<Vec<u32>>());
    drop((server, acceptor, running));
}

/// An active object that passes items on in pairs: it holds the first of
/// each pair while it asks for the second.
struct Pairs;

impl Stage for Pairs {}

impl ActiveObject for Pairs {
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            while let Some(first) = ctx.get().await {
                let Some(second) = ctx.get().await else { break };
                ctx.put(first).await;
                ctx.put(second).await;
            }
        })
    }
}

/// `inbox >> relay >> pairs >> pump >> sink`: the two active objects are
/// polled coroutines in pull position. One pooled frame goes in; `pairs`
/// takes it and asks `relay` for a second, which waits on the empty
/// inbox. The kernel is then shut down with `pairs` blocked mid-`GET`,
/// the frame held by its future.
fn polled_coroutine_blocked_mid_get(kernel: &Kernel, pool: &BufferPool) {
    let pipeline = Pipeline::new(kernel, "polled");
    let (inbox, sender) = pipeline.add_inbox("in", BufferSpec::bounded(4));
    let relay = pipeline.add_active("relay", ActiveRelay::new("relay"));
    let pairs = pipeline.add_active("pairs", Pairs);
    let pump = pipeline.add_pump("pump", FreePump::new());
    let (sink, got) = CollectSink::<PayloadBytes>::new("sink");
    let _ = inbox >> relay >> pairs >> pump >> pipeline.add_consumer("sink", sink);
    let running = pipeline.start().expect("plan");
    let report = running.report().to_string();
    assert_eq!(report.matches("coroutine polled").count(), 2, "{report}");
    running.start_flow().expect("start");
    let bytes = wire::to_payload_in(pool, 64, &7u32).expect("encode");
    assert!(sender.put(Item::bytes(bytes)));
    kernel.wait_quiescent();
    assert!(got.lock().is_empty());
    assert_eq!(pool.stats().outstanding, 1, "`pairs` holds the frame");
}

fn settle(baseline: usize, backend: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while live_threads() > baseline {
        assert!(
            Instant::now() < deadline,
            "{backend}: {} threads outlive their owners",
            live_threads() - baseline
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_backend_returns_to_its_thread_baseline() {
    let seed = std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        eprintln!("{info}");
    }));
    let baseline = live_threads();
    let run = |backend: &str, body: &dyn Fn(&Kernel)| {
        let kernel = Kernel::new(KernelConfig::default());
        body(&kernel);
        kernel.shutdown();
        settle(baseline, backend);
    };
    let sockets = ["127.0.0.1:0"; 3];
    run("inproc", &|k| {
        exercise(
            k,
            &InProcTransport::new(),
            ["a", "b", "c"],
            None,
            IN_PROCESS,
        );
        dropped_sender_ends_the_stream(k, &InProcTransport::new(), "dropped");
    });
    run("sim", &|k| {
        let cfg = SimConfig {
            latency: Duration::from_millis(1),
            seed,
            ..SimConfig::default()
        };
        let transport = SimTransport::new(k, cfg);
        // A connection's two direction kernel threads are the network
        // model; the links start nothing beyond them.
        let threads = Threads {
            per_connection: 2,
            ..IN_PROCESS
        };
        exercise(k, &transport, ["a", "b", "c"], None, threads);
        dropped_sender_ends_the_stream(k, &transport, "dropped");
    });
    run("tcp", &|k| {
        let threads = Threads {
            per_connection: 0,
            own_reader: [true; 2],
            writer: true,
        };
        let pool = Some(TcpLink::pool_stats as fn(&TcpLink) -> PoolStats);
        exercise(k, &TcpTransport::new(), sockets, pool, threads);
        abandoned_event_binding_leaves_no_thread();
        fin_only_link_starts_no_writer(&TcpTransport::new(), sockets[0]);
        dropped_sender_ends_the_stream(k, &TcpTransport::new(), sockets[0]);
    });
    // The UDP server link is fed by the listener's reader; the client
    // reads its own socket.
    run("udp", &|k| {
        let threads = Threads {
            per_connection: 0,
            own_reader: [false, true],
            writer: true,
        };
        let pool = Some(UdpLink::pool_stats as fn(&UdpLink) -> PoolStats);
        exercise(k, &UdpTransport::new(), sockets, pool, threads);
        fin_only_link_starts_no_writer(&UdpTransport::new(), sockets[0]);
        dropped_sender_ends_the_stream(k, &UdpTransport::new(), sockets[0]);
    });
    let pool = BufferPool::new();
    run("polled", &|k| polled_coroutine_blocked_mid_get(k, &pool));
    assert_eq!(pool.stats().outstanding, 0, "the held frame leaks");
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a service thread panicked"
    );
}
