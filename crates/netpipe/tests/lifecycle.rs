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
//! One thread rule holds on the way. A link that reads its own socket
//! (TCP, the UDP client) runs one reader, started when it is first
//! polled or bound — none while nobody reads it, and no second one when
//! a polled link is then bound. Any other link (inproc, sim, the UDP
//! server) starts no thread when bound: the sender's thread, the
//! simulator's kernel thread or the listener's reader delivers. And an
//! events-only bound TCP client whose handles are all dropped takes its
//! reader with it.
//!
//! This is what proves the `Worker` arrangement: owners join their
//! service threads, and a worker that ends up dropping its own last
//! owner (the UDP flusher and readers, a reader whose binding held the
//! last handle on its link) neither leaks nor joins itself — a self-join
//! panics that worker, which the panic hook below turns into a failure.
//! One `#[test]`, so no sibling test's threads or panics blur the count.

#![cfg(target_os = "linux")]

use infopipes::helpers::{CollectSink, FnFunction};
use infopipes::{
    BufferSpec, ControlEvent, FreePump, InboxSender, PayloadBytes, Pipeline, StatsRegistry,
};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    wire, AcceptLoop, Acceptor, BufferPool, Frame, InProcTransport, InspectClient, InspectServer,
    Link, PoolStats, ServeConfig, SessionRegistry, SimConfig, SimTransport, TcpLink, TcpTransport,
    Transport, UdpLink, UdpTransport, Unmarshal,
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

/// Drives every service thread a backend has, then lets go of all of it.
/// `pool` reads the receiving link's buffer pool, for backends that
/// receive into one. `own_reader` says which of (server, client) reads
/// its own socket: by the thread rule such a link starts one reader
/// when first read, and any other link none.
fn exercise<T: Transport>(
    kernel: &Kernel,
    transport: &T,
    addrs: [&str; 3],
    pool: Option<fn(&T::Link) -> PoolStats>,
    own_reader: [bool; 2],
) {
    // A point-to-point link with both receive sides bound.
    let acceptor = transport.listen(addrs[0]).expect("listen");
    let client = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");

    let (consumer, inbox_sender, (got, unpooled)) = consumer(kernel);
    let rule = |since: usize, own: bool, link: &str| {
        let started = live_threads().saturating_sub(since);
        assert_eq!(
            started,
            usize::from(own),
            "{}: {link} started {started} threads",
            transport.scheme()
        );
    };
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
    for i in 0..FRAMES {
        let frame = Frame::Data(wire::to_payload_in(&send_pool, 64, &i).expect("encode"));
        assert!(client.send(frame).accepted(), "frame {i}");
    }
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

/// A bound link whose sending end goes without a `Fin` still ends the
/// consumer's stream, with no receive thread left to notice the link
/// closing: the sender's drop finishes the inbox, at once on inproc, and
/// on sim through the direction's kernel thread after the data still in
/// flight.
fn dropped_sender_ends_the_stream<T: Transport>(kernel: &Kernel, transport: &T) {
    let acceptor = transport.listen("dropped").expect("listen");
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
            [false; 2],
        );
        dropped_sender_ends_the_stream(k, &InProcTransport::new());
    });
    run("sim", &|k| {
        let cfg = SimConfig {
            latency: Duration::from_millis(1),
            seed,
            ..SimConfig::default()
        };
        let transport = SimTransport::new(k, cfg);
        exercise(k, &transport, ["a", "b", "c"], None, [false; 2]);
        dropped_sender_ends_the_stream(k, &transport);
    });
    run("tcp", &|k| {
        exercise(
            k,
            &TcpTransport::new(),
            sockets,
            Some(TcpLink::pool_stats),
            [true; 2],
        );
        abandoned_event_binding_leaves_no_thread();
    });
    // The UDP server link is fed by the listener's reader; the client
    // reads its own socket.
    run("udp", &|k| {
        exercise(
            k,
            &UdpTransport::new(),
            sockets,
            Some(UdpLink::pool_stats),
            [false, true],
        );
    });
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a service thread panicked"
    );
}
