//! Every thread the link layer starts is gone once its owners are, and
//! every pooled buffer comes home once the frames are consumed.
//!
//! For each backend: listen, connect, accept, bind both receive sides,
//! stream frames sealed from a pool the test owns (that pool, and a
//! pooling backend's receive pool, must then have nothing checked out:
//! the sending side — writer, ring, simulated queue — let go of every
//! frame), run the serving tier's accept loop and an inspector beside it
//! — then drop everything and hold the process to the thread count it
//! started with. This is what proves the `Worker`
//! arrangement: owners join their service threads, and a worker that
//! ends up dropping its own last owner (the UDP flusher and reader, a
//! receive pump) neither leaks nor joins itself — a self-join panics
//! that worker, which the panic hook below turns into a failure. One
//! `#[test]`, so no sibling test's threads or panics blur the count.

#![cfg(target_os = "linux")]

use infopipes::helpers::CollectSink;
use infopipes::{BufferSpec, FreePump, Pipeline, StatsRegistry};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    wire, AcceptLoop, Acceptor, BufferPool, Frame, InProcTransport, InspectClient, InspectServer,
    Link, PoolStats, ServeConfig, SessionRegistry, SimConfig, SimTransport, TcpLink, TcpTransport,
    Transport, UdpLink, UdpTransport, Unmarshal,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);
const FRAMES: u32 = 40;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Drives every service thread a backend has, then lets go of all of it.
/// `pool` reads the receiving link's buffer pool, for backends that
/// receive into one.
fn exercise<T: Transport>(
    kernel: &Kernel,
    transport: &T,
    addrs: [&str; 3],
    pool: Option<fn(&T::Link) -> PoolStats>,
) {
    // A point-to-point link with both receive sides bound.
    let acceptor = transport.listen(addrs[0]).expect("listen");
    let client = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");

    let consumer = Pipeline::new(kernel, "consumer");
    let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(256));
    let pump = consumer.add_pump("pump", FreePump::new());
    let unmarshal = consumer.add_function("unmarshal", Unmarshal::<u32>::new("unmarshal"));
    let (sink, got) = CollectSink::<u32>::new("sink");
    let sink = consumer.add_consumer("sink", sink);
    let _ = inbox >> pump >> unmarshal >> sink;
    server
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind data side");
    client.bind_receiver(None, |_| {}).expect("bind event side");
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
    // The sink holds every frame, so no payload view is left downstream:
    // each buffer the receiver filled is back in its pool.
    if let Some(pool) = pool {
        let stats = pool(&server);
        assert!(
            stats.hits + stats.misses >= u64::from(FRAMES),
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
        exercise(k, &InProcTransport::new(), ["a", "b", "c"], None);
    });
    run("sim", &|k| {
        let cfg = SimConfig {
            latency: Duration::from_millis(1),
            seed,
            ..SimConfig::default()
        };
        exercise(k, &SimTransport::new(k, cfg), ["a", "b", "c"], None);
    });
    run("tcp", &|k| {
        exercise(k, &TcpTransport::new(), sockets, Some(TcpLink::pool_stats));
    });
    run("udp", &|k| {
        exercise(k, &UdpTransport::new(), sockets, Some(UdpLink::pool_stats));
    });
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a service thread panicked"
    );
}
