//! Every thread the link layer starts is gone once its owners are.
//!
//! For each backend: listen, connect, accept, bind both receive sides,
//! stream, run the serving tier's accept loop and housekeeper and an
//! inspector beside it — then drop everything and hold the process to
//! the thread count it started with. This is what proves the `Worker`
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
    AcceptLoop, Acceptor, Frame, InProcTransport, InspectClient, InspectServer, Link, ServeConfig,
    SessionRegistry, SimConfig, SimTransport, TcpTransport, Transport, UdpTransport, Unmarshal,
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
fn exercise<T: Transport>(kernel: &Kernel, transport: &T, addrs: [&str; 3]) {
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

    for i in 0..FRAMES {
        let frame = Frame::Data(netpipe::wire::to_payload(&i).expect("encode"));
        assert!(client.send(frame).accepted(), "frame {i}");
    }
    let deadline = Instant::now() + DEADLINE;
    while got.lock().len() < FRAMES as usize {
        assert!(Instant::now() < deadline, "stalled at {:?}", got.lock());
        std::thread::sleep(Duration::from_millis(2));
    }
    // An orderly end: the one way a datagram peer learns we are done.
    assert!(client.send(Frame::Fin).accepted());

    // The serving tier: an accept loop admitting one session, and a
    // housekeeper whose period only a stop request can cut short.
    let sessions = transport.listen(addrs[1]).expect("listen");
    let session_addr = sessions.local_addr();
    let registry = SessionRegistry::new(ServeConfig::default());
    let accept = AcceptLoop::spawn(sessions, registry.clone());
    let housekeeper = registry.spawn_housekeeper(Duration::from_secs(3600));
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

    drop((probe, inspector, viewer, housekeeper, accept, registry));
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
        exercise(k, &InProcTransport::new(), ["a", "b", "c"]);
    });
    run("sim", &|k| {
        let cfg = SimConfig {
            latency: Duration::from_millis(1),
            seed,
            ..SimConfig::default()
        };
        exercise(k, &SimTransport::new(k, cfg), ["a", "b", "c"]);
    });
    run("tcp", &|k| exercise(k, &TcpTransport::new(), sockets));
    run("udp", &|k| exercise(k, &UdpTransport::new(), sockets));
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a service thread panicked"
    );
}
