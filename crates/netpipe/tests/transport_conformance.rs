//! The shared transport-conformance suite (§2.4's pluggability,
//! enforced): every backend must satisfy the same four properties —
//! **ordering**, **backpressure on a full link**, **control-event
//! priority**, and **clean shutdown** — exercised through generic
//! helpers that know nothing about the backend beyond the [`Transport`]
//! and [`Link`] traits. A new backend earns its place by passing this
//! file with three added tests.
//!
//! "Ordering" binds a backend's *lossless default* configuration. A
//! backend may additionally offer deliberately degraded modes — the
//! simulator with `jitter > 0` reorders data frames like a real
//! datagram network — and those are exercised by the experiment suites
//! (Fig. 1), not here.

use infopipes::helpers::{CollectSink, FnFunction, IterSource};
use infopipes::{BufferSpec, ControlEvent, FreePump, PayloadBytes, Pipeline};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcTransport, Link, Marshal, PipelineTransportExt, RecvOutcome,
    SendStatus, ServeConfig, SessionRegistry, SimConfig, SimTransport, TcpTransport, Transport,
    UdpTransport, Unmarshal, WireBytes,
};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);

/// The simulator seed for this run: CI sweeps `SIM_SEED` over a small
/// matrix so timing-sensitive paths are exercised under several
/// deterministic schedules instead of hiding behind one lucky seed.
fn sim_seed() -> u64 {
    std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn data_frame(i: u32) -> Frame {
    Frame::Data(netpipe::wire::to_payload(&i).expect("encode"))
}

fn decode(bytes: &WireBytes) -> u32 {
    netpipe::wire::from_bytes(bytes).expect("decode")
}

/// Opens one connection: (client end, server end).
fn connect_pair<T: Transport>(transport: &T, addr: &str) -> (T::Link, T::Link) {
    let acceptor = transport.listen(addr).expect("listen");
    let bound = acceptor.local_addr();
    let client = transport.connect(&bound).expect("connect");
    let server = acceptor.accept().expect("accept");
    (client, server)
}

// ---------------------------------------------------------------------
// Property 1: data frames arrive in order, ending with Fin
// ---------------------------------------------------------------------

fn check_ordering<T: Transport>(transport: &T, addr: &str) {
    let (client, server) = connect_pair(transport, addr);
    for i in 0..200u32 {
        assert!(
            client.send(data_frame(i)).accepted(),
            "lossless-config send {i} must be accepted"
        );
    }
    assert_eq!(client.send(Frame::Fin), SendStatus::Sent);

    let mut got = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    loop {
        match server.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(Frame::Data(bytes)) => got.push(decode(&bytes)),
            RecvOutcome::Frame(_) => {}
            RecvOutcome::Fin => break,
            RecvOutcome::Closed => panic!("link closed before Fin ({} frames)", got.len()),
            RecvOutcome::TimedOut => {
                assert!(
                    Instant::now() < deadline,
                    "timed out after {} frames",
                    got.len()
                );
            }
        }
    }
    assert_eq!(got, (0..200).collect::<Vec<u32>>(), "in order, complete");
}

// ---------------------------------------------------------------------
// Property 2: a full link pushes back — and is honest about loss
// ---------------------------------------------------------------------

/// `lossy`: whether this backend sheds frames on overflow (sim, inproc)
/// or stalls the sender instead (tcp). A reliable backend must never
/// report `Dropped`; a lossy one must count its drops.
fn check_backpressure<T: Transport>(
    transport: &T,
    addr: &str,
    payload: usize,
    sends: usize,
    lossy: bool,
    drain: bool,
) {
    let (client, server) = connect_pair(transport, addr);

    // A deliberately slow reader (reliable backends need one so the
    // bounded send queue, not the test, is what fills up).
    let drain_thread = drain.then(|| {
        let server = server.clone();
        std::thread::spawn(move || {
            let mut frames = 0usize;
            let deadline = Instant::now() + DEADLINE;
            loop {
                match server.recv(Duration::from_millis(100)) {
                    RecvOutcome::Frame(Frame::Data(_)) => {
                        frames += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    RecvOutcome::Frame(_) => {}
                    RecvOutcome::Fin | RecvOutcome::Closed => return frames,
                    RecvOutcome::TimedOut => {
                        if Instant::now() >= deadline {
                            return frames;
                        }
                    }
                }
            }
        })
    });

    let mut pressured = false;
    let mut dropped = 0usize;
    for _ in 0..sends {
        match client.send(Frame::Data(PayloadBytes::from(vec![0u8; payload]))) {
            SendStatus::Sent => {}
            SendStatus::Saturated => pressured = true,
            SendStatus::Dropped => {
                pressured = true;
                dropped += 1;
            }
            SendStatus::Closed => panic!("link closed mid-burst"),
        }
    }
    assert!(
        pressured,
        "overrunning the link must surface a backpressure signal"
    );
    let stats = client.stats();
    if lossy {
        assert!(dropped > 0, "lossy backend must report drops");
        assert_eq!(stats.dropped as usize, dropped, "stats count the drops");
    } else {
        assert_eq!(dropped, 0, "reliable backend must never drop");
        assert_eq!(stats.dropped, 0, "{stats:?}");
    }

    if let Some(handle) = drain_thread {
        assert_eq!(client.send(Frame::Fin), SendStatus::Sent);
        let delivered = handle.join().expect("drain thread");
        if !lossy {
            assert_eq!(delivered, sends, "reliable backend delivers everything");
        }
    }
}

// ---------------------------------------------------------------------
// Property 3: control events overtake queued data
// ---------------------------------------------------------------------

fn check_event_priority<T: Transport>(transport: &T, addr: &str, payload: usize, sends: usize) {
    let (client, server) = connect_pair(transport, addr);
    for _ in 0..sends {
        let status = client.send(Frame::Data(PayloadBytes::from(vec![0u8; payload])));
        assert!(
            !matches!(status, SendStatus::Closed),
            "link must stay open during the burst"
        );
    }
    // The event is sent *after* every data frame…
    assert!(client
        .send(Frame::Event(netpipe::WireEvent::SetDropLevel(3)))
        .accepted());
    assert_eq!(client.send(Frame::Fin), SendStatus::Sent);

    // …yet must be observed before the data lane has fully drained.
    let mut event_after = None;
    let mut data_seen = 0usize;
    let deadline = Instant::now() + DEADLINE;
    loop {
        match server.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(Frame::Data(_)) => data_seen += 1,
            RecvOutcome::Frame(Frame::Event(ev)) => {
                assert_eq!(ev, netpipe::WireEvent::SetDropLevel(3));
                event_after.get_or_insert(data_seen);
            }
            RecvOutcome::Frame(_) => {}
            RecvOutcome::Fin => break,
            RecvOutcome::Closed => panic!("link closed before Fin"),
            RecvOutcome::TimedOut => {
                assert!(
                    Instant::now() < deadline,
                    "timed out ({data_seen} data frames)"
                );
            }
        }
    }
    let at = event_after.expect("the control event must arrive");
    assert!(
        at < data_seen,
        "control event must overtake queued data: seen after {at} of {data_seen} frames"
    );
}

// ---------------------------------------------------------------------
// Property 4: clean shutdown end to end
// ---------------------------------------------------------------------

/// `Fin` finishes a bound pipeline inbox (EOS reaches the sink), the
/// reverse direction keeps working, and sends after `Fin` report
/// `Closed`.
fn check_clean_shutdown<T: Transport>(transport: &T, addr: &str, kernel: &Kernel) {
    let (client, server) = connect_pair(transport, addr);

    let pipeline = Pipeline::new(kernel, "shutdown-consumer");
    let (inbox, inbox_sender) = pipeline.add_inbox("net-in", BufferSpec::bounded(256));
    let pump = pipeline.add_pump("pump", FreePump::new());
    let un = pipeline.add_function("unmarshal", Unmarshal::<u32>::new("unmarshal"));
    let (sink, out) = CollectSink::<u32>::new("sink");
    let sink = pipeline.add_consumer("sink", sink);
    let _ = inbox >> pump >> un >> sink;
    server
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind receiver");
    let running = pipeline.start().expect("plan");
    let events = running.subscribe();
    running.start_flow().expect("start");

    for i in 0..20u32 {
        assert!(client.send(data_frame(i)).accepted());
    }
    assert_eq!(client.send(Frame::Fin), SendStatus::Sent);

    // Everything lands, then the EOS control event sweeps the pipeline.
    let deadline = Instant::now() + DEADLINE;
    while out.lock().len() < 20 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(*out.lock(), (0..20).collect::<Vec<u32>>());
    let mut saw_eos = false;
    while Instant::now() < deadline {
        match events.recv_timeout(Duration::from_millis(100)) {
            Some(ControlEvent::Eos) => {
                saw_eos = true;
                break;
            }
            Some(_) => {}
            None => {}
        }
    }
    assert!(saw_eos, "Fin must finish the inbox and broadcast EOS");

    // The reverse direction outlives the forward Fin…
    assert!(server
        .send(Frame::Event(netpipe::WireEvent::SetRate(12.5)))
        .accepted());
    let deadline = Instant::now() + DEADLINE;
    loop {
        match client.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(Frame::Event(ev)) => {
                assert_eq!(ev, netpipe::WireEvent::SetRate(12.5));
                break;
            }
            RecvOutcome::Frame(_) => {}
            other => {
                assert!(
                    Instant::now() < deadline,
                    "reverse direction must stay open, got {other:?}"
                );
            }
        }
    }

    // …and the closed forward direction says so.
    assert_eq!(client.send(data_frame(99)), SendStatus::Closed);
}

// ---------------------------------------------------------------------
// Property 5: no payload mutation is observable after send
// ---------------------------------------------------------------------

/// A producer that keeps clones of every payload it sends must see them
/// byte-identical after delivery: payload buffers are immutable, so a
/// transport can never scribble on (or recycle) a buffer the
/// application still holds, and what was sent is what arrives.
fn check_payload_immutability<T: Transport>(transport: &T, addr: &str) {
    let (client, server) = connect_pair(transport, addr);
    let originals: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 257]).collect();
    let retained: Vec<PayloadBytes> = originals
        .iter()
        .map(|v| PayloadBytes::from_vec(v.clone()))
        .collect();
    for buf in &retained {
        assert!(client.send(Frame::Data(buf.clone())).accepted());
    }
    assert_eq!(client.send(Frame::Fin), SendStatus::Sent);

    let mut received = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    loop {
        match server.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(Frame::Data(bytes)) => received.push(bytes),
            RecvOutcome::Frame(_) => {}
            RecvOutcome::Fin => break,
            RecvOutcome::Closed => panic!("link closed before Fin"),
            RecvOutcome::TimedOut => assert!(Instant::now() < deadline, "timed out"),
        }
    }
    for (buf, original) in retained.iter().zip(&originals) {
        assert_eq!(
            buf.as_slice(),
            original.as_slice(),
            "sent buffers must be unchanged after delivery"
        );
    }
    for (got, original) in received.iter().zip(&originals) {
        assert_eq!(got.as_slice(), original.as_slice(), "delivered = sent");
    }
    assert_eq!(received.len(), originals.len());
}

// ---------------------------------------------------------------------
// Property 6: pool recycling never mutates a still-live alias
// ---------------------------------------------------------------------

/// Payloads sealed from a [`BufferPool`](infopipes::BufferPool) and sent
/// over the link must stay byte-stable through any later pool traffic: a
/// buffer is recycled only when its *last* reference drops, so poison
/// writes through fresh acquisitions can never land in a buffer an alias
/// still observes. Once the aliases release, the buffers must actually
/// return (recycling resumes with pool hits).
fn check_pooled_recycling<T: Transport>(transport: &T, addr: &str) {
    let pool = infopipes::BufferPool::new();
    let (client, server) = connect_pair(transport, addr);

    let mut aliases = Vec::new();
    for i in 0..20u8 {
        let mut buf = pool.acquire(64);
        buf.buf_mut().extend_from_slice(&[i; 64]);
        let sealed = buf.seal();
        aliases.push(sealed.clone());
        assert!(client.send(Frame::Data(sealed)).accepted());
    }
    assert_eq!(client.send(Frame::Fin), SendStatus::Sent);

    let deadline = Instant::now() + DEADLINE;
    loop {
        match server.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(_) => {}
            RecvOutcome::Fin => break,
            RecvOutcome::Closed => panic!("link closed before Fin"),
            RecvOutcome::TimedOut => assert!(Instant::now() < deadline, "timed out"),
        }
    }

    // Churn the pool: every acquisition scribbles. None of it may be
    // observable through the aliases still held above.
    for _ in 0..64 {
        let mut buf = pool.acquire(64);
        buf.buf_mut().extend_from_slice(&[0xEE; 64]);
        drop(buf.seal());
    }
    for (i, alias) in aliases.iter().enumerate() {
        assert_eq!(
            alias.as_slice(),
            &[i as u8; 64][..],
            "recycling must never mutate a still-live alias"
        );
    }

    // Released aliases return to the pool (the sender side may hold its
    // last internal reference a beat longer; poll for the handback).
    drop(aliases);
    let deadline = Instant::now() + DEADLINE;
    while pool.stats().outstanding > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(pool.stats().outstanding, 0, "all buffers must come home");
    let hits_before = pool.stats().hits;
    drop(pool.acquire(64));
    assert!(pool.stats().hits > hits_before, "recycling must resume");
}

// ---------------------------------------------------------------------
// Property 7 (inproc): the data path is zero-copy end to end
// ---------------------------------------------------------------------

/// Runs `src >> marshal >> NetSendEnd >> (inproc link) >> inbox >>
/// unmarshal >> sink` and proves by pointer identity that the payload
/// buffer sealed by the marshaller is the very allocation the
/// unmarshaller decodes from — zero payload copies across the send end,
/// the lock-free ring, the drain thread, and the inbox.
fn check_inproc_zero_copy(kernel: &Kernel) {
    use parking_lot::Mutex;
    use std::sync::Arc;

    let transport = InProcTransport::new();
    let acceptor = transport.listen("zero-copy").unwrap();
    let link = transport.connect("zero-copy").unwrap();
    let receiver_end = acceptor.accept().unwrap();

    let sent_ptrs: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let recv_ptrs: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));

    // Consumer side: record each frame's address right where the
    // unmarshaller borrows it.
    let consumer = Pipeline::new(kernel, "zc-consumer");
    let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(256));
    let pump_in = consumer.add_pump("pump-in", FreePump::new());
    let recv_ptrs2 = Arc::clone(&recv_ptrs);
    let tap_in = consumer.add_function(
        "tap-in",
        FnFunction::new("tap-in", move |b: PayloadBytes| {
            recv_ptrs2.lock().push(b.as_ptr() as usize);
            Some(b)
        }),
    );
    let un = consumer.add_function("unmarshal", Unmarshal::<u64>::new("unmarshal"));
    let (sink, out) = CollectSink::<u64>::new("sink");
    let sink = consumer.add_consumer("sink", sink);
    let _ = inbox >> pump_in >> tap_in >> un >> sink;
    receiver_end
        .bind_receiver(Some(inbox_sender), |_| {})
        .unwrap();
    let running_consumer = consumer.start().unwrap();
    running_consumer.start_flow().unwrap();

    // Producer side: record each sealed buffer's address as it leaves
    // the marshaller for the send end.
    let producer = Pipeline::new(kernel, "zc-producer");
    let src = producer.add_producer("src", IterSource::new("src", 0u64..50));
    let pump_out = producer.add_pump("pump-out", FreePump::new());
    let m = producer.add_function("marshal", Marshal::<u64>::new("marshal"));
    let sent_ptrs2 = Arc::clone(&sent_ptrs);
    let tap_out = producer.add_function(
        "tap-out",
        FnFunction::new("tap-out", move |b: PayloadBytes| {
            sent_ptrs2.lock().push(b.as_ptr() as usize);
            Some(b)
        }),
    );
    let send = producer.add_net_sink("send", &link);
    let _ = src >> pump_out >> m >> tap_out >> send;
    let running_producer = producer.start().unwrap();
    running_producer.start_flow().unwrap();

    let deadline = Instant::now() + DEADLINE;
    while out.lock().len() < 50 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(*out.lock(), (0u64..50).collect::<Vec<u64>>());
    let sent = sent_ptrs.lock().clone();
    let received = recv_ptrs.lock().clone();
    assert_eq!(sent.len(), 50);
    assert_eq!(
        sent, received,
        "every frame must arrive at the unmarshaller in the very \
         allocation the marshaller sealed (zero copies on the inproc lane)"
    );
}

// ---------------------------------------------------------------------
// Property 8: accept loops admit every connection and shut down cleanly
// ---------------------------------------------------------------------

/// An [`AcceptLoop`] over the backend's acceptor must turn every
/// connection into an active session, fan a broadcast frame out to all
/// of them, and — the part that needs [`Acceptor::accept_timeout`] —
/// shut down promptly without a poison connection, leaving the registry
/// drainable to empty.
fn check_accept_loop_shutdown<T: Transport>(transport: &T, addr: &str, clients: usize) {
    let acceptor = transport.listen(addr).expect("listen");
    let bound = acceptor.local_addr();
    let registry: SessionRegistry<T::Link> = SessionRegistry::new(ServeConfig::default());
    let accept = AcceptLoop::spawn(acceptor, registry.clone());

    let links: Vec<T::Link> = (0..clients)
        .map(|_| transport.connect(&bound).expect("connect"))
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while registry.stats().active < clients && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        registry.stats().active,
        clients,
        "every connection must become an active session"
    );

    // One broadcast reaches every session.
    let payload = PayloadBytes::from_vec(vec![7u8; 64]);
    assert_eq!(registry.broadcast(&payload), clients);
    for client in &links {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match client.recv(Duration::from_millis(100)) {
                RecvOutcome::Frame(Frame::Data(bytes)) => {
                    assert_eq!(bytes.as_slice(), &[7u8; 64][..]);
                    break;
                }
                RecvOutcome::Frame(_) => {}
                RecvOutcome::TimedOut => {
                    assert!(Instant::now() < deadline, "broadcast frame never arrived");
                }
                other => panic!("unexpected {other:?} before the broadcast frame"),
            }
        }
    }

    // Shutdown joins the loop thread (no hanging on a blocked accept).
    let admitted = accept.shutdown();
    assert_eq!(admitted as usize, clients);

    // Drain to empty: every session flushes, gets its Fin, and is reaped.
    registry.drain_all();
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
    let stats = registry.stats();
    assert_eq!(stats.accepted_total as usize, clients);
    assert_eq!(stats.evicted_total as usize, clients);
    for client in &links {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match client.recv(Duration::from_millis(100)) {
                RecvOutcome::Fin | RecvOutcome::Closed => break,
                RecvOutcome::Frame(_) => {}
                RecvOutcome::TimedOut => {
                    assert!(Instant::now() < deadline, "drain must deliver a Fin");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The four backends × the conformance properties
// ---------------------------------------------------------------------

#[test]
fn inproc_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    check_ordering(&InProcTransport::new(), "order");
    // An 8-slot ring: a 50-frame burst with nobody reading must drop.
    check_backpressure(
        &InProcTransport::with_capacity(8),
        "bp",
        64,
        50,
        true,
        false,
    );
    check_event_priority(&InProcTransport::new(), "prio", 64, 50);
    check_clean_shutdown(&InProcTransport::new(), "fin", &kernel);
    check_payload_immutability(&InProcTransport::new(), "immut");
    check_pooled_recycling(&InProcTransport::new(), "pool");
    check_inproc_zero_copy(&kernel);
    check_accept_loop_shutdown(&InProcTransport::new(), "accept", 8);
    kernel.shutdown();
}

#[test]
fn sim_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    let fast = |k: &Kernel| {
        SimTransport::new(
            k,
            SimConfig {
                latency: Duration::from_millis(1),
                seed: sim_seed(),
                ..SimConfig::default()
            },
        )
    };
    check_ordering(&fast(&kernel), "order");
    // 4 KB queue, 60 s latency: the fifth 1 KB frame overflows.
    check_backpressure(
        &SimTransport::new(
            &kernel,
            SimConfig {
                latency: Duration::from_secs(60),
                queue_bytes: 4096,
                seed: sim_seed(),
                ..SimConfig::default()
            },
        ),
        "bp",
        1024,
        10,
        true,
        false,
    );
    // 200 KB/s bandwidth queues ~5 ms of serialization per frame; the
    // control lane sees only the 1 ms latency.
    check_event_priority(
        &SimTransport::new(
            &kernel,
            SimConfig {
                latency: Duration::from_millis(1),
                bandwidth_bps: Some(200_000.0),
                seed: sim_seed(),
                ..SimConfig::default()
            },
        ),
        "prio",
        1024,
        50,
    );
    check_clean_shutdown(&fast(&kernel), "fin", &kernel);
    check_payload_immutability(&fast(&kernel), "immut");
    check_pooled_recycling(&fast(&kernel), "pool");
    check_accept_loop_shutdown(&fast(&kernel), "accept", 8);
    kernel.shutdown();
}

#[test]
fn tcp_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    check_ordering(&TcpTransport::new(), "127.0.0.1:0");
    // A 2-frame send queue of 256 KB frames against a slow reader: the
    // socket buffers fill, the queue fills, sends saturate — but TCP
    // never drops and everything is delivered.
    check_backpressure(
        &TcpTransport::with_send_queue(2),
        "127.0.0.1:0",
        256 * 1024,
        32,
        false,
        true,
    );
    // 16 × 256 KB swamps the socket buffers, so most data frames are
    // still in the local send queue when the event jumps it.
    check_event_priority(
        &TcpTransport::with_send_queue(64),
        "127.0.0.1:0",
        256 * 1024,
        16,
    );
    check_clean_shutdown(&TcpTransport::new(), "127.0.0.1:0", &kernel);
    check_payload_immutability(&TcpTransport::new(), "127.0.0.1:0");
    check_pooled_recycling(&TcpTransport::new(), "127.0.0.1:0");
    check_accept_loop_shutdown(&TcpTransport::new(), "127.0.0.1:0", 8);
    kernel.shutdown();
}

#[test]
fn udp_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    // 200 small datagrams over loopback arrive complete and in order —
    // the backend's lossless-default configuration.
    check_ordering(&UdpTransport::new(), "127.0.0.1:0");
    // Past the 60 KiB datagram ceiling: every 64 KiB frame is shed at the
    // send end and counted, the honest datagram analogue of a hard MTU.
    check_backpressure(
        &UdpTransport::new(),
        "127.0.0.1:0",
        64 * 1024,
        50,
        true,
        false,
    );
    // All data frames are drained into the receive queue before the
    // event is read, so control priority manifests at the receiver.
    check_event_priority(&UdpTransport::new(), "127.0.0.1:0", 1024, 50);
    check_clean_shutdown(&UdpTransport::new(), "127.0.0.1:0", &kernel);
    check_payload_immutability(&UdpTransport::new(), "127.0.0.1:0");
    check_pooled_recycling(&UdpTransport::new(), "127.0.0.1:0");
    check_accept_loop_shutdown(&UdpTransport::new(), "127.0.0.1:0", 8);
    kernel.shutdown();
}
