//! Allocation and syscall gates for the steady-state frame path.
//!
//! The workspace's counting allocator (`counting_alloc`) tallies every
//! heap allocation in the process; socket-write syscalls come from the
//! transports' `wire_writes` counter (each entry is one `write`/`writev`
//! on the wire). Each case drives a warm-up pass first, then measures
//! the deltas over the frames (or items) that follow:
//!
//! * **inproc_pooled** — pooled sealing (`wire::to_payload_in`) → inproc
//!   lane queue → `recv` → decode → drop-recycles, in a tight loop with
//!   no scheduler and no threads: exactly 0 allocations and 0 socket
//!   writes per frame.
//! * **chain_direct** — the paper's direct chain: a `u64` source, a pump,
//!   eight function stages and a sink, all direct calls on one kernel
//!   thread: exactly 0 allocations per item.
//! * **chain_coroutine** — the same chain with every second stage an
//!   active relay: four coroutines, eight context switches per item, all
//!   polled on the pump's OS thread. Each `GET` and `PUT` carries its
//!   requester's box, which comes back with the reply: exactly 0
//!   allocations per item here too.
//! * **pipeline_inproc** — the full scheduled pipeline: producer pump,
//!   net sink, the sender delivering into the bound inbox, consumer pump,
//!   sink. The hand-off, the pump cycle and the `PayloadBytes` and `u64`
//!   items allocate nothing in the steady state; what is left is set-up
//!   and the occasional wake-up: at most 0.25 allocations per frame (an
//!   `Item` that boxed its value again would read about 2).
//! * **tcp_batched** — 256-byte frames over loopback TCP, the sender
//!   outrunning the wire. The writer coalesces up to 64 queued frames per
//!   `writev` (at most 0.25 socket writes per frame; one that stopped
//!   coalescing makes one per frame), the send and receive pools keep
//!   what the stream holds in flight (at most 0.5 allocations per
//!   frame), and the reader seals each socket read, not each frame, into
//!   one receive-pool buffer (at most 0.5 buffers per frame).
//!
//! The event counts are process-wide, so the cases run in sequence in
//! one test, the thread-free one first: a second test running beside it
//! would move them. `cargo test -p infopipes-bench --test alloc_gates --
//! --nocapture` prints each case's figures.

use counting_alloc::allocs;
use infopipes::helpers::{ActiveRelay, CollectSink, FnFunction, FnSink, IterSource};
use infopipes::{BufferPool, BufferSpec, FreePump, PayloadBytes, Pipeline};
use mbthread::{Kernel, KernelConfig};
use netpipe::wire;
use netpipe::{
    Acceptor, Frame, InProcTransport, Link, PipelineTransportExt, RecvOutcome, TcpLink,
    TcpTransport, Transport,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

const INPROC_FRAMES: usize = 200_000;
const CHAIN_ITEMS: usize = 200_000;
const PIPELINE_FRAMES: usize = 20_000;
const TCP_FRAMES: usize = 30_000;

/// `count` events spread over `frames`.
fn per_frame(count: u64, frames: usize) -> f64 {
    count as f64 / frames as f64
}

/// One round trip over the inproc lane primitives: seal a `u64` into a
/// pooled buffer, send it as a data frame, receive it back, decode, and
/// let the drop recycle.
fn inproc_step(pool: &BufferPool, link: &impl Link, server: &impl Link, i: u64) {
    let payload = wire::to_payload_in(pool, 64, &i).expect("seal");
    assert!(link.send(Frame::Data(payload)).accepted(), "lane full");
    match server.recv(Duration::from_secs(5)) {
        RecvOutcome::Frame(Frame::Data(p)) => {
            let back: u64 = wire::from_bytes(&p).expect("decode");
            assert_eq!(back, i, "round trip");
        }
        other => panic!("expected data frame, got {other:?}"),
    }
}

/// `inproc_pooled`: returns the allocations and socket writes over
/// `frames` round trips.
fn inproc_pooled(frames: usize) -> (u64, u64) {
    let transport = InProcTransport::with_capacity(64);
    let acceptor = transport.listen("alloc-lane").unwrap();
    let link = transport.connect("alloc-lane").unwrap();
    let server = acceptor.accept().unwrap();
    let pool = BufferPool::new();

    // Warm-up: first touches allocate (pool classes, the lane's deque,
    // lazy thread-locals); the steady state must not.
    for i in 0..(frames / 4).max(16) {
        inproc_step(&pool, &link, &server, i as u64);
    }
    let a0 = allocs();
    for i in 0..frames {
        inproc_step(&pool, &link, &server, i as u64);
    }
    (allocs() - a0, link.stats().wire_writes)
}

/// The paper's chain on a `u64` source: a pump, eight stages and a sink.
/// Direct, the stages are functions adding one, all called on one
/// kernel thread; with coroutines, every second stage is an active relay.
/// The sink reads the allocation count when the warm-up's last item and
/// the run's last item arrive, so the delta spans exactly the measured
/// items, on the thread that moves them. Returns the planned thread count
/// and the allocations over `items`.
fn chain(coroutines: bool, items: usize) -> (usize, u64) {
    type Marks = Mutex<[Option<u64>; 2]>;
    const STAGES: u64 = 8;
    let adders = if coroutines { STAGES / 2 } else { STAGES };
    let warm = (items as u64 / 4).max(16);
    let total = warm + items as u64;
    let marks: Arc<Marks> = Arc::new(Mutex::new([None; 2]));
    let wrong = Arc::new(AtomicU64::new(0));
    let kernel = Kernel::new(KernelConfig::default());
    let threads = {
        let pipeline = Pipeline::new(&kernel, "chain");
        let mut prev = pipeline.add_producer("source", IterSource::new("source", 0..total))
            >> pipeline.add_pump("pump", FreePump::new());
        for i in 0..STAGES {
            let name = format!("s{i}");
            prev = prev
                >> if coroutines && i % 2 == 1 {
                    pipeline.add_active(&name, ActiveRelay::new(&name))
                } else {
                    pipeline.add_function(&name, FnFunction::new(&name, |x: u64| Some(x + 1)))
                };
        }
        let (sink_marks, sink_wrong) = (Arc::clone(&marks), Arc::clone(&wrong));
        let sink = FnSink::new("sink", move |v: u64, seq: u64| {
            if v != seq + adders {
                sink_wrong.fetch_add(1, Ordering::Relaxed);
            }
            let slot = match seq + 1 {
                n if n == warm => 0,
                n if n == total => 1,
                _ => return,
            };
            sink_marks.lock().expect("marks")[slot] = Some(allocs());
        });
        let _ = prev >> pipeline.add_consumer("sink", sink);
        let running = pipeline.start().unwrap();
        running.start_flow().unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while marks.lock().expect("marks")[1].is_none() {
            assert!(Instant::now() < deadline, "chain stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        running.report().total_threads()
    };
    kernel.shutdown();
    assert_eq!(wrong.load(Ordering::Relaxed), 0, "wrong values delivered");
    let [Some(a0), Some(a1)] = *marks.lock().expect("marks") else {
        unreachable!("both marks are set once the last item arrived")
    };
    (threads, a1 - a0)
}

/// `pipeline_inproc`, the full scheduled path (producer pump → net sink
/// → the sending thread's delivery into the bound inbox → consumer pump
/// → sink): returns the allocations over `frames`.
fn pipeline_inproc(frames: usize) -> u64 {
    let kernel = Kernel::new(KernelConfig::default());
    let delta = {
        let transport = InProcTransport::with_capacity(2 * frames.max(1024));
        let acceptor = transport.listen("lane").unwrap();
        let link = transport.connect("lane").unwrap();
        let receiver_end = acceptor.accept().unwrap();

        let template = PayloadBytes::from_vec(vec![0x5Au8; 64]);
        let inputs: Vec<PayloadBytes> = (0..frames).map(|_| template.clone()).collect();

        let consumer = Pipeline::new(&kernel, "consumer");
        let (inbox, inbox_sender) =
            consumer.add_inbox("net-in", BufferSpec::bounded(2 * frames.max(1024)));
        let pump_in = consumer.add_pump("pump-in", FreePump::new());
        let count = consumer.add_function(
            "count",
            FnFunction::new("count", |b: PayloadBytes| Some(b.len() as u64)),
        );
        let (sink, out) = CollectSink::<u64>::new("sink");
        let sink = consumer.add_consumer("sink", sink);
        let _ = inbox >> pump_in >> count >> sink;
        receiver_end
            .bind_receiver(Some(inbox_sender), |_| {})
            .unwrap();
        let running_consumer = consumer.start().unwrap();
        running_consumer.start_flow().unwrap();

        let producer = Pipeline::new(&kernel, "producer");
        let src = producer.add_producer("src", IterSource::new("src", inputs));
        let pump_out = producer.add_pump("pump-out", FreePump::new());
        let send = producer.add_net_sink("send", &link);
        let _ = src >> pump_out >> send;
        let running_producer = producer.start().unwrap();

        let a0 = allocs();
        running_producer.start_flow().unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while out.lock().len() < frames {
            assert!(Instant::now() < deadline, "pipeline stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        allocs() - a0
    };
    kernel.shutdown();
    delta
}

/// `tcp_batched`'s three figures, per frame.
struct TcpBatched {
    allocs: f64,
    rx_buffers: f64,
    wire_writes: f64,
}

/// Drives `frames` 256-byte data frames over loopback TCP while a
/// consumer thread drains the far end. Allocations and receive-pool
/// buffers are per measured frame; socket writes are per frame the
/// sender's link sent (its `Fin` included).
fn tcp_batched(frames: usize) -> TcpBatched {
    const FRAME_BYTES: usize = 256;
    let transport = TcpTransport::new();
    let acceptor = transport.listen("127.0.0.1:0").unwrap();
    let link = transport.connect(&acceptor.local_addr()).unwrap();
    let server = acceptor.accept().unwrap();
    let receiver = server.clone();
    let rx_buffers = || {
        let stats = TcpLink::pool_stats(&receiver);
        stats.hits + stats.misses
    };
    let pool = BufferPool::new();

    // Consumer: count data frames until the stream's `Fin`.
    let consumer = std::thread::spawn(move || {
        let mut got = 0usize;
        let mut last_frame = Instant::now();
        loop {
            match server.recv(Duration::from_millis(500)) {
                RecvOutcome::Frame(frame) => {
                    got += usize::from(matches!(frame, Frame::Data(_)));
                    last_frame = Instant::now();
                }
                RecvOutcome::Fin | RecvOutcome::Closed => return got,
                RecvOutcome::TimedOut => assert!(
                    last_frame.elapsed() < Duration::from_secs(30),
                    "receiver starved"
                ),
            }
        }
    });

    // Data frames carry already-marshalled bytes (`inproc_pooled`
    // exercises the marshalling path); the sender seals the template out
    // of the pool, so the wire is the measured cost.
    let body = vec![0xC3u8; FRAME_BYTES];
    let send_one = || {
        let mut buf = pool.acquire(FRAME_BYTES);
        buf.buf_mut().extend_from_slice(&body);
        // A full send queue waits for the writer to make room: every
        // frame is accepted.
        assert!(
            link.send(Frame::Data(buf.seal())).accepted(),
            "send refused"
        );
    };

    let warm = (frames / 10).max(16);
    for _ in 0..warm {
        send_one();
    }
    let buffers_before = rx_buffers();
    let a0 = allocs();
    let before = link.stats();
    for _ in 0..frames {
        send_one();
    }
    assert!(link.send(Frame::Fin).accepted(), "fin refused");
    let got = consumer.join().expect("consumer thread");
    let allocated = allocs() - a0;
    let after = link.stats();
    assert_eq!(got, warm + frames, "TCP delivers every frame");
    TcpBatched {
        allocs: per_frame(allocated, frames),
        rx_buffers: per_frame(rx_buffers() - buffers_before, frames),
        wire_writes: per_frame(
            after.wire_writes - before.wire_writes,
            (after.sent - before.sent).max(1) as usize,
        ),
    }
}

#[test]
fn steady_state_frame_paths_stay_within_their_allocation_and_syscall_gates() {
    // Thread-free first: nothing else may allocate while the
    // zero-allocation loop is measured.
    let (allocated, writes) = inproc_pooled(INPROC_FRAMES);
    println!(
        "inproc_pooled: {allocated} allocs, {writes} socket writes over {INPROC_FRAMES} frames"
    );
    assert_eq!(
        (allocated, writes),
        (0, 0),
        "a warmed pooled lane allocates and writes nothing"
    );

    // The paper's direct chain: no item allocates, not even rarely.
    let (threads, allocated) = chain(false, CHAIN_ITEMS);
    println!("chain_direct: {threads} thread(s), {allocated} allocs over {CHAIN_ITEMS} items");
    assert_eq!(threads, 1, "a direct chain is one thread");
    assert_eq!(allocated, 0, "chain_direct allocates per item");

    // Four active objects: a coroutine hand-off allocates nothing either.
    let (threads, allocated) = chain(true, CHAIN_ITEMS);
    println!("chain_coroutine: {threads} thread(s), {allocated} allocs over {CHAIN_ITEMS} items");
    assert_eq!(threads, 5, "the pump's thread and one per active relay");
    assert_eq!(allocated, 0, "chain_coroutine allocates per item");

    // The scheduled pipeline boxes no item: what it allocates is set-up
    // and wake-ups spread over the frames.
    let allocs_per_frame = per_frame(pipeline_inproc(PIPELINE_FRAMES), PIPELINE_FRAMES);
    println!("pipeline_inproc: {allocs_per_frame:.4} allocs per frame");
    assert!(
        allocs_per_frame <= 0.25,
        "pipeline_inproc makes {allocs_per_frame:.4} allocs per frame > 0.25"
    );

    let tcp = tcp_batched(TCP_FRAMES);
    println!(
        "tcp_batched: {:.4} allocs, {:.4} receive-pool buffers, {:.4} socket writes per frame",
        tcp.allocs, tcp.rx_buffers, tcp.wire_writes
    );
    // The pools keep the frames in flight: what is left is per-write
    // bookkeeping in the writer, spread over a batch.
    assert!(
        tcp.allocs <= 0.5,
        "tcp_batched makes {:.4} allocs per frame > 0.5",
        tcp.allocs
    );
    // The reader seals a read, not a frame, into a receive-pool buffer:
    // a batched stream lands many frames per read.
    assert!(
        tcp.rx_buffers <= 0.5,
        "tcp_batched takes {:.4} receive-pool buffers per frame > 0.5",
        tcp.rx_buffers
    );
    // The writer coalesces what the sender queues while it writes.
    assert!(
        tcp.wire_writes <= 0.25,
        "tcp_batched makes {:.4} socket writes per frame > 0.25",
        tcp.wire_writes
    );
}
