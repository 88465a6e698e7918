//! Allocation and syscall census for the steady-state frame path.
//!
//! The workspace's counting allocator (`counting_alloc`) tallies every
//! heap allocation in the process; socket-write syscalls come from
//! the transports' `wire_writes` counter (each entry is one `write`/
//! `writev`/`sendto` on the wire). Each case drives a warm-up pass first,
//! then measures the per-frame deltas:
//!
//! * **inproc_pooled** — the zero-allocation claim: pooled sealing
//!   (`wire::to_payload_in`) → inproc lane queue → `recv` → decode →
//!   drop-recycles, in a tight loop. After warm-up this is *exactly* 0
//!   allocations and 0 socket writes per frame, and the run fails (exit
//!   1) otherwise.
//! * **inproc_unpooled** — the same loop sealing through `wire::to_payload`
//!   (fresh `Vec` + `Arc` per frame), for contrast. Published only. It
//!   runs faster than the pooled loop: the pool costs two uncontended
//!   lock round trips and a `Weak` upgrade per frame, more than two
//!   thread-cache malloc/free pairs, so it buys zero allocations, not
//!   speed.
//! * **chain_direct** — the paper's direct chain: a `u64` source, a
//!   pump, eight function stages and a sink, all direct calls on one
//!   thread. After warm-up an item allocates nothing: exactly 0
//!   allocations per item, and the run fails (exit 1) otherwise. A
//!   "frame" is an item here.
//! * **chain_coroutine** — the same chain with every second stage an
//!   active relay: four coroutines, eight context switches per item, all
//!   polled on the pump's OS thread. Each `GET` and `PUT` carries its
//!   requester's box, which comes back with the reply, so after warm-up
//!   an item allocates nothing here either: exactly 0 allocations per
//!   item, and the run fails (exit 1) otherwise.
//! * **pipeline_inproc** — the full scheduled pipeline: producer pump,
//!   net sink, the sender delivering into the bound inbox, consumer pump,
//!   sink. The kernel hand-off, the pump cycle and the `PayloadBytes` and
//!   `u64` items it carries allocate nothing in the steady state; what is
//!   left is set-up and the occasional wake-up. The run fails (exit 1)
//!   above 0.25 allocations per frame.
//! * **tcp_batched** — 256-byte frames over loopback TCP, the sender
//!   outrunning the wire. The writer coalesces what queued while it
//!   wrote, up to 64 frames per `writev`, so the run fails (exit 1) above
//!   0.25 socket writes per frame: a writer that stopped coalescing makes
//!   one per frame. The send and receive pools keep what the stream holds
//!   in flight, so every frame is sealed into a recycled buffer on both
//!   ends; the run fails (exit 1) above 0.5 allocations per frame.
//!   `rx_acquires_per_frame` counts the receive pool's buffers per frame:
//!   the reader seals each socket read into one, so a batched stream
//!   needs far fewer than one per frame, and the run fails (exit 1) above
//!   0.5.
//! * **udp_packed** — small frames packed into shared datagrams; the
//!   sub-1.0 sends/frame is the packing at work. UDP may lose frames, its
//!   `Fin` included, so the case reports what arrived. Published only.
//!
//! Run with `cargo run --release -p infopipes-bench --bin alloc_report`.
//! Writes `BENCH_alloc.json` into the current directory. `--smoke` runs
//! tiny frame counts and skips every hard gate; CI runs the full census,
//! whose frames take well under a second.

use counting_alloc::{allocs, frees};
use infopipes::helpers::{ActiveRelay, CollectSink, FnFunction, FnSink, IterSource};
use infopipes::{BufferPool, BufferSpec, FreePump, PayloadBytes, Pipeline, PoolStats};
use mbthread::{Kernel, KernelConfig};
use netpipe::wire;
use netpipe::{
    Acceptor, Frame, InProcTransport, Link, PipelineTransportExt, RecvOutcome, TcpLink,
    TcpTransport, Transport, UdpTransport,
};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

struct CaseResult {
    name: &'static str,
    frames: usize,
    allocs_per_frame: f64,
    frees_per_frame: f64,
    wire_writes_per_frame: f64,
    /// Receive-pool acquisitions per frame, where the receiving link
    /// has a pool to read.
    rx_acquires_per_frame: Option<f64>,
    frames_per_sec: f64,
}

impl CaseResult {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"case\": \"{}\", \"frames\": {}, ",
                "\"allocs_per_frame\": {:.4}, \"frees_per_frame\": {:.4}, ",
                "\"wire_writes_per_frame\": {:.4}, \"rx_acquires_per_frame\": {}, ",
                "\"frames_per_sec\": {:.0}}}"
            ),
            self.name,
            self.frames,
            self.allocs_per_frame,
            self.frees_per_frame,
            self.wire_writes_per_frame,
            self.rx_acquires_per_frame
                .map_or_else(|| "null".to_owned(), |a| format!("{a:.4}")),
            self.frames_per_sec
        )
    }
}

/// One round trip over the inproc lane primitives: seal a `u64`, send it
/// as a data frame, receive it back, decode, and let the drop recycle.
fn inproc_step(pool: Option<&BufferPool>, link: &impl Link, server: &impl Link, i: u64) {
    let payload = match pool {
        Some(pool) => wire::to_payload_in(pool, 64, &i).expect("seal"),
        None => wire::to_payload(&i).expect("seal"),
    };
    assert!(link.send(Frame::Data(payload)).accepted(), "lane full");
    match server.recv(Duration::from_secs(5)) {
        RecvOutcome::Frame(Frame::Data(p)) => {
            let back: u64 = wire::from_bytes(&p).expect("decode");
            assert_eq!(back, i, "round trip");
        }
        other => panic!("expected data frame, got {other:?}"),
    }
}

/// The tight-loop lane: no scheduler, no threads — exactly the per-frame
/// cost of pooled (or unpooled) sealing plus the inproc lane queue.
fn inproc_lane(name: &'static str, frames: usize, pooled: bool) -> CaseResult {
    let transport = InProcTransport::with_capacity(64);
    let acceptor = transport.listen("alloc-lane").unwrap();
    let link = transport.connect("alloc-lane").unwrap();
    let server = acceptor.accept().unwrap();
    let pool = BufferPool::new();
    let pool = pooled.then_some(&pool);

    // Warm-up: first touches allocate (pool classes, the lane's deque,
    // lazy thread-locals); the steady state must not.
    for i in 0..(frames / 4).max(16) {
        inproc_step(pool, &link, &server, i as u64);
    }

    let (a0, f0, t0) = (allocs(), frees(), Instant::now());
    for i in 0..frames {
        inproc_step(pool, &link, &server, i as u64);
    }
    let elapsed = t0.elapsed();
    let (da, df) = (allocs() - a0, frees() - f0);
    CaseResult {
        name,
        frames,
        allocs_per_frame: da as f64 / frames as f64,
        frees_per_frame: df as f64 / frames as f64,
        wire_writes_per_frame: link.stats().wire_writes as f64 / frames as f64,
        rx_acquires_per_frame: None,
        frames_per_sec: frames as f64 / elapsed.as_secs_f64(),
    }
}

/// The paper's chain on a `u64` source: a pump, eight stages and a sink.
/// Direct, the stages are functions adding one, all called on one
/// kernel thread; with coroutines, every second stage is an active relay
/// (four coroutines, eight context switches per item). The sink marks the
/// counters when the warm-up's last item and the run's last item arrive,
/// so the delta spans exactly the measured items, on the thread that
/// moves them.
fn chain(name: &'static str, coroutines: bool, items: usize) -> CaseResult {
    type Marks = Mutex<[Option<(u64, u64, Instant)>; 2]>;
    const STAGES: u64 = 8;
    let adders = if coroutines { STAGES / 2 } else { STAGES };
    let warm = (items as u64 / 4).max(16);
    let total = warm + items as u64;
    let marks: Arc<Marks> = Arc::new(Mutex::new([None; 2]));
    let wrong = Arc::new(AtomicU64::new(0));
    let kernel = Kernel::new(KernelConfig::default());
    {
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
            sink_marks.lock().expect("marks")[slot] = Some((allocs(), frees(), Instant::now()));
        });
        let _ = prev >> pipeline.add_consumer("sink", sink);
        let running = pipeline.start().unwrap();
        assert_eq!(
            running.report().total_threads(),
            if coroutines { 5 } else { 1 },
            "{name}: a direct chain is one thread, each active relay adds one"
        );
        running.start_flow().unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while marks.lock().expect("marks")[1].is_none() {
            assert!(Instant::now() < deadline, "{name} stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    kernel.shutdown();
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "{name} delivered wrong values"
    );
    let [Some((a0, f0, t0)), Some((a1, f1, t1))] = *marks.lock().expect("marks") else {
        unreachable!("both marks are set once the last item arrived")
    };
    CaseResult {
        name,
        frames: items,
        allocs_per_frame: (a1 - a0) as f64 / items as f64,
        frees_per_frame: (f1 - f0) as f64 / items as f64,
        wire_writes_per_frame: 0.0,
        rx_acquires_per_frame: None,
        frames_per_sec: items as f64 / (t1 - t0).as_secs_f64(),
    }
}

/// The full scheduled path (producer pump → net sink → the sending
/// thread's delivery into the bound inbox → consumer pump → sink): what
/// a frame costs once the kernel is in the loop.
fn pipeline_lane(frames: usize) -> CaseResult {
    let kernel = Kernel::new(KernelConfig::default());
    let result = {
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

        let (a0, f0, t0) = (allocs(), frees(), Instant::now());
        running_producer.start_flow().unwrap();
        let deadline = t0 + Duration::from_secs(120);
        while out.lock().len() < frames {
            assert!(Instant::now() < deadline, "pipeline stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = t0.elapsed();
        let (da, df) = (allocs() - a0, frees() - f0);
        CaseResult {
            name: "pipeline_inproc",
            frames,
            allocs_per_frame: da as f64 / frames as f64,
            frees_per_frame: df as f64 / frames as f64,
            wire_writes_per_frame: link.stats().wire_writes as f64 / frames as f64,
            rx_acquires_per_frame: None,
            frames_per_sec: frames as f64 / elapsed.as_secs_f64(),
        }
    };
    kernel.shutdown();
    result
}

/// Drives `frames` small data frames through a socket transport while a
/// consumer thread drains the far end; returns the per-frame numbers
/// from the *sender's* link stats (`wire_writes` / `sent`), and from the
/// receiving link's pool where `rx_pool` reads one.
fn socket_lane<T: Transport>(
    name: &'static str,
    transport: T,
    frames: usize,
    frame_bytes: usize,
    rx_pool: Option<fn(&T::Link) -> PoolStats>,
) -> CaseResult {
    let acceptor = transport.listen("127.0.0.1:0").unwrap();
    let link = transport.connect(&acceptor.local_addr()).unwrap();
    let server = acceptor.accept().unwrap();
    let receiver = server.clone();
    let rx_acquires = || {
        rx_pool
            .map(|stats| stats(&receiver))
            .map(|s| s.hits + s.misses)
    };
    let pool = BufferPool::new();
    let done = Arc::new(AtomicBool::new(false));

    // Consumer: count data frames until the stream's `Fin` — or, on UDP
    // once the sender is done, until the link goes quiet: there the `Fin`
    // is one datagram with no delivery guarantee. Returns the count and
    // when the last frame arrived, so a quiet wait is not timed.
    let lossy = name.starts_with("udp");
    let sender_done = Arc::clone(&done);
    let consumer = std::thread::spawn(move || {
        let mut got = 0usize;
        let mut last_frame = Instant::now();
        loop {
            match server.recv(Duration::from_millis(500)) {
                RecvOutcome::Frame(frame) => {
                    got += usize::from(matches!(frame, Frame::Data(_)));
                    last_frame = Instant::now();
                }
                RecvOutcome::Fin | RecvOutcome::Closed => return (got, Instant::now()),
                RecvOutcome::TimedOut if lossy && sender_done.load(Ordering::Acquire) => {
                    return (got, last_frame)
                }
                RecvOutcome::TimedOut => assert!(
                    last_frame.elapsed() < Duration::from_secs(30),
                    "{name}: receiver starved"
                ),
            }
        }
    });

    // Data frames carry already-marshalled bytes (the inproc cases
    // exercise the marshalling path); here the sender just seals the
    // template out of the pool so the wire is the measured cost.
    let body = vec![0xC3u8; frame_bytes];
    let send_one = || {
        let mut buf = pool.acquire(frame_bytes);
        buf.buf_mut().extend_from_slice(&body);
        // A full send queue waits for the writer to make room, on TCP
        // and UDP alike: every frame is accepted.
        assert!(
            link.send(Frame::Data(buf.seal())).accepted(),
            "{name}: send refused"
        );
    };

    for _ in 0..(frames / 10).max(16) {
        send_one();
    }

    let acquires_before = rx_acquires();
    let (a0, f0, t0) = (allocs(), frees(), Instant::now());
    let sent_before = link.stats().sent;
    let writes_before = link.stats().wire_writes;
    for _ in 0..frames {
        send_one();
    }
    assert!(link.send(Frame::Fin).accepted(), "fin refused");
    done.store(true, Ordering::Release);
    let (got, last_arrival) = consumer.join().expect("consumer thread");
    let elapsed = last_arrival.saturating_duration_since(t0);
    let (da, df) = (allocs() - a0, frees() - f0);
    let stats = link.stats();

    // UDP is lossy by contract; TCP must deliver everything.
    let expected = frames + (frames / 10).max(16);
    assert!(
        got <= expected && (lossy || got == expected),
        "{name}: delivered {got} of {expected}"
    );
    let measured_sent = (stats.sent - sent_before).max(1);
    CaseResult {
        name,
        frames,
        allocs_per_frame: da as f64 / frames as f64,
        frees_per_frame: df as f64 / frames as f64,
        wire_writes_per_frame: (stats.wire_writes - writes_before) as f64 / measured_sent as f64,
        rx_acquires_per_frame: rx_acquires()
            .zip(acquires_before)
            .map(|(after, before)| (after - before) as f64 / frames as f64),
        frames_per_sec: frames as f64 / elapsed.as_secs_f64(),
    }
}

/// Why `inproc_unpooled` outruns `inproc_pooled`, with the unit costs
/// measured on a 2-vCPU Xeon VM.
const POOLING_NOTE: &str = "inproc_unpooled beats inproc_pooled on frames_per_sec: a pooled \
    buffer costs two uncontended lock round trips and a Weak upgrade (Mutex lock+unlock 20 ns, \
    one atomic RMW ~9 ns) against two thread-cache malloc/free pairs (64-byte Box alloc+free \
    20 ns), so the pool buys zero allocations, not speed";

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (inproc_frames, chain_items, pipeline_frames, socket_frames) = if smoke {
        (512, 512, 256, 256)
    } else {
        (200_000, 200_000, 20_000, 30_000)
    };

    // Thread-free cases first: nothing else may allocate while the
    // zero-allocation loop is measured.
    let pooled = inproc_lane("inproc_pooled", inproc_frames, true);
    let unpooled = inproc_lane("inproc_unpooled", inproc_frames, false);
    let direct = chain("chain_direct", false, chain_items);
    let coroutine = chain("chain_coroutine", true, chain_items);
    let pipeline = pipeline_lane(pipeline_frames);
    let tcp_batched = socket_lane(
        "tcp_batched",
        TcpTransport::new(),
        socket_frames,
        256,
        Some(TcpLink::pool_stats),
    );
    let udp_packed = socket_lane("udp_packed", UdpTransport::new(), socket_frames, 256, None);

    let cases = [
        &pooled,
        &unpooled,
        &direct,
        &coroutine,
        &pipeline,
        &tcp_batched,
        &udp_packed,
    ];
    println!(
        "{:>16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "case", "frames", "allocs/frm", "frees/frm", "writes/frm", "rx-acq/frm", "frames/s"
    );
    for c in cases {
        println!(
            "{:>16} {:>8} {:>12.4} {:>12.4} {:>12.4} {:>12} {:>12.0}",
            c.name,
            c.frames,
            c.allocs_per_frame,
            c.frees_per_frame,
            c.wire_writes_per_frame,
            c.rx_acquires_per_frame
                .map_or_else(|| "-".to_owned(), |a| format!("{a:.4}")),
            c.frames_per_sec
        );
    }

    let rows: Vec<String> = cases.iter().map(|c| c.json()).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"alloc_report\",\n",
            "  \"note\": \"wire_writes are socket write syscalls on the send path; {}\",\n",
            "  \"pooling_note\": \"{}\",\n",
            "  \"cases\": [\n{}\n  ]\n}}\n"
        ),
        if smoke {
            "--smoke run: a few hundred frames per case, rates mean little"
        } else {
            "full run, every gate applied; frames_per_sec is one ungated run per case \
             and can move by half between runs on a shared host, so compare rates only \
             across alternated runs"
        },
        POOLING_NOTE,
        rows.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_alloc.json").expect("create BENCH_alloc.json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote BENCH_alloc.json");

    if smoke {
        println!("smoke mode: skipping the allocation and syscall gates");
        return;
    }
    let mut failed = false;
    // The acceptance bar: a warmed pooled lane allocates nothing at all.
    if pooled.allocs_per_frame != 0.0 || pooled.wire_writes_per_frame != 0.0 {
        eprintln!(
            "FAIL: inproc_pooled not allocation-free ({:.4} allocs, {:.4} writes per frame)",
            pooled.allocs_per_frame, pooled.wire_writes_per_frame
        );
        failed = true;
    }
    // The paper's direct chain: no item allocates, not even rarely.
    if direct.allocs_per_frame != 0.0 {
        eprintln!(
            "FAIL: chain_direct makes {:.4} allocs per item, not 0",
            direct.allocs_per_frame
        );
        failed = true;
    }
    // The same chain with four active objects: a coroutine hand-off
    // allocates nothing either (each `GET` and `PUT` carries its
    // requester's box back and forth).
    if coroutine.allocs_per_frame != 0.0 {
        eprintln!(
            "FAIL: chain_coroutine makes {:.4} allocs per item, not 0",
            coroutine.allocs_per_frame
        );
        failed = true;
    }
    // The scheduled pipeline boxes no item: what it allocates is set-up
    // and wake-ups spread over the frames.
    if pipeline.allocs_per_frame > 0.25 {
        eprintln!(
            "FAIL: pipeline_inproc makes {:.4} allocs per frame > 0.25",
            pipeline.allocs_per_frame
        );
        failed = true;
    }
    // The TCP lane's pools keep the frames in flight: what is left is
    // per-write bookkeeping in the writer, spread over a batch.
    if tcp_batched.allocs_per_frame > 0.5 {
        eprintln!(
            "FAIL: tcp_batched makes {:.4} allocs per frame > 0.5",
            tcp_batched.allocs_per_frame
        );
        failed = true;
    }
    // The TCP reader seals a read, not a frame, into a receive-pool
    // buffer: a batched stream lands many frames per read.
    let rx_acquires = tcp_batched.rx_acquires_per_frame.unwrap_or(f64::INFINITY);
    if rx_acquires > 0.5 {
        eprintln!("FAIL: tcp_batched takes {rx_acquires:.4} receive-pool buffers per frame > 0.5");
        failed = true;
    }
    // The writer coalesces what the sender queues while it writes: a
    // sender that outruns the wire shares each `writev` among many frames.
    if tcp_batched.wire_writes_per_frame > 0.25 {
        eprintln!(
            "FAIL: tcp_batched makes {:.4} socket writes per frame > 0.25",
            tcp_batched.wire_writes_per_frame
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
