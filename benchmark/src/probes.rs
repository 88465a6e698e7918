//! Probes: isolated loops over one layer's public functions, fed with
//! the workloads' own inputs. Each returns a cost the pipelines pay but
//! cannot separate from outside — a ceiling or a unit price that the
//! end-to-end rows are read against.

use crate::gen::Arena;
use crate::workloads::chain;
use infopipes::helpers::{FnSink, IdentityFn};
use infopipes::{BufferPool, BufferSpec, FreePump, Function, Item, Pipeline, Stage, Typespec};
use mbthread::{Ctx, Envelope, Flow, Kernel, KernelConfig, Message, Tag};
use media::{CompressedFrame, Defragmenter, Fragmenter, Packet};
use netpipe::framing::{read_frame_in, write_frame, FrameKind};
use netpipe::{
    wire, Acceptor, Frame, InProcTransport, Link, Marshal, RecvOutcome, TcpTransport, Transport,
    Unmarshal,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PING: Tag = Tag(1);

/// Nanoseconds per iteration of `body` over `iters` iterations.
fn per_iter_ns(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        body(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `mbthread.switch_ns`: half an `ExternalPort::send_sync` ping-pong.
fn switch_ns(iters: u64) -> f64 {
    let kernel = Kernel::new(KernelConfig::default());
    let echo = kernel
        .spawn("echo", |ctx: &mut Ctx<'_>, env: Envelope| {
            let _ = ctx.reply(&env, Message::signal(PING));
            Flow::Continue
        })
        .expect("spawn echo");
    let port = kernel.external("probe");
    let ns = per_iter_ns(iters, |_| {
        let _ = black_box(port.send_sync(echo, Message::signal(PING)));
    });
    drop(port);
    kernel.shutdown();
    ns / 2.0
}

/// `mbthread.msg_dispatch_ns`: asynchronous sends drained by a counting
/// thread, per message.
fn msg_dispatch_ns(iters: u64) -> f64 {
    let kernel = Kernel::new(KernelConfig::default());
    let count = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&count);
    let counter = kernel
        .spawn("count", move |_: &mut Ctx<'_>, _: Envelope| {
            seen.fetch_add(1, Ordering::Release);
            Flow::Continue
        })
        .expect("spawn counter");
    let port = kernel.external("probe");
    let t = Instant::now();
    for _ in 0..iters {
        let _ = port.send(counter, Message::signal(PING));
    }
    while count.load(Ordering::Acquire) < iters && t.elapsed() < Duration::from_secs(20) {
        std::thread::yield_now();
    }
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    drop(port);
    kernel.shutdown();
    ns
}

/// `typespec.check_us`: compose and check the specs of the `remote_tcp`
/// chain, source to sink, the way the planner threads them.
fn typespec_check_us(iters: u64) -> f64 {
    let peer = netpipe::PeerIdentity::new("tcp", "127.0.0.1:4000");
    let stages: Vec<Box<dyn Stage>> = vec![
        Box::new(Fragmenter::new(1024)),
        Box::new(Marshal::<Packet>::new("marshal").at_peer(&peer)),
        Box::new(Unmarshal::<Packet>::new("unmarshal").at_peer(&peer)),
        Box::new(Defragmenter::new()),
    ];
    let source = Typespec::of::<CompressedFrame>();
    per_iter_ns(iters, |_| {
        let mut flowing = black_box(&source).clone();
        for stage in &stages {
            let agreed = flowing.intersect(&stage.accepts()).expect("specs meet");
            flowing = stage.transform_spec(&agreed).expect("spec transforms");
        }
        black_box(flowing);
    }) / 1e3
}

/// `core.fn_call_ns`: one boxed `Function::convert` on `IdentityFn` —
/// what a directly-called stage costs with no pump around it.
fn fn_call_ns(iters: u64) -> f64 {
    let mut stage: Box<dyn Function> = Box::new(IdentityFn::new("f"));
    let mut item = Some(Item::cloneable(0u64));
    per_iter_ns(iters, |_| {
        item = black_box(stage.convert(item.take().expect("item")));
    })
}

/// `core.inbox_put_ns`: `InboxSender::put` from an external thread while
/// a free pump drains the inbox.
fn inbox_put_ns(iters: u64) -> f64 {
    let kernel = Kernel::new(KernelConfig::default());
    let pipeline = Pipeline::new(&kernel, "inbox-probe");
    let (inbox, sender) = pipeline.add_inbox("in", BufferSpec::bounded(iters as usize));
    let pump = pipeline.add_pump("pump", FreePump::new());
    let taken = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&taken);
    let sink = pipeline.add_consumer(
        "sink",
        FnSink::new("sink", move |_: u64, _| {
            seen.fetch_add(1, Ordering::Release);
        }),
    );
    let _ = inbox >> pump >> sink;
    let running = pipeline.start().expect("inbox probe starts");
    running.start_flow().expect("start flow");
    let ns = per_iter_ns(iters, |i| {
        black_box(sender.put(Item::cloneable(i)));
    });
    let t = Instant::now();
    while taken.load(Ordering::Acquire) < iters && t.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
    kernel.shutdown();
    ns
}

/// `core.pool_acquire_seal_ns`: acquire, fill and seal one packet-sized
/// pooled buffer, then drop it home.
fn pool_acquire_seal_ns(iters: u64, arena: &Arena) -> f64 {
    let pool = BufferPool::new();
    let body = arena.packet(0).bytes;
    per_iter_ns(iters, |_| {
        let mut buf = pool.acquire(body.len());
        buf.buf_mut().extend_from_slice(&body);
        black_box(buf.seal());
    })
}

/// `netpipe.wire.seal_ns` / `decode_ns` on the `remote_inproc` packet.
fn wire_ns(iters: u64, arena: &Arena) -> (f64, f64) {
    let pool = BufferPool::new();
    let packets: Vec<Packet> = (0..64).map(|i| arena.packet(i)).collect();
    let mut sealed = wire::to_payload_in(&pool, 512, &packets[0]).expect("seal");
    let seal = per_iter_ns(iters, |i| {
        sealed =
            wire::to_payload_in(&pool, 512, black_box(&packets[(i % 64) as usize])).expect("seal");
    });
    let decode = per_iter_ns(iters, |_| {
        black_box(wire::from_bytes::<Packet>(black_box(&sealed)).expect("decode"));
    });
    (seal, decode)
}

/// `netpipe.framing.write_ns` / `read_ns` against an in-memory buffer,
/// with one marshalled `remote_tcp` packet as the payload.
fn framing_ns(iters: u64, arena: &Arena) -> (f64, f64) {
    let mut packet = arena.packet(0);
    packet.bytes = arena.window(0, 1024);
    let payload = wire::to_payload(&packet).expect("seal");
    let mut buf = Vec::with_capacity(payload.len() + 16);
    let write = per_iter_ns(iters, |_| {
        buf.clear();
        write_frame(&mut buf, FrameKind::Data, black_box(&payload)).expect("write frame");
    });
    let pool = BufferPool::new();
    let read = per_iter_ns(iters, |_| {
        let mut cur = Cursor::new(black_box(&buf[..]));
        black_box(read_frame_in(&mut cur, &pool).expect("read frame"));
    });
    (write, read)
}

/// `netpipe.transport.inproc.roundtrip_ns`: bare `Link::send` + `recv`
/// of a sealed buffer on one thread — no pipeline, no kernel.
fn inproc_roundtrip_ns(iters: u64, arena: &Arena) -> f64 {
    let transport = InProcTransport::with_capacity(64);
    let acceptor = transport.listen("probe").expect("listen");
    let link = transport.connect("probe").expect("connect");
    let server = acceptor.accept().expect("accept");
    let payload = arena.packet(0).bytes;
    per_iter_ns(iters, |_| {
        assert!(link.send(Frame::Data(payload.clone())).accepted());
        match server.recv(Duration::from_secs(5)) {
            RecvOutcome::Frame(Frame::Data(p)) => {
                black_box(p);
            }
            other => panic!("inproc probe: expected data, got {other:?}"),
        }
    })
}

/// `netpipe.transport.tcp.bare_items_per_s`: marshalled 1 KiB packets
/// over one loopback connection, a sender thread and this thread
/// receiving — the ceiling for `remote_tcp`'s packet rate.
fn tcp_bare_per_s(frames: u64, arena: &Arena) -> f64 {
    let transport = TcpTransport::new();
    let acceptor = transport.listen("127.0.0.1:0").expect("listen");
    let link = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");
    let mut packet = arena.packet(0);
    packet.bytes = arena.window(0, 1024);
    let payload = wire::to_payload(&packet).expect("seal");
    let t = Instant::now();
    let mut got = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..frames {
                if !link.send(Frame::Data(payload.clone())).accepted() {
                    return;
                }
            }
        });
        while got < frames {
            match server.recv(Duration::from_secs(5)) {
                RecvOutcome::Frame(Frame::Data(_)) => got += 1,
                RecvOutcome::Frame(_) => {}
                _ => break,
            }
        }
    });
    let rate = got as f64 / t.elapsed().as_secs_f64();
    let _ = link.send(Frame::Fin);
    rate
}

/// Runs every probe; `shrink` divides the iteration counts (`--smoke`).
pub fn run_all(seed: u64, shrink: u64) -> BTreeMap<&'static str, f64> {
    let n = |iters: u64| (iters / shrink).max(100);
    let arena = Arena::new(seed);
    let mut out = BTreeMap::new();
    out.insert("mbthread.switch_ns", switch_ns(n(20_000)));
    out.insert("mbthread.msg_dispatch_ns", msg_dispatch_ns(n(100_000)));
    out.insert("typespec.check_us", typespec_check_us(n(5_000)));
    out.insert("core.fn_call_ns", fn_call_ns(n(2_000_000)));
    out.insert("core.inbox_put_ns", inbox_put_ns(n(100_000)));
    out.insert(
        "core.pool_acquire_seal_ns",
        pool_acquire_seal_ns(n(1_000_000), &arena),
    );
    let (seal, decode) = wire_ns(n(300_000), &arena);
    out.insert("netpipe.wire.seal_ns", seal);
    out.insert("netpipe.wire.decode_ns", decode);
    let (write, read) = framing_ns(n(300_000), &arena);
    out.insert("netpipe.framing.write_ns", write);
    out.insert("netpipe.framing.read_ns", read);
    out.insert(
        "netpipe.transport.inproc.roundtrip_ns",
        inproc_roundtrip_ns(n(1_000_000), &arena),
    );
    out.insert(
        "netpipe.transport.tcp.bare_items_per_s",
        tcp_bare_per_s(n(100_000), &arena),
    );
    // Per-item time of `chain_direct` is cycle + stages x stage: runs
    // at zero and at eight stages give the line. The slope (~100 ns) is
    // small against a cycle, and where the scheduler puts the pump's
    // thread moves a whole run by more than that, so each point is the
    // fastest of eight alternated runs.
    let items = n(100_000);
    let (mut at0, mut at8) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..8 {
        at0 = at0.min(chain::per_item_ns(0, items, seed).unwrap_or(f64::INFINITY));
        at8 = at8.min(chain::per_item_ns(8, items, seed).unwrap_or(f64::INFINITY));
    }
    if at0.is_finite() && at8.is_finite() {
        out.insert("core.stage_ns", (at8 - at0) / 8.0);
        out.insert("core.cycle_ns", at0);
    }
    out
}
