//! `remote_inproc` and `remote_tcp`: a producer node and a consumer
//! node (one kernel each) joined by a netpipe.
//!
//! ```text
//! source → pump → [fragmenter] → marshal → net-sink ‖ inbox → pump → unmarshal → [defragmenter] → sink
//! ```
//!
//! Each repeat runs a closed-loop `saturate` phase (bounded items in
//! flight) and an open-loop `paced` phase (fixed rate, latency from each
//! item's due time) through the same pipelines.

use super::{
    conclude, reference_digest, wait_done, Marker, Phase, RepeatCtx, RepeatResult, Script,
    ScriptSource, Shared, TracedRepeat, Verify, VerifySink,
};
use crate::gen::Arena;
use crate::trace::{key_frame, key_meta, key_packet, now_ns, SpanRoles, StageAdder};
use infopipes::{BufferPool, BufferSpec, FreePump, Item, Pipeline, Typespec};
use mbthread::{Kernel, KernelConfig};
use media::{CompressedFrame, Defragmenter, Fragmenter, Packet};
use netpipe::{
    Acceptor, InProcTransport, Link, Marshal, NetSendEnd, PipelineTransportExt, TcpTransport,
    Transport, Unmarshal,
};
use std::sync::Arc;
use std::time::Instant;

/// Paced rates are pinned: they sit below half of each workload's
/// `saturate` median on the reference box (about 1/12 and 1/17 of it)
/// and must never change afterwards, or `lat_p50_us` stops being
/// comparable. Each open loop runs for four seconds.
pub const INPROC_PACED_PER_S: u64 = 20_000;
pub const TCP_PACED_PER_S: u64 = 1_000;
const PACED_SECONDS: u64 = 4;

/// Payload bytes per packet on `remote_tcp`.
const MTU: usize = 1024;

struct RemoteSpec {
    warm: u64,
    closed: u64,
    window: u64,
    paced: u64,
    rate_per_s: u64,
    /// Open-loop items in flight before the generator holds back: what
    /// the ring (1024 frames) and inbox (4096 packets) surely hold.
    paced_window: u64,
    /// Whether items are frames cut into packets (the Fig. 1 shape).
    fragmented: bool,
}

const INPROC: RemoteSpec = RemoteSpec {
    warm: 5_000,
    closed: 600_000,
    window: 256,
    paced: INPROC_PACED_PER_S * PACED_SECONDS,
    rate_per_s: INPROC_PACED_PER_S,
    paced_window: 768,
    fragmented: false,
};

const TCP: RemoteSpec = RemoteSpec {
    warm: 300,
    closed: 60_000,
    window: 32,
    paced: TCP_PACED_PER_S * PACED_SECONDS,
    rate_per_s: TCP_PACED_PER_S,
    paced_window: 96,
    fragmented: true,
};

struct PacketVerify(Arena);

impl Verify for PacketVerify {
    type Payload = Packet;

    fn seq(&self, _: u64, p: &Packet) -> u64 {
        p.frame_seq
    }

    fn matches(&self, seq: u64, p: &Packet) -> bool {
        *p == self.0.packet(seq)
    }

    fn fingerprint(&self, p: &Packet) -> u64 {
        p.bytes.len() as u64
    }
}

struct FrameVerify(Arena);

impl Verify for FrameVerify {
    type Payload = CompressedFrame;

    fn seq(&self, _: u64, f: &CompressedFrame) -> u64 {
        f.seq
    }

    fn matches(&self, seq: u64, f: &CompressedFrame) -> bool {
        *f == self.0.frame(seq)
    }

    fn fingerprint(&self, f: &CompressedFrame) -> u64 {
        f.data.len() as u64
    }
}

pub fn run_inproc(ctx: &RepeatCtx) -> RepeatResult {
    run(&INPROC, &InProcTransport::with_capacity(1024), "bench", ctx)
}

pub fn run_tcp(ctx: &RepeatCtx) -> RepeatResult {
    run(&TCP, &TcpTransport::new(), "127.0.0.1:0", ctx)
}

/// Indexes into [`Mark::extra`](super::Mark).
const WIRE_WRITES: usize = 0;
const POOL_HITS: usize = 1;
const POOL_MISSES: usize = 2;

fn run<T: Transport>(
    spec: &RemoteSpec,
    transport: &T,
    addr: &str,
    ctx: &RepeatCtx,
) -> RepeatResult {
    let mut out = RepeatResult::default();
    let script = Script {
        warm: ctx.scaled(spec.warm),
        closed: ctx.scaled(spec.closed),
        window: spec.window,
        paced: ctx.scaled(spec.paced),
        period_ns: 1_000_000_000 / spec.rate_per_s,
        paced_window: spec.paced_window,
    };
    let arena = Arena::new(ctx.seed);
    let expected = {
        let a = arena.clone();
        let fragmented = spec.fragmented;
        reference_digest(script.total(), move |seq| {
            if fragmented {
                a.frame_size(seq) as u64
            } else {
                crate::gen::PACKET_BYTES as u64
            }
        })
    };

    let started_ns = now_ns();
    let (k_prod, k_cons) = (
        Kernel::new(KernelConfig::default()),
        Kernel::new(KernelConfig::default()),
    );
    let acceptor = transport.listen(addr).expect("listen");
    let link = transport.connect(&acceptor.local_addr()).expect("connect");
    let server = acceptor.accept().expect("accept");
    let pool = BufferPool::new();
    let shared = Arc::new(Shared::default());
    let marker = {
        let (link, pool) = (link.clone(), pool.clone());
        Marker::new(
            vec![k_prod.clone(), k_cons.clone()],
            ctx.detailed,
            Box::new(move || {
                let (l, p) = (link.stats(), pool.stats());
                vec![l.wire_writes, p.hits, p.misses]
            }),
        )
    };

    // Consumer node first, so the link has somewhere to deliver.
    let consumer = Pipeline::new(&k_cons, "consumer");
    let add = StageAdder {
        pipeline: &consumer,
        tracer: ctx.tracer.clone(),
    };
    // Deep enough for a full window of packets (32 per frame at most).
    let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(4096));
    let pump_in = consumer.add_pump("pump-in", FreePump::new());
    let unmarshal = Unmarshal::<Packet>::new("unmarshal").at_peer(&server.peer());
    let decode_stats = unmarshal.stats_handle();
    let unmarshal = add.function_keyed_on_output(
        "unmarshal",
        "netpipe.marshal.unconvert",
        key_packet,
        unmarshal,
    );
    let _ = inbox >> pump_in >> unmarshal;
    if spec.fragmented {
        let defrag = add.consumer(
            "defrag",
            "media.defragment",
            key_packet,
            Defragmenter::new(),
        );
        let sink = VerifySink::new(FrameVerify(arena.clone()), script, &shared, &marker);
        let _ = unmarshal >> defrag >> add.consumer("sink", "sink", key_frame, sink);
    } else {
        let sink = VerifySink::new(PacketVerify(arena.clone()), script, &shared, &marker);
        let _ = unmarshal >> add.consumer("sink", "sink", key_packet, sink);
    }
    server
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind receiver");

    let producer = Pipeline::new(&k_prod, "producer");
    let add = StageAdder {
        pipeline: &producer,
        tracer: ctx.tracer.clone(),
    };
    let a = arena.clone();
    let (offers, make): (Typespec, Box<dyn FnMut(u64) -> Item + Send>) = if spec.fragmented {
        (
            Typespec::of::<CompressedFrame>(),
            Box::new(move |seq| Item::cloneable(a.frame(seq))),
        )
    } else {
        (
            Typespec::of::<Packet>(),
            Box::new(move |seq| Item::cloneable(a.packet(seq))),
        )
    };
    let source = ScriptSource::new(offers, script, &shared, make);
    let src = add.producer("source", "gen.source", key_meta, source);
    let pump_out = producer.add_pump("pump-out", FreePump::new());
    let marshal = Marshal::<Packet>::new("marshal")
        .with_pool(&pool)
        .at_peer(&link.peer());
    let marshal = add.function("marshal", "netpipe.marshal.convert", key_packet, marshal);
    // Traced, the send end is the same `NetSendEnd` + `set_transport`
    // that `add_net_sink` composes, wrapped in a span adapter.
    let send = if ctx.tracer.is_some() {
        let node = add.consumer(
            "send",
            "netpipe.transport.send",
            key_meta,
            NetSendEnd::new("send", link.clone()),
        );
        producer.set_transport(node, link.peer().to_string());
        node
    } else {
        producer.add_net_sink("send", &link)
    };
    if spec.fragmented {
        let frag = add.consumer("frag", "media.fragment", key_meta, Fragmenter::new(MTU));
        let _ = src >> pump_out >> frag >> marshal >> send;
    } else {
        let _ = src >> pump_out >> marshal >> send;
    }

    let planning = Instant::now();
    let started = consumer.start().and_then(|c| Ok((c, producer.start()?)));
    let (running_consumer, running_producer) = match started {
        Ok(pair) => pair,
        Err(e) => {
            out.faults.push(format!("pipeline did not start: {e}"));
            k_prod.shutdown();
            k_cons.shutdown();
            return out;
        }
    };
    out.layers
        .insert("core.plan_start_ms", planning.elapsed().as_secs_f64() * 1e3);
    let threads =
        running_consumer.report().total_threads() + running_producer.report().total_threads();
    out.layers.insert("core.threads_planned", threads as f64);
    out.notes.push(format!(
        "traffic crossed {} ({}://{addr}, one connection)",
        if link.peer().scheme() == "tcp" {
            "loopback TCP"
        } else {
            "an in-process ring"
        },
        link.peer().scheme()
    ));
    running_consumer.start_flow().expect("start consumer");
    running_producer.start_flow().expect("start producer");
    if let Err(why) = wait_done(&shared) {
        // Where every thread of both nodes stood when progress stopped.
        out.faults.push(format!(
            "{why}\nproducer {}consumer {}link {:?} / {:?}",
            k_prod.thread_dump(),
            k_cons.thread_dump(),
            link.stats(),
            server.stats()
        ));
    }

    // Counters that must be zero, read before the nodes are torn down.
    let (tx, rx) = (link.stats(), server.stats());
    let inbox_drops = running_consumer
        .probe("net-in")
        .map_or(0, |p| p.stats().drops);
    k_prod.shutdown();
    k_cons.shutdown();

    conclude(&mut out, &script, &shared, &marker, started_ns, expected);
    out.gate_zero("netpipe.transport.dropped", tx.dropped + rx.dropped);
    out.gate_zero("netpipe.transport.refused", tx.refused + rx.refused);
    out.gate_zero("netpipe.transport.rx_shed", tx.rx_shed + rx.rx_shed);
    out.gate_zero("netpipe.marshal.decode_errors", decode_stats.errors());
    out.gate_zero("core.inbox_drops", inbox_drops);
    if let (Some(a), Some(b)) = (marker.get(Phase::ClosedStart), marker.get(Phase::ClosedEnd)) {
        let delta = |i: usize| (b.extra[i] - a.extra[i]) as f64;
        out.layers.insert(
            "netpipe.transport.wire_writes_per_item",
            delta(WIRE_WRITES) / script.closed as f64,
        );
        out.layers.insert(
            "core.pool_miss_rate",
            delta(POOL_MISSES) / (delta(POOL_HITS) + delta(POOL_MISSES)).max(1.0),
        );
    }

    if let Some(tracer) = &ctx.tracer {
        let roles = SpanRoles {
            source: "gen.source",
            sink: "sink",
            transit: Some(("netpipe.transport.send", "netpipe.marshal.unconvert")),
        };
        out.trace = Some(TracedRepeat::collect(tracer, &roles, &script, "saturate"));
    }
    out
}
