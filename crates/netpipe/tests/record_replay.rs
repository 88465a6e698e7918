//! Record & replay, end to end: container round-trips, crash-safe
//! torn-tail recovery, bit-identical replay under virtual time, and the
//! control-overtakes-data property surviving a replay.
//!
//! The determinism tests honor `SIM_SEED` (CI sweeps a small matrix) so
//! replay equality is checked under several congestion schedules, not
//! one lucky seed.

use infopipes::helpers::IterSource;
use infopipes::{payload_copy_count, BufferSpec, ControlEvent, FreePump, PayloadBytes, Pipeline};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    wire, Acceptor, ChannelDecl, DigestSink, Frame, FrameKind, Link, Marshal, PipelineTransportExt,
    Recorder, RecordingLink, RecvOutcome, ReplayCounters, ReplayMode, Replayer, SimConfig,
    SimTransport, TraceError, TraceReader, TraceWriter, Transport,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);

/// The simulator seed for this run (CI sweeps `SIM_SEED` 0–3).
fn sim_seed() -> u64 {
    std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A per-test, per-process trace path under the system temp dir.
fn trace_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nptrace-{}-{}-s{}.trace",
        std::process::id(),
        name,
        sim_seed()
    ))
}

struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

// ---------------------------------------------------------------------
// Container round-trip
// ---------------------------------------------------------------------

/// Everything the writer accepts comes back: multiple chunks (140 data
/// records cross the writer's 64-record chunk bound twice), all four
/// frame kinds, zero-length payloads, the channel declaration, the
/// scenario, and a footer index agreeing with the chunks on disk.
#[test]
fn container_round_trips_records_chunks_and_footer() {
    let path = TempTrace(trace_path("roundtrip"));
    let scenario = SimConfig {
        latency: Duration::from_millis(20),
        jitter: Duration::from_millis(3),
        bandwidth_bps: Some(8_000.0),
        queue_bytes: 2048,
        seed: 42,
    };

    let writer = TraceWriter::create(&path.0, "roundtrip", Some(&scenario)).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(0, "video", "u32"))
        .expect("declare");

    let mut expect = Vec::new();
    for i in 0..140u64 {
        let payload = PayloadBytes::from_vec((0..i as u8).collect());
        expect.push((0u16, i * 1_000, FrameKind::Data, payload.len()));
        writer
            .record(0, i * 1_000, FrameKind::Data, payload)
            .expect("record");
    }
    let event = wire::to_payload(&ControlEvent::SetDropLevel(2)).expect("encode");
    expect.push((0, 140_000, FrameKind::Event, event.len()));
    writer
        .record(0, 140_000, FrameKind::Event, event)
        .expect("event");
    writer
        .record(
            0,
            141_000,
            FrameKind::Control,
            PayloadBytes::from_vec(vec![9, 9, 9]),
        )
        .expect("control");
    expect.push((0, 141_000, FrameKind::Control, 3));
    writer
        .record(0, 142_000, FrameKind::Fin, PayloadBytes::new())
        .expect("fin");
    expect.push((0, 142_000, FrameKind::Fin, 0));
    writer.finish().expect("finish");
    let stats = writer.stats();

    let reader = TraceReader::open(&path.0).expect("open");
    assert!(reader.clean_close, "finished trace closes cleanly");
    assert_eq!(reader.recovered_bytes, 0);
    assert_eq!(reader.header.version, 1);
    assert_eq!(reader.header.name, "roundtrip");

    let rt = reader.scenario().expect("scenario survives the header");
    assert_eq!(rt.latency, scenario.latency);
    assert_eq!(rt.jitter, scenario.jitter);
    assert_eq!(rt.bandwidth_bps, scenario.bandwidth_bps);
    assert_eq!(rt.queue_bytes, scenario.queue_bytes);
    assert_eq!(rt.seed, scenario.seed);

    let decl = reader.channel(0).expect("channel declared");
    assert_eq!((decl.name.as_str(), decl.item.as_str()), ("video", "u32"));

    assert_eq!(reader.records.len(), expect.len());
    for (rec, (ch, ts, kind, len)) in reader.records.iter().zip(&expect) {
        assert_eq!(rec.channel, *ch);
        assert_eq!(rec.ts_ns, *ts);
        assert_eq!(rec.kind, *kind);
        assert_eq!(rec.payload.len(), *len);
    }
    // Payload bytes are the writer's bytes, bit for bit.
    assert_eq!(reader.records[5].payload.as_slice(), &[0, 1, 2, 3, 4]);
    assert_eq!(reader.records[141].payload.as_slice(), &[9, 9, 9]);

    let footer = reader.footer.as_ref().expect("footer");
    assert_eq!(footer.records, stats.records);
    assert_eq!(footer.records, expect.len() as u64);
    let payload_bytes: usize = expect.iter().map(|(_, _, _, len)| len).sum();
    assert_eq!(stats.payload_bytes, payload_bytes as u64);
    assert_eq!(footer.bytes, stats.payload_bytes);
    assert_eq!(footer.chunks.len() as u64, stats.chunk_flushes);
    assert!(
        stats.chunk_flushes >= 3,
        "143 records must flush several 64-record chunks: {stats:?}"
    );
    assert_eq!(
        footer
            .chunks
            .iter()
            .map(|c| u64::from(c.records))
            .sum::<u64>(),
        footer.records
    );

    // Two opens of the same file digest identically.
    assert_eq!(
        reader.digest(),
        TraceReader::open(&path.0).expect("reopen").digest()
    );
}

/// A non-trace file is refused, and a trace from a newer schema is
/// refused by version, not mis-parsed.
#[test]
fn alien_files_are_refused() {
    let path = TempTrace(trace_path("alien"));
    std::fs::write(&path.0, b"definitely not a trace").expect("write");
    match TraceReader::open(&path.0) {
        Err(TraceError::Corrupt(_)) => {}
        other => panic!("alien file must be Corrupt, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Crash-safe torn tails
// ---------------------------------------------------------------------

/// The crash-safety regression: a valid trace chopped at *every* byte
/// offset of its tail still opens, yields only genuine records (a
/// strict prefix of the full trace, byte-identical), reports the
/// dropped bytes, and claims a clean close only for the full file. The
/// writer is flushed every three records, so the tail holds several
/// chunks.
#[test]
fn torn_tail_recovers_at_every_chop_offset() {
    let path = TempTrace(trace_path("torn"));
    let writer = TraceWriter::create(&path.0, "torn", None).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(7, "ch", "bytes"))
        .expect("declare");
    // Everything from here on is choppable tail.
    let safe_start = writer.stats().file_bytes;
    for i in 0..10u64 {
        writer
            .record(
                7,
                i,
                FrameKind::Data,
                PayloadBytes::from_vec(vec![i as u8; (i as usize % 5) * 3]),
            )
            .expect("record");
        if i % 3 == 2 {
            writer.flush().expect("flush");
        }
    }
    writer.finish().expect("finish");

    let full = std::fs::read(&path.0).expect("read");
    let baseline = TraceReader::open(&path.0).expect("full open");
    assert_eq!(baseline.records.len(), 10);
    assert!(baseline.clean_close);

    let chopped = TempTrace(trace_path("torn-chop"));
    for cut in safe_start as usize..=full.len() {
        std::fs::write(&chopped.0, &full[..cut]).expect("write chop");
        let got = TraceReader::open(&chopped.0)
            .unwrap_or_else(|e| panic!("chop at {cut}/{} must open: {e}", full.len()));

        // Salvaged records are a prefix of the real ones, bit for bit.
        assert!(
            got.records.len() <= baseline.records.len(),
            "chop at {cut} invented records"
        );
        for (a, b) in got.records.iter().zip(&baseline.records) {
            assert_eq!(a.channel, b.channel, "chop at {cut}");
            assert_eq!(a.ts_ns, b.ts_ns, "chop at {cut}");
            assert_eq!(a.kind, b.kind, "chop at {cut}");
            assert_eq!(a.payload.as_slice(), b.payload.as_slice(), "chop at {cut}");
        }
        if cut == full.len() {
            assert!(got.clean_close, "the untouched file closes cleanly");
            assert_eq!(got.recovered_bytes, 0);
        } else {
            assert!(!got.clean_close, "chop at {cut} cannot claim a clean close");
        }
    }
}

/// Hostile input: a small trace cut at every byte, and with each of its
/// bytes replaced in turn, opens or fails with a typed error — never a
/// panic. A file that still opens holds no more records than the trace.
#[test]
fn mutated_traces_open_or_fail_typed() {
    let path = TempTrace(trace_path("mutate"));
    let writer =
        TraceWriter::create(&path.0, "mutate", Some(&SimConfig::default())).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(3, "ch", "bytes"))
        .expect("declare");
    for i in 0..6u64 {
        let kind = if i == 4 {
            FrameKind::Event
        } else {
            FrameKind::Data
        };
        writer
            .record(
                3,
                i,
                kind,
                PayloadBytes::from_vec(vec![i as u8; i as usize]),
            )
            .expect("record");
        if i % 2 == 1 {
            writer.flush().expect("flush");
        }
    }
    writer.finish().expect("finish");
    let full = std::fs::read(&path.0).expect("read");
    assert_eq!(
        TraceReader::open(&path.0).expect("full open").records.len(),
        6
    );

    let mutants = (0..full.len())
        .map(|cut| (format!("cut at {cut}"), full[..cut].to_vec()))
        .chain((0..full.len()).flat_map(|at| {
            [0xff, 0x01].map(|flip| {
                let mut bytes = full.clone();
                bytes[at] ^= flip;
                (format!("byte {at} ^ {flip:#x}"), bytes)
            })
        }));
    let mutant = TempTrace(trace_path("mutant"));
    for (what, bytes) in mutants {
        std::fs::write(&mutant.0, &bytes).expect("write mutant");
        match TraceReader::open(&mutant.0) {
            Ok(got) => assert!(got.records.len() <= 6, "{what}: invented records"),
            Err(TraceError::Corrupt(_) | TraceError::Version(_) | TraceError::Wire(_)) => {}
            Err(e) => panic!("{what}: untyped failure {e:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Replay determinism (the tentpole property)
// ---------------------------------------------------------------------

/// Records a congested session under virtual time: producer pipeline →
/// marshal → recorded sim link → digesting consumer. Returns
/// (delivered digest, delivered frames).
fn record_session(path: &std::path::Path, cfg: &SimConfig, n: u32) -> (u64, u64) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let writer = TraceWriter::create(path, "session", Some(cfg)).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(0, "session", "u32"))
        .expect("declare");
    let result = {
        let transport = SimTransport::new(&kernel, cfg.clone());
        let acceptor = transport.listen("rec").expect("listen");
        let link = transport.connect("rec").expect("connect");
        let server_end = acceptor.accept().expect("accept");
        let recording = RecordingLink::attach(link, writer.clone(), 0, &kernel);

        let consumer = Pipeline::new(&kernel, "consumer");
        let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(1024));
        let pump_in = consumer.add_pump("pump-in", FreePump::new());
        let (sink, probe) = DigestSink::new("digest");
        let sink = consumer.add_consumer("sink", sink);
        let _ = inbox >> pump_in >> sink;
        server_end
            .bind_receiver(Some(inbox_sender), |_| {})
            .expect("bind");
        consumer.start().expect("plan").start_flow().expect("start");

        let producer = Pipeline::new(&kernel, "producer");
        let src = producer.add_producer("src", IterSource::new("src", 0..n));
        let pump_out = producer.add_pump("pump-out", FreePump::new());
        let m = producer.add_function("marshal", Marshal::<u32>::new("marshal"));
        let send = producer.add_net_sink("send", &recording);
        let _ = src >> pump_out >> m >> send;
        producer.start().expect("plan").start_flow().expect("start");

        kernel.wait_quiescent();
        (probe.value(), probe.frames())
    };
    kernel.shutdown();
    writer.finish().expect("finish");
    result
}

/// Replays the trace through a fresh sim built from the recorded
/// scenario, digesting what the far end receives. Returns
/// (delivered digest, delivered frames, replay counters).
fn replay_session(path: &std::path::Path) -> (u64, u64, std::sync::Arc<ReplayCounters>) {
    let reader = TraceReader::open(path).expect("open");
    let cfg = reader.scenario().expect("recorded scenario");
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let result = {
        let transport = SimTransport::new(&kernel, cfg);
        let acceptor = transport.listen("rep").expect("listen");
        let link = transport.connect("rep").expect("connect");
        let server_end = acceptor.accept().expect("accept");

        let consumer = Pipeline::new(&kernel, "replay-consumer");
        let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(1024));
        let pump_in = consumer.add_pump("pump-in", FreePump::new());
        let (sink, probe) = DigestSink::new("digest");
        let sink = consumer.add_consumer("sink", sink);
        let _ = inbox >> pump_in >> sink;
        server_end
            .bind_receiver(Some(inbox_sender), |_| {})
            .expect("bind");
        consumer.start().expect("plan").start_flow().expect("start");

        let handle = Replayer::new(&kernel, ReplayMode::AsRecorded)
            .route(0, link)
            .launch(&reader)
            .expect("launch");
        kernel.wait_quiescent();
        assert!(handle.is_done(), "replay must drain the whole trace");
        (probe.value(), probe.frames(), handle.counters())
    };
    kernel.shutdown();
    result
}

/// The tentpole: replaying a recorded congested session twice produces
/// byte-identical deliveries (same digest, same frame count) — and the
/// replay reproduces the original delivery exactly, because the tap
/// recorded *offered* traffic and the seeded simulator re-makes every
/// drop decision identically at the recorded timestamps.
#[test]
fn double_replay_is_bit_identical() {
    let path = TempTrace(trace_path("determinism"));
    // Congested on purpose: a tiny queue plus thin bandwidth forces the
    // simulator to drop — the replay must reproduce the drops, not the
    // sends alone.
    let cfg = SimConfig {
        latency: Duration::from_millis(20),
        bandwidth_bps: Some(8_000.0),
        queue_bytes: 64,
        seed: sim_seed(),
        ..SimConfig::default()
    };
    let (d0, frames0) = record_session(&path.0, &cfg, 40);

    let reader = TraceReader::open(&path.0).expect("open");
    assert!(reader.clean_close);
    assert!(
        reader.records.len() >= 40,
        "all offered frames recorded: {}",
        reader.records.len()
    );
    assert!(
        frames0 < reader.records.len() as u64,
        "congestion must drop something for the test to mean anything \
         (delivered {frames0} of {} offered)",
        reader.records.len()
    );

    let (d1, frames1, c1) = replay_session(&path.0);
    let (d2, frames2, _) = replay_session(&path.0);

    assert_eq!(d1, d2, "double replay must be bit-identical");
    assert_eq!(frames1, frames2);
    assert_eq!(
        (d1, frames1),
        (d0, frames0),
        "replay must reproduce the original delivery"
    );
    assert_eq!(
        c1.frames(),
        reader.records.len() as u64,
        "every record is routed and offered"
    );
    assert_eq!(
        c1.bytes(),
        reader
            .records
            .iter()
            .map(|r| r.payload.len() as u64)
            .sum::<u64>(),
        "every record's payload is offered"
    );
}

/// Same property, as-fast-as-possible mode: timing is compressed but
/// order is preserved, so two fast replays still agree with each other.
#[test]
fn fast_replay_is_self_consistent() {
    let path = TempTrace(trace_path("fast"));
    // Lossless config: with no drops, compressed timing must still
    // deliver every frame, in order.
    let cfg = SimConfig {
        latency: Duration::from_millis(5),
        seed: sim_seed(),
        ..SimConfig::default()
    };
    let (_, frames0) = record_session(&path.0, &cfg, 25);

    let reader = TraceReader::open(&path.0).expect("open");
    let run = || {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        let result = {
            let transport = SimTransport::new(&kernel, reader.scenario().expect("scenario"));
            let acceptor = transport.listen("fast").expect("listen");
            let link = transport.connect("fast").expect("connect");
            let server_end = acceptor.accept().expect("accept");
            let consumer = Pipeline::new(&kernel, "fast-consumer");
            let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(1024));
            let pump_in = consumer.add_pump("pump-in", FreePump::new());
            let (sink, probe) = DigestSink::new("digest");
            let sink = consumer.add_consumer("sink", sink);
            let _ = inbox >> pump_in >> sink;
            server_end
                .bind_receiver(Some(inbox_sender), |_| {})
                .expect("bind");
            consumer.start().expect("plan").start_flow().expect("start");
            let handle = Replayer::new(&kernel, ReplayMode::AsFastAsPossible)
                .route(0, link)
                .launch(&reader)
                .expect("launch");
            kernel.wait_quiescent();
            assert!(handle.is_done());
            (probe.value(), probe.frames())
        };
        kernel.shutdown();
        result
    };
    let (da, fa) = run();
    let (db, fb) = run();
    assert_eq!((da, fa), (db, fb), "fast replays must agree");
    assert_eq!(fa, frames0, "lossless config: every recorded frame lands");
}

// ---------------------------------------------------------------------
// Control priority survives replay
// ---------------------------------------------------------------------

/// The conformance suite's control-priority property, replayed: a trace
/// holding a data burst, then an event, then Fin — re-offered by the
/// replayer to a bandwidth-limited link — must still show the event
/// overtaking the queued data, because sequential replay hands the
/// link's control lane the same chance it had live.
#[test]
fn replayed_control_events_overtake_data() {
    let path = TempTrace(trace_path("priority"));
    let writer = TraceWriter::create(&path.0, "priority", None).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(0, "burst", "bytes"))
        .expect("declare");
    let sends = 50u64;
    for i in 0..sends {
        writer
            .record(
                0,
                i,
                FrameKind::Data,
                PayloadBytes::from_vec(vec![0u8; 1024]),
            )
            .expect("data");
    }
    // The event is recorded *after* every data frame…
    let event = wire::to_payload(&ControlEvent::SetDropLevel(3)).expect("encode");
    writer
        .record(0, sends, FrameKind::Event, event)
        .expect("event");
    writer
        .record(0, sends + 1, FrameKind::Fin, PayloadBytes::new())
        .expect("fin");
    writer.finish().expect("finish");

    // …and replayed onto the conformance suite's priority scenario:
    // 200 KB/s queues ~5 ms of serialization per frame, the control
    // lane sees only the 1 ms latency.
    let kernel = Kernel::new(KernelConfig::default());
    let transport = SimTransport::new(
        &kernel,
        SimConfig {
            latency: Duration::from_millis(1),
            bandwidth_bps: Some(200_000.0),
            queue_bytes: 1 << 20,
            seed: sim_seed(),
            ..SimConfig::default()
        },
    );
    let acceptor = transport.listen("prio").expect("listen");
    let link = transport.connect("prio").expect("connect");
    let server = acceptor.accept().expect("accept");

    let reader = TraceReader::open(&path.0).expect("open");
    // Keep a handle on the client end: the replay thread drops its route
    // clone the moment the last record is offered, and the burst is
    // still serializing through the bandwidth pacer at that point.
    let handle = Replayer::new(&kernel, ReplayMode::AsRecorded)
        .route(0, link.clone())
        .launch(&reader)
        .expect("launch");

    let mut event_after = None;
    let mut data_seen = 0usize;
    let deadline = Instant::now() + DEADLINE;
    loop {
        match server.recv(Duration::from_millis(100)) {
            RecvOutcome::Frame(Frame::Data(_)) => data_seen += 1,
            RecvOutcome::Frame(Frame::Event(ev)) => {
                assert_eq!(ev, ControlEvent::SetDropLevel(3));
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
    let at = event_after.expect("the replayed control event must arrive");
    assert!(
        at < data_seen,
        "replayed control event must overtake queued data: \
         seen after {at} of {data_seen} frames"
    );
    assert!(handle.is_done());
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// Zero-copy taps
// ---------------------------------------------------------------------

/// A [`RecordingLink`] tap and a [`Recorder`] pipeline stage both ride
/// the refcounted payload path: recording an entire session performs
/// zero payload copies.
#[test]
fn recording_performs_zero_payload_copies() {
    let path = TempTrace(trace_path("zerocopy"));
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let writer = TraceWriter::create(&path.0, "zerocopy", None).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(0, "edge", "u32"))
        .expect("declare");

    let before = payload_copy_count();
    {
        // A pure pipeline edge: marshal → Recorder stage → digest sink.
        let pipeline = Pipeline::new(&kernel, "edge");
        let src = pipeline.add_producer("src", IterSource::new("src", 0..32u32));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let m = pipeline.add_function("marshal", Marshal::<u32>::new("marshal"));
        let rec = pipeline.add_function("tap", Recorder::new("tap", writer.clone(), 0, &kernel));
        let (sink, probe) = DigestSink::new("digest");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = src >> pump >> m >> rec >> sink;
        pipeline.start().expect("plan").start_flow().expect("start");
        kernel.wait_quiescent();
        assert_eq!(probe.frames(), 32, "the tap passes every item through");
    }
    writer.finish().expect("finish");
    let after = payload_copy_count();
    assert_eq!(
        after - before,
        0,
        "recording a pipeline edge must not copy payloads"
    );
    assert_eq!(writer.stats().records, 32);

    // The written trace is real: it reads back record for record.
    let reader = TraceReader::open(&path.0).expect("open");
    assert_eq!(reader.records.len(), 32);
    assert!(reader.clean_close);
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// Replay edge cases
// ---------------------------------------------------------------------

/// Records on channels without a route are skipped, not fatal; an empty
/// trace replay completes immediately.
#[test]
fn unrouted_channels_and_empty_traces_are_graceful() {
    let path = TempTrace(trace_path("unrouted"));
    let empty_path = TempTrace(trace_path("unrouted-empty"));
    TraceWriter::create(&empty_path.0, "empty", None)
        .expect("create")
        .finish()
        .expect("finish");
    let empty = TraceReader::open(&empty_path.0).expect("open");
    assert!(empty.records.is_empty());
    let writer = TraceWriter::create(&path.0, "unrouted", None).expect("create");
    writer
        .record(3, 0, FrameKind::Data, PayloadBytes::from_vec(vec![1]))
        .expect("record");
    writer
        .record(4, 1, FrameKind::Data, PayloadBytes::from_vec(vec![2]))
        .expect("record");
    writer.finish().expect("finish");

    let reader = TraceReader::open(&path.0).expect("open");
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        let transport = SimTransport::new(&kernel, SimConfig::default());
        let acceptor = transport.listen("unr").expect("listen");
        let link = transport.connect("unr").expect("connect");
        let _server = acceptor.accept().expect("accept");

        // Only channel 3 is routed; channel 4's record is skipped.
        let handle = Replayer::new(&kernel, ReplayMode::AsRecorded)
            .route(3, link.clone())
            .launch(&reader)
            .expect("launch");
        kernel.wait_quiescent();
        assert!(handle.is_done());
        assert_eq!(handle.counters().frames(), 1);
        assert_eq!(link.stats().sent, 1);

        // An empty replay is done on arrival.
        let link2 = transport.connect("unr").expect("connect");
        let handle2 = Replayer::new(&kernel, ReplayMode::AsRecorded)
            .route(0, link2)
            .launch(&empty)
            .expect("launch empty");
        kernel.wait_quiescent();
        assert!(handle2.is_done());
        assert_eq!(handle2.counters().frames(), 0);
    }
    kernel.shutdown();
}

/// A recorded `SendStatus` is not required for replay: a link that
/// refuses (saturated sim queue) still counts the frame as offered —
/// replay reproduces offered traffic, mirroring the recording tap.
#[test]
fn replay_offers_frames_even_when_the_link_sheds() {
    let path = TempTrace(trace_path("shed"));
    let writer = TraceWriter::create(&path.0, "shed", None).expect("create");
    for i in 0..30u64 {
        writer
            .record(0, 0, FrameKind::Data, PayloadBytes::from_vec(vec![0u8; 64]))
            .unwrap_or_else(|e| panic!("record {i}: {e}"));
    }
    writer.finish().expect("finish");

    let reader = TraceReader::open(&path.0).expect("open");
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        // 128-byte queue + long latency: most of the burst is shed.
        let transport = SimTransport::new(
            &kernel,
            SimConfig {
                latency: Duration::from_secs(1),
                queue_bytes: 128,
                seed: sim_seed(),
                ..SimConfig::default()
            },
        );
        let acceptor = transport.listen("shed").expect("listen");
        let link = transport.connect("shed").expect("connect");
        let server = acceptor.accept().expect("accept");
        let handle = Replayer::new(&kernel, ReplayMode::AsRecorded)
            .route(0, link.clone())
            .launch(&reader)
            .expect("launch");
        kernel.wait_quiescent();
        assert!(handle.is_done());
        assert_eq!(handle.counters().frames(), 30, "every record is offered");
        let stats = link.stats();
        assert!(stats.dropped > 0, "the tiny queue must shed: {stats:?}");
        assert_eq!(stats.sent, 30);
        drop(server);
    }
    kernel.shutdown();
}

/// Send after `Fin` is how a replay meets a closed link: the frames are
/// offered and refused by the link instead of erroring the replay
/// thread.
#[test]
fn replay_counts_sends_into_a_closed_link() {
    let path = TempTrace(trace_path("closed"));
    let writer = TraceWriter::create(&path.0, "closed", None).expect("create");
    writer
        .record(0, 0, FrameKind::Fin, PayloadBytes::new())
        .expect("fin");
    for i in 1..4u64 {
        writer
            .record(0, i, FrameKind::Data, PayloadBytes::from_vec(vec![1]))
            .expect("record");
    }
    writer.finish().expect("finish");

    let reader = TraceReader::open(&path.0).expect("open");
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        let transport = SimTransport::new(&kernel, SimConfig::default());
        let acceptor = transport.listen("cls").expect("listen");
        let link = transport.connect("cls").expect("connect");
        let _server = acceptor.accept().expect("accept");
        let handle = Replayer::new(&kernel, ReplayMode::AsRecorded)
            .route(0, link.clone())
            .launch(&reader)
            .expect("launch");
        kernel.wait_quiescent();
        assert!(handle.is_done());
        assert_eq!(handle.counters().frames(), 4);
        assert_eq!(
            link.stats().sent,
            0,
            "data after Fin lands on a closed link: {:?}",
            link.stats()
        );
    }
    kernel.shutdown();
}
