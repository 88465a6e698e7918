//! Record & replay report: trace-capture goodput, replay goodput, and
//! the determinism + zero-copy gates.
//!
//! One run records a congested simulated manifold under virtual time —
//! producer pipeline → [`RecordingLink`] tap → seeded `SimTransport` →
//! digesting consumer — then replays the trace twice through fresh
//! simulators rebuilt from the scenario stored in the trace header.
//!
//! Three properties gate the run (in `--smoke` mode too — they are
//! correctness, not performance):
//!
//! * **double-replay determinism** — both replays digest identical;
//! * **capture fidelity** — the replayed delivery digests equal to the
//!   original live delivery (the tap records *offered* traffic, so the
//!   seeded simulator re-makes every drop decision);
//! * **zero-copy tap** — the global `payload_copy_count` does not move
//!   while recording.
//!
//! Writes `BENCH_record.json` (MiB/s and frames/s for capture and
//! replay) into the current directory.

use infopipes::helpers::IterSource;
use infopipes::{payload_copy_count, BufferSpec, FreePump, PayloadBytes, Pipeline};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    Acceptor, ChannelDecl, DigestSink, Link, PipelineTransportExt, RecordingLink, ReplayMode,
    Replayer, SimConfig, SimTransport, TraceReader, TraceWriter, Transport,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn sim_seed() -> u64 {
    std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The congested scenario: thin bandwidth and a queue a few frames
/// deep, so the simulator sheds under the burst and replay fidelity
/// actually covers the drop decisions.
fn scenario(frame_bytes: usize) -> SimConfig {
    SimConfig {
        latency: Duration::from_millis(10),
        bandwidth_bps: Some(8.0 * 1_000_000.0),
        queue_bytes: 4 * frame_bytes,
        seed: sim_seed(),
        ..SimConfig::default()
    }
}

struct RecordRun {
    delivered_digest: u64,
    delivered_frames: u64,
    offered_frames: u64,
    payload_bytes: u64,
    file_bytes: u64,
    chunk_flushes: u64,
    payload_copies: u64,
    elapsed: Duration,
}

/// Records `frames` frames of `frame_bytes` each through the tapped
/// congested link under virtual time.
fn record_run(path: &Path, frames: usize, frame_bytes: usize) -> RecordRun {
    let cfg = scenario(frame_bytes);
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let writer = TraceWriter::create(path, "bench-manifold", Some(&cfg)).expect("create trace");
    writer
        .declare_channel(&ChannelDecl::new(0, "bench", "PayloadBytes"))
        .expect("declare channel");

    let copies_before = payload_copy_count();
    let started = Instant::now();
    let (delivered_digest, delivered_frames) = {
        let transport = SimTransport::new(&kernel, cfg);
        let acceptor = transport.listen("bench").expect("listen");
        let link = transport.connect("bench").expect("connect");
        let server_end = acceptor.accept().expect("accept");
        let recording = RecordingLink::attach(link, writer.clone(), 0, &kernel);

        let consumer = Pipeline::new(&kernel, "consumer");
        let (inbox, inbox_sender) =
            consumer.add_inbox("net-in", BufferSpec::bounded(2 * frames.max(1024)));
        let pump_in = consumer.add_pump("pump-in", FreePump::new());
        let (sink, probe) = DigestSink::new("digest");
        let sink = consumer.add_consumer("sink", sink);
        let _ = inbox >> pump_in >> sink;
        server_end
            .bind_receiver(Some(inbox_sender), |_| {})
            .expect("bind");
        consumer.start().expect("plan").start_flow().expect("start");

        // One template allocation, `frames` shared views: production is
        // free, so the tap and the lane dominate the measurement.
        let template = PayloadBytes::from_vec(vec![0x5Au8; frame_bytes]);
        let inputs: Vec<PayloadBytes> = (0..frames).map(|_| template.clone()).collect();
        let producer = Pipeline::new(&kernel, "producer");
        let src = producer.add_producer("src", IterSource::new("src", inputs));
        let pump_out = producer.add_pump("pump-out", FreePump::new());
        let send = producer.add_net_sink("send", &recording);
        let _ = src >> pump_out >> send;
        producer.start().expect("plan").start_flow().expect("start");

        kernel.wait_quiescent();
        (probe.value(), probe.frames())
    };
    let elapsed = started.elapsed();
    kernel.shutdown();
    writer.finish().expect("finish trace");
    let payload_copies = payload_copy_count() - copies_before;
    let stats = writer.stats();
    RecordRun {
        delivered_digest,
        delivered_frames,
        offered_frames: stats.records,
        payload_bytes: stats.payload_bytes,
        file_bytes: stats.file_bytes,
        chunk_flushes: stats.chunk_flushes,
        payload_copies,
        elapsed,
    }
}

struct ReplayRun {
    digest: u64,
    frames: u64,
    offered_frames: u64,
    offered_bytes: u64,
    elapsed: Duration,
}

/// Replays the trace at recorded timestamps through a fresh simulator
/// rebuilt from the recorded scenario; digests the delivery.
fn replay_run(path: &Path) -> ReplayRun {
    let reader = TraceReader::open(path).expect("open trace");
    let cfg = reader.scenario().expect("recorded scenario");
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let started = Instant::now();
    let (digest, frames, offered_frames, offered_bytes) = {
        let transport = SimTransport::new(&kernel, cfg);
        let acceptor = transport.listen("replay").expect("listen");
        let link = transport.connect("replay").expect("connect");
        let server_end = acceptor.accept().expect("accept");

        let consumer = Pipeline::new(&kernel, "replay-consumer");
        let (inbox, inbox_sender) = consumer.add_inbox("net-in", BufferSpec::bounded(4096));
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
            .expect("launch replay");
        kernel.wait_quiescent();
        assert!(handle.is_done(), "replay must drain the trace");
        let counters = handle.counters();
        (
            probe.value(),
            probe.frames(),
            counters.frames(),
            counters.bytes(),
        )
    };
    let elapsed = started.elapsed();
    kernel.shutdown();
    ReplayRun {
        digest,
        frames,
        offered_frames,
        offered_bytes,
        elapsed,
    }
}

fn mib_s(bytes: u64, elapsed: Duration) -> f64 {
    bytes as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0)
}

fn per_s(n: u64, elapsed: Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cases: &[(usize, usize)] = if smoke {
        &[(4 * 1024, 300)]
    } else {
        &[(4 * 1024, 20_000), (64 * 1024, 2_000)]
    };

    let mut rows = Vec::new();
    let mut failed = false;
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>14} {:>14} {:>7}",
        "frame", "frames", "rec MiB/s", "rec fr/s", "rep MiB/s", "rep fr/s", "copies"
    );
    for &(frame_bytes, frames) in cases {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "nptrace-bench-{}-{}.trace",
            std::process::id(),
            frame_bytes
        ));
        let rec = record_run(&path, frames, frame_bytes);
        let rep1 = replay_run(&path);
        let rep2 = replay_run(&path);
        let _ = std::fs::remove_file(&path);

        // The hard gates: determinism, fidelity, zero-copy capture.
        if rep1.digest != rep2.digest || rep1.frames != rep2.frames {
            eprintln!("FAIL: double replay diverged ({frame_bytes}-byte frames)");
            failed = true;
        }
        if (rep1.digest, rep1.frames) != (rec.delivered_digest, rec.delivered_frames) {
            eprintln!(
                "FAIL: replay did not reproduce the live delivery ({frame_bytes}-byte frames)"
            );
            failed = true;
        }
        if rec.payload_copies != 0 {
            eprintln!(
                "FAIL: recording copied payloads {} times ({frame_bytes}-byte frames)",
                rec.payload_copies
            );
            failed = true;
        }
        if rec.delivered_frames >= rec.offered_frames {
            eprintln!("FAIL: the scenario never congested; the fidelity gate proved nothing");
            failed = true;
        }

        println!(
            "{:>10} {:>8} {:>14.1} {:>14.0} {:>14.1} {:>14.0} {:>7}",
            frame_bytes,
            frames,
            mib_s(rec.payload_bytes, rec.elapsed),
            per_s(rec.offered_frames, rec.elapsed),
            mib_s(rep1.offered_bytes, rep1.elapsed),
            per_s(rep1.offered_frames, rep1.elapsed),
            rec.payload_copies
        );
        rows.push(format!(
            concat!(
                "    {{\"frame_bytes\": {}, \"frames\": {}, ",
                "\"record_mib_per_sec\": {:.2}, \"record_frames_per_sec\": {:.0}, ",
                "\"replay_mib_per_sec\": {:.2}, \"replay_frames_per_sec\": {:.0}, ",
                "\"offered_frames\": {}, \"delivered_frames\": {}, ",
                "\"trace_file_bytes\": {}, \"chunk_flushes\": {}, ",
                "\"payload_copies\": {}, \"sim_seed\": {}}}"
            ),
            frame_bytes,
            frames,
            mib_s(rec.payload_bytes, rec.elapsed),
            per_s(rec.offered_frames, rec.elapsed),
            mib_s(rep1.offered_bytes, rep1.elapsed),
            per_s(rep1.offered_frames, rep1.elapsed),
            rec.offered_frames,
            rec.delivered_frames,
            rec.file_bytes,
            rec.chunk_flushes,
            rec.payload_copies,
            sim_seed()
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"record_replay\",\n  \"unit\": \"MiB/s\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_record.json").expect("create BENCH_record.json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote BENCH_record.json");

    if failed {
        std::process::exit(1);
    }
}
