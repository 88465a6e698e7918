//! Zero-copy payload-path microbench: bytes/sec over the inproc lane,
//! shared-buffer (`PayloadBytes`) versus the pre-refactor deep-copy
//! semantics, on large frames.
//!
//! The pipeline is the real remote lane — producer pump, a tap at the
//! marshalling position, `NetSendEnd`, the sending thread's delivery
//! into the bound inproc direction's inbox, consumer pump, and a tap at
//! the unmarshalling position. The two configurations differ only in
//! the taps:
//!
//! * **zero_copy** — taps pass the sealed buffer through untouched; every
//!   crossing is a refcount (what the middleware does since the
//!   `PayloadBytes` refactor).
//! * **deep_copy** — each tap re-seals the payload through an owned
//!   `Vec`, plus one extra copy at the producer side, reproducing the
//!   three per-frame copies of the old `WireBytes(Vec<u8>)` path
//!   (marshal re-vec, clone at the lane crossing, copy into the
//!   consumer's decode buffer).
//!
//! Run with `cargo run --release -p infopipes-bench --bin
//! zero_copy_report`. Writes `BENCH_zero_copy.json` into the current
//! directory and fails (exit 1) if the large-frame speedup is < 2x.

use infopipes::helpers::{CollectSink, FnFunction, IterSource};
use infopipes::{BufferSpec, FreePump, PayloadBytes, Pipeline};
use mbthread::{Kernel, KernelConfig};
use netpipe::{Acceptor, InProcTransport, Link, PipelineTransportExt, Transport};
use std::io::Write;
use std::time::{Duration, Instant};

struct LaneResult {
    bytes_per_sec: f64,
    elapsed: Duration,
}

/// Drives `frames` frames of `frame_bytes` each over one inproc
/// connection and reports goodput. `deep` switches the taps to the
/// pre-refactor copying semantics.
fn run_lane(frames: usize, frame_bytes: usize, deep: bool) -> LaneResult {
    let kernel = Kernel::new(KernelConfig::default());
    let result = {
        // Data lane and inbox sized above the total frame count: the
        // free pump bursts at memory speed and the lossy lane must not
        // shed anything during a throughput measurement.
        let transport = InProcTransport::with_capacity(2 * frames.max(1024));
        let acceptor = transport.listen("lane").unwrap();
        let link = transport.connect("lane").unwrap();
        let receiver_end = acceptor.accept().unwrap();

        // One template allocation; the producer emits `frames` shared
        // views of it, so frame *production* costs the same in both
        // configurations and only the lane crossings differ.
        let template = PayloadBytes::from_vec(vec![0xA5u8; frame_bytes]);
        let inputs: Vec<PayloadBytes> = (0..frames).map(|_| template.clone()).collect();

        let copy_tap = |name: &str, n_copies: usize| {
            FnFunction::new(name, move |b: PayloadBytes| {
                let mut b = b;
                for _ in 0..n_copies {
                    b = PayloadBytes::from_vec(b.to_vec());
                }
                Some(b)
            })
        };

        // Consumer side.
        let consumer = Pipeline::new(&kernel, "consumer");
        let (inbox, inbox_sender) =
            consumer.add_inbox("net-in", BufferSpec::bounded(2 * frames.max(1024)));
        let pump_in = consumer.add_pump("pump-in", FreePump::new());
        let tap_in = consumer.add_function("tap-in", copy_tap("tap-in", usize::from(deep)));
        let count = consumer.add_function(
            "count",
            FnFunction::new("count", |b: PayloadBytes| Some(b.len() as u64)),
        );
        let (sink, out) = CollectSink::<u64>::new("sink");
        let sink = consumer.add_consumer("sink", sink);
        let _ = inbox >> pump_in >> tap_in >> count >> sink;
        receiver_end
            .bind_receiver(Some(inbox_sender), |_| {})
            .unwrap();
        let running_consumer = consumer.start().unwrap();
        running_consumer.start_flow().unwrap();

        // Producer side: in deep mode the marshal-position tap performs
        // two copies (the old path's serialize-to-vec plus the clone
        // handed to the transport).
        let producer = Pipeline::new(&kernel, "producer");
        let src = producer.add_producer("src", IterSource::new("src", inputs));
        let pump_out = producer.add_pump("pump-out", FreePump::new());
        let tap_out =
            producer.add_function("tap-out", copy_tap("tap-out", if deep { 2 } else { 0 }));
        let send = producer.add_net_sink("send", &link);
        let _ = src >> pump_out >> tap_out >> send;
        let running_producer = producer.start().unwrap();

        let started = Instant::now();
        running_producer.start_flow().unwrap();
        let deadline = started + Duration::from_secs(120);
        while out.lock().len() < frames {
            assert!(Instant::now() < deadline, "lane stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = started.elapsed();
        let delivered: u64 = out.lock().iter().sum();
        assert_eq!(delivered, (frames * frame_bytes) as u64, "no frame lost");
        LaneResult {
            bytes_per_sec: delivered as f64 / elapsed.as_secs_f64(),
            elapsed,
        }
    };
    kernel.shutdown();
    result
}

fn mib_s(b: f64) -> f64 {
    b / (1024.0 * 1024.0)
}

fn main() {
    // `--smoke`: tiny counts so CI proves the harness runs end to end;
    // numbers are meaningless at that scale, so the gate is skipped.
    let smoke = std::env::args().any(|a| a == "--smoke");
    // ≥ 64 KiB frames per the acceptance bar, plus a larger point to
    // show the trend; enough frames to dominate setup cost.
    let cases = if smoke {
        [(64 * 1024usize, 30usize), (1024 * 1024, 10)]
    } else {
        [(64 * 1024usize, 1500usize), (1024 * 1024, 200)]
    };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    println!(
        "{:>10} {:>8} {:>16} {:>16} {:>9}",
        "frame", "frames", "zero-copy MiB/s", "deep-copy MiB/s", "speedup"
    );
    for (frame_bytes, frames) in cases {
        // Warm-up pass so allocator and thread start-up costs are paid
        // before measurement.
        let _ = run_lane(frames / 10, frame_bytes, false);
        let zero = run_lane(frames, frame_bytes, false);
        let deep = run_lane(frames, frame_bytes, true);
        let speedup = zero.bytes_per_sec / deep.bytes_per_sec;
        println!(
            "{:>10} {:>8} {:>16.1} {:>16.1} {:>8.2}x",
            frame_bytes,
            frames,
            mib_s(zero.bytes_per_sec),
            mib_s(deep.bytes_per_sec),
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"frame_bytes\": {}, \"frames\": {}, ",
                "\"zero_copy_bytes_per_sec\": {:.0}, \"deep_copy_bytes_per_sec\": {:.0}, ",
                "\"zero_copy_elapsed_ms\": {:.1}, \"deep_copy_elapsed_ms\": {:.1}, ",
                "\"speedup\": {:.3}}}"
            ),
            frame_bytes,
            frames,
            zero.bytes_per_sec,
            deep.bytes_per_sec,
            zero.elapsed.as_secs_f64() * 1e3,
            deep.elapsed.as_secs_f64() * 1e3,
            speedup
        ));
        speedups.push(speedup);
    }

    let json = format!(
        "{{\n  \"bench\": \"zero_copy_inproc_lane\",\n  \"unit\": \"bytes/sec\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_zero_copy.json").expect("create BENCH_zero_copy.json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote BENCH_zero_copy.json");

    // The acceptance bar: >= 2x on >= 64 KiB frames. Smoke runs are far
    // too short to measure, so they only prove the harness works.
    if smoke {
        println!("smoke mode: skipping the speedup gate");
        return;
    }
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    if min_speedup < 2.0 {
        eprintln!("FAIL: speedup {min_speedup:.2}x < 2x on large frames");
        std::process::exit(1);
    }
}
