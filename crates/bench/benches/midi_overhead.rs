//! E6 — §4's MIDI motivation: "for pipelines that handle many control
//! events or many small data items such as a MIDI mixer … allocating a
//! thread for each pipeline component would introduce a significant
//! context switching overhead." Sweeps chain length for the
//! thread-transparent allocation (all direct calls) versus a
//! coroutine-per-component chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infopipes::helpers::{ActiveRelay, IdentityFn};
use infopipes::{FreePump, Pipeline};
use mbthread::{Kernel, KernelConfig};
use media::{MidiSink, MidiSource};

const EVENTS: u64 = 300;

fn run(chain_len: usize, per_component_threads: bool) -> (usize, u64) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let result = {
        let pipeline = Pipeline::new(&kernel, "midi");
        let src = pipeline.add_producer("src", MidiSource::new(0, EVENTS, 100));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = MidiSink::new();
        let sink = pipeline.add_consumer("sink", sink);
        let mut prev = pipeline.connect(src, pump).map(|()| pump).expect("connect");
        for i in 0..chain_len {
            let name = format!("s{i}");
            let node = if per_component_threads {
                // An active relay forces one kernel thread per component.
                pipeline.add_active(&name, ActiveRelay::new(&name))
            } else {
                // A function stage is callable directly.
                pipeline.add_function(&name, IdentityFn::new(&name))
            };
            pipeline.connect(prev, node).expect("connect");
            prev = node;
        }
        pipeline.connect(prev, sink).expect("connect");

        let running = pipeline.start().expect("plan");
        // The spawned threads switch their way to their first receive;
        // count from the point where they are all parked there, or the
        // row reads one or two short depending on who ran last.
        kernel.wait_quiescent();
        let before = kernel.stats();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let delta = kernel.stats().delta_since(&before);
        let n = out.lock().len();
        (n, delta.context_switches)
    };
    kernel.shutdown();
    result
}

fn bench_midi(c: &mut Criterion) {
    println!("\ncontext switches for {EVENTS} MIDI events:");
    println!(
        "{:<8} {:>22} {:>22}",
        "chain", "transparent (direct)", "thread-per-component"
    );
    for len in [1usize, 2, 4, 8] {
        let (n1, sw_direct) = run(len, false);
        let (n2, sw_threads) = run(len, true);
        assert_eq!(n1 as u64, EVENTS);
        assert_eq!(n2 as u64, EVENTS);
        println!("{len:<8} {sw_direct:>22} {sw_threads:>22}");
    }

    let mut group = c.benchmark_group("midi_chain");
    group.sample_size(10);
    for len in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("direct", len), &len, |b, &len| {
            b.iter(|| run(len, false));
        });
        group.bench_with_input(
            BenchmarkId::new("thread_per_component", len),
            &len,
            |b, &len| {
                b.iter(|| run(len, true));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_midi);
criterion_main!(benches);
