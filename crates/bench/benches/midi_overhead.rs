//! E6 — §4's MIDI motivation: "for pipelines that handle many control
//! events or many small data items such as a MIDI mixer … allocating a
//! thread for each pipeline component would introduce a significant
//! context switching overhead." Sweeps chain length for the
//! thread-transparent allocation (all direct calls) versus a
//! coroutine-per-component chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infopipes_bench::{run_midi, MIDI_EVENTS};

fn bench_midi(c: &mut Criterion) {
    println!("\ncontext switches for {MIDI_EVENTS} MIDI events:");
    println!(
        "{:<8} {:>22} {:>22}",
        "chain", "transparent (direct)", "thread-per-component"
    );
    for len in [1usize, 2, 4, 8] {
        let (n1, sw_direct) = run_midi(len, false);
        let (n2, sw_threads) = run_midi(len, true);
        assert_eq!(n1 as u64, MIDI_EVENTS);
        assert_eq!(n2 as u64, MIDI_EVENTS);
        println!("{len:<8} {sw_direct:>22} {sw_threads:>22}");
    }

    let mut group = c.benchmark_group("midi_chain");
    group.sample_size(10);
    for len in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("direct", len), &len, |b, &len| {
            b.iter(|| run_midi(len, false));
        });
        group.bench_with_input(
            BenchmarkId::new("thread_per_component", len),
            &len,
            |b, &len| {
                b.iter(|| run_midi(len, true));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_midi);
criterion_main!(benches);
