//! Shared scaffolding for the benchmark harness.
//!
//! Each bench or report binary regenerates one of the paper's quantitative
//! claims; see `EXPERIMENTS.md` at the workspace root for the
//! paper-vs-measured record.

use infopipes::helpers::{
    ActiveRelay, CollectSink, IdentityFn, IterSource, RelayConsumer, RelayProducer,
};
use infopipes::{FreePump, Pipeline, PlanReport};
use mbthread::{Kernel, KernelConfig, KernelStats};
use media::{MidiSink, MidiSource};

/// Which of the three slots (upstream, downstream) holds which style in a
/// Fig. 9 configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Pull-style identity relay.
    Producer,
    /// Push-style identity relay.
    Consumer,
    /// Function-style identity.
    Function,
    /// Active-object relay.
    Active,
}

/// One of the paper's Fig. 9 pipeline configurations: two components and
/// a pump in one of three positions.
#[derive(Copy, Clone, Debug)]
pub struct Fig9Config {
    /// The figure's sub-label (a–h).
    pub label: &'static str,
    /// Component styles, upstream to downstream.
    pub components: [Slot; 2],
    /// Index of the pump among the three positions (0 = before both,
    /// 1 = between, 2 = after both).
    pub pump_position: usize,
    /// The thread count the paper's §4 implementation notes prescribe.
    pub expected_threads: usize,
}

/// The eight configurations of Fig. 9 with their expected coroutine-set
/// sizes ("a), b), and c) [need one thread]; for configurations d), g),
/// and h) there is a set of two coroutines and for e) and f) … three").
pub const FIG9: [Fig9Config; 8] = [
    Fig9Config {
        label: "a",
        components: [Slot::Producer, Slot::Consumer],
        pump_position: 1,
        expected_threads: 1,
    },
    Fig9Config {
        label: "b",
        components: [Slot::Function, Slot::Function],
        pump_position: 1,
        expected_threads: 1,
    },
    Fig9Config {
        label: "c",
        components: [Slot::Consumer, Slot::Consumer],
        pump_position: 0,
        expected_threads: 1,
    },
    Fig9Config {
        label: "d",
        components: [Slot::Active, Slot::Function],
        pump_position: 1,
        expected_threads: 2,
    },
    Fig9Config {
        label: "e",
        components: [Slot::Consumer, Slot::Producer],
        pump_position: 1,
        expected_threads: 3,
    },
    Fig9Config {
        label: "f",
        components: [Slot::Active, Slot::Active],
        pump_position: 1,
        expected_threads: 3,
    },
    Fig9Config {
        label: "g",
        components: [Slot::Consumer, Slot::Active],
        pump_position: 0,
        expected_threads: 2,
    },
    Fig9Config {
        label: "h",
        components: [Slot::Consumer, Slot::Producer],
        pump_position: 2,
        expected_threads: 2,
    },
];

/// Runs one Fig. 9 configuration over `items` integers on a virtual-time
/// kernel; returns the plan report, the items that reached the sink, and
/// the kernel-counter delta for the run.
#[must_use]
pub fn run_fig9(cfg: &Fig9Config, items: u32) -> (PlanReport, usize, KernelStats) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let result = {
        let pipeline = Pipeline::new(&kernel, "fig9");
        let source = pipeline.add_producer("source", IterSource::new("source", 0..items));
        let (sink, out) = CollectSink::<u32>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);

        let mut nodes = Vec::new();
        for (i, slot) in cfg.components.iter().enumerate() {
            if cfg.pump_position == i {
                nodes.push(pipeline.add_pump("pump", FreePump::new()));
            }
            let name = format!("x{i}");
            nodes.push(match slot {
                Slot::Producer => pipeline.add_producer(&name, RelayProducer::new(&name)),
                Slot::Consumer => pipeline.add_consumer(&name, RelayConsumer::new(&name)),
                Slot::Function => pipeline.add_function(&name, IdentityFn::new(&name)),
                Slot::Active => pipeline.add_active(&name, ActiveRelay::new(&name)),
            });
        }
        if cfg.pump_position >= cfg.components.len() {
            nodes.push(pipeline.add_pump("pump", FreePump::new()));
        }

        let mut prev = source;
        for node in nodes {
            pipeline.connect(prev, node).expect("chain connects");
            prev = node;
        }
        pipeline.connect(prev, sink).expect("sink connects");

        let running = pipeline.start().expect("plan");
        let report = running.report().clone();
        // Every thread `start` spawned parks before the snapshot, so the
        // delta counts the flow alone and repeats exactly.
        kernel.wait_quiescent();
        let before = kernel.stats();
        running.start_flow().expect("start");
        running.wait_quiescent();
        let delta = kernel.stats().delta_since(&before);
        let count = out.lock().len();
        (report, count, delta)
    };
    kernel.shutdown();
    result
}

/// MIDI events per [`run_midi`] chain.
pub const MIDI_EVENTS: u64 = 300;

/// §4's MIDI motivation: "for pipelines that handle many control events or
/// many small data items such as a MIDI mixer … allocating a thread for
/// each pipeline component would introduce a significant context switching
/// overhead." Runs [`MIDI_EVENTS`] events through a pump and `chain_len`
/// identity components — active relays, one kernel thread each, when
/// `per_component_threads`, directly called functions otherwise — on a
/// virtual-time kernel; returns the events delivered and the context
/// switches of the flow.
#[must_use]
pub fn run_midi(chain_len: usize, per_component_threads: bool) -> (usize, u64) {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let result = {
        let pipeline = Pipeline::new(&kernel, "midi");
        let src = pipeline.add_producer("src", MidiSource::new(0, MIDI_EVENTS, 100));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let (sink, out) = MidiSink::new();
        let sink = pipeline.add_consumer("sink", sink);
        let mut prev = pipeline.connect(src, pump).map(|()| pump).expect("connect");
        for i in 0..chain_len {
            let name = format!("s{i}");
            let node = if per_component_threads {
                pipeline.add_active(&name, ActiveRelay::new(&name))
            } else {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fig9_configs_match_the_paper() {
        // (context switches, kernel messages) for 50 items, a–h: per item
        // and coroutine, two switches and two messages (a `GET` or `PUT`
        // and its reply). The rest is per stream: a `Start` per thread, the
        // pump's `TICK`, and the end on the data path (a last `GET`
        // answered `None`, or an `END`). No coroutine is sent an `Eos`.
        const COST: [(u64, u64); 8] = [
            (0, 2),
            (0, 2),
            (0, 2),
            (104, 105),
            (207, 207),
            (207, 207),
            (104, 104),
            (104, 105),
        ];
        for (cfg, (switches, messages)) in FIG9.iter().zip(COST) {
            let (report, delivered, stats) = run_fig9(cfg, 50);
            assert_eq!(
                report.total_threads(),
                cfg.expected_threads,
                "config {}: {report}",
                cfg.label
            );
            assert_eq!(delivered, 50, "config {} lost items", cfg.label);
            assert_eq!(
                (stats.context_switches, stats.messages_sent),
                (switches, messages),
                "config {}: (switches, messages)",
                cfg.label
            );
        }
    }

    #[test]
    fn midi_overhead_rows_are_exact() {
        // Direct calls make no switch. A chain of n active relays makes 2
        // per event and relay (a `PUT` and its deferred ack), plus 1 + 3n
        // per stream.
        for (n, switches) in [(1, 604), (2, 1207), (4, 2413), (8, 4825)] {
            assert_eq!(run_midi(n, false), (300, 0), "{n} functions");
            assert_eq!(run_midi(n, true), (300, switches), "{n} active relays");
        }
    }
}
