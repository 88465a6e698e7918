//! The metric and workload names, with units, direction and bounds. A
//! test keeps `BENCHMARK.json` identical to this table.

use crate::workloads::{chain, fanout, remote, RepeatCtx, RepeatResult};

/// How long one run measures by default (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Runs one repeat: fresh kernels, pipelines, links, sessions.
    pub run: fn(&RepeatCtx) -> RepeatResult,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "chain_direct",
        why: "many tiny items through 8 directly-called stages: pump cycle, call glue, Item boxing, 0 context switches; closed loop, 2000000 items/repeat; baseline 824 k items/s",
        run: chain::run_direct,
    },
    Workload {
        name: "chain_coroutine",
        why: "same chain with 4 active objects, so the configuration demands coroutines: 8 context switches per item; closed loop, 60000 items/repeat; baseline 19.8 k items/s",
        run: chain::run_coroutine,
    },
    Workload {
        name: "remote_inproc",
        why: "two kernels over an in-process ring: pump wake-up, inbox hand-off, marshalling; saturate 600000 items, then paced at a pinned 20000 items/s for 4 s; baseline 241 k items/s, p50 12.6 us",
        run: remote::run_inproc,
    },
    Workload {
        name: "remote_tcp",
        why: "Fig. 1 shape over loopback TCP: fragmenting, framing, writer/reader threads, batching; saturate 60000 frames, then paced at a pinned 1000 frames/s for 4 s; baseline 16.6 k frames/s, p50 150 us",
        run: remote::run_tcp,
    },
    Workload {
        name: "fanout_inproc",
        why: "serving tier alone, 256 sessions: roster lock, per-session queues and rings; bypasses kernel and pipeline; closed loop, 60000 frames/repeat; baseline 3.07 M deliveries/s",
        run: fanout::run,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [Metric; 4] = [
    e2e("items_per_s", "1/s", "higher", 0.25),
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [Metric; 55] = [
    layer("mbthread.ctx_switches_per_item", "1/item", "lower"),
    layer("mbthread.msgs_per_item", "1/item", "lower"),
    layer("mbthread.sync_sends_per_item", "1/item", "lower"),
    layer("mbthread.switch_ns", "ns", "lower"),
    layer("mbthread.msg_dispatch_ns", "ns", "lower"),
    layer("typespec.check_us", "us", "lower"),
    layer("core.plan_start_ms", "ms", "lower"),
    layer("core.threads_planned", "count", "lower"),
    layer("core.fn_call_ns", "ns", "lower"),
    layer("core.stage_ns", "ns", "lower"),
    layer("core.cycle_ns", "ns", "lower"),
    layer("core.inbox_put_ns", "ns", "lower"),
    layer("core.inbox_drops", "count", "lower"),
    layer("core.pool_acquire_seal_ns", "ns", "lower"),
    layer("core.pool_miss_rate", "ratio", "lower"),
    layer("core.payload_copies_per_item", "1/item", "lower"),
    layer("media.fragment_ns", "ns/call", "lower"),
    layer("media.defragment_ns", "ns/call", "lower"),
    layer("netpipe.wire.seal_ns", "ns", "lower"),
    layer("netpipe.wire.decode_ns", "ns", "lower"),
    layer("netpipe.marshal.convert_ns", "ns/call", "lower"),
    layer("netpipe.marshal.unconvert_ns", "ns/call", "lower"),
    layer("netpipe.marshal.decode_errors", "count", "lower"),
    layer("netpipe.framing.write_ns", "ns", "lower"),
    layer("netpipe.framing.read_ns", "ns", "lower"),
    layer("netpipe.transport.inproc.roundtrip_ns", "ns", "lower"),
    layer("netpipe.transport.tcp.bare_items_per_s", "1/s", "higher"),
    layer("netpipe.transport.send_ns", "ns/call", "lower"),
    layer("netpipe.transport.transit_us_p50", "us", "lower"),
    layer("netpipe.transport.wire_writes_per_item", "1/item", "lower"),
    layer("netpipe.transport.dropped", "count", "lower"),
    layer("netpipe.transport.refused", "count", "lower"),
    layer("netpipe.transport.rx_shed", "count", "lower"),
    layer("netpipe.serve.broadcast_ns", "ns/call", "lower"),
    layer("netpipe.serve.sweep_ns", "ns/call", "lower"),
    layer("netpipe.serve.admit_ms", "ms", "lower"),
    layer("netpipe.serve.shed_total", "count", "lower"),
    layer("netpipe.serve.thinned_total", "count", "lower"),
    layer("netpipe.serve.evicted_total", "count", "lower"),
    layer("netpipe.serve.queued_frames_max", "count", "lower"),
    layer("proc.allocs_per_item", "1/item", "lower"),
    layer("proc.cpu_us_per_item", "us/item", "lower"),
    layer("proc.threads_max", "count", "lower"),
    layer("gen.offered_per_s", "1/s", "higher"),
    layer("gen.late_p50_us", "us", "lower"),
    layer("gen.late_max_us", "us", "lower"),
    layer("gen.keepalives", "count", "lower"),
    layer("tail.lat_p99_us", "us", "lower"),
    layer("tail.lat_max_us", "us", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.explained_frac", "ratio", "higher"),
    layer("trace.interval_us_p50", "us", "lower"),
    layer("trace.spans", "count", "higher"),
    layer("failed_frac", "ratio", "lower"),
    layer("repeats", "count", "higher"),
];

/// Span name → the per-layer metric its mean self time is reported as.
pub const SPAN_METRICS: [(&str, &str); 5] = [
    ("media.fragment", "media.fragment_ns"),
    ("media.defragment", "media.defragment_ns"),
    ("netpipe.marshal.convert", "netpipe.marshal.convert_ns"),
    ("netpipe.marshal.unconvert", "netpipe.marshal.unconvert_ns"),
    ("netpipe.transport.send", "netpipe.transport.send_ns"),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
#[cfg(test)]
fn manifest() -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or_default()
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }

    #[test]
    fn the_manifest_states_the_pinned_rates() {
        let why = |name: &str| WORKLOADS.iter().find(|w| w.name == name).unwrap().why;
        let inproc = format!("a pinned {} items/s", remote::INPROC_PACED_PER_S);
        let tcp = format!("a pinned {} frames/s", remote::TCP_PACED_PER_S);
        assert!(why("remote_inproc").contains(&inproc));
        assert!(why("remote_tcp").contains(&tcp));
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest());
    }
}
