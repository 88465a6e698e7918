//! The manifold inspector client: fetches one unified stats snapshot
//! over the inspector control channel and renders it as JSON (`--json`)
//! or a refreshing plain-text table (`--watch`).
//!
//! With `--tcp <addr>` it attaches to a live [`InspectServer`] over real
//! sockets. Without it, the binary self-hosts a demonstration manifold —
//! a producer pipeline saturating a bandwidth-limited SimTransport link,
//! a serving tier fanning out to sim sessions, a buffer pool under
//! pressure, and a feedback loop driven by a
//! [`UnifiedCongestionController`] — and inspects itself over a sim
//! control channel, all under virtual time.
//!
//! `--smoke` (CI gate): fetches one snapshot from the self-hosted
//! manifold, validates it — schema v1, non-empty, every subsystem
//! present, session/link/pool/kernel/feedback sources populated — writes
//! `BENCH_inspect.json`, and exits non-zero if any gate fails.
//!
//! Run with `cargo run -p infopipes-bench --bin inspect -- --json --smoke`.

use feedback::{readings, FeedbackLoop, UnifiedCongestionController};
use infopipes::helpers::IterSource;
use infopipes::{BufferPool, FreePump, Pipeline, StatsRegistry, StatsSnapshot};
use mbthread::{Kernel, KernelConfig};
use netpipe::inspect::{self, InspectClient, InspectServer, SCHEMA_VERSION};
use netpipe::{
    Acceptor, Marshal, NetSendEnd, ServeConfig, SessionRegistry, SimConfig, SimTransport,
    TcpTransport, Transport, Unmarshal,
};
use std::io::Write as _;
use std::time::Duration;

/// Keeps the self-hosted manifold alive while the client reads it.
struct Demo {
    kernel: Kernel,
    server: InspectServer,
    addr: String,
    transport: SimTransport,
    _sessions: SessionRegistry<netpipe::SimLink>,
    _viewer_ends: Vec<netpipe::SimLink>,
    _held: Vec<infopipes::PayloadBytes>,
}

impl Demo {
    fn client(&self) -> InspectClient<netpipe::SimLink> {
        InspectClient::connect(&self.transport, &self.addr).expect("connect inspector")
    }

    fn shutdown(mut self) {
        self.server.shutdown();
        self.kernel.shutdown();
    }
}

/// Builds the demonstration manifold: every subsystem producing real
/// numbers, registered in one [`StatsRegistry`], served over a sim
/// control channel.
fn self_hosted() -> Demo {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let stats = StatsRegistry::new();

    // A bandwidth-starved sim link: the producer pipeline below pushes
    // harder than 64 kbit/s drains, so the send end saturates and its
    // feedback loop escalates — real congestion, deterministic clock.
    let congested = SimTransport::new(
        &kernel,
        SimConfig {
            latency: Duration::from_millis(20),
            bandwidth_bps: Some(8_000.0),
            queue_bytes: 2_048,
            ..SimConfig::default()
        },
    );
    let acceptor = congested.listen("uplink").expect("listen uplink");
    let uplink = congested.connect("uplink").expect("connect uplink");
    let _remote_end = acceptor.accept().expect("accept uplink");

    let send_end = NetSendEnd::new("send", uplink.clone())
        .with_congestion_reports(readings::SEND_SATURATION, 16);
    let probe = send_end.saturation_probe();
    let (fb, loop_stats) =
        FeedbackLoop::event_driven("congestion-loop", UnifiedCongestionController::standard());

    let pipeline = Pipeline::new(&kernel, "producer");
    let src = pipeline.add_producer(
        "src",
        IterSource::new("src", (0..300u32).map(|i| vec![i as u8; 64])),
    );
    let pump = pipeline.add_pump("pump", FreePump::new());
    let fb = pipeline.add_consumer("congestion-loop", fb);
    let marshal = pipeline.add_function("marshal", Marshal::<Vec<u8>>::new("marshal"));
    let send = pipeline.add_consumer("send", send_end);
    let _ = src >> pump >> fb >> marshal >> send;
    let running = pipeline.start().expect("start pipeline");
    running.start_flow().expect("start flow");
    running.wait_quiescent();

    // A serving tier fanning the same stream out to three sim viewers.
    let serving = SimTransport::new(&kernel, SimConfig::default());
    let serve_acceptor = serving.listen("serve").expect("listen serve");
    let sessions = SessionRegistry::new(ServeConfig::default());
    let mut viewer_ends = Vec::new();
    for _ in 0..3 {
        let viewer = serving.connect("serve").expect("connect viewer");
        let session = serve_acceptor.accept().expect("accept viewer");
        sessions.admit(session);
        viewer_ends.push(viewer);
    }
    let payload = netpipe::wire::to_payload(&0xFEED_u32).expect("encode");
    for _ in 0..8 {
        sessions.broadcast(&payload);
    }
    sessions.sweep();

    // A pool under memory pressure: the held payloads never come home.
    let pool = BufferPool::with_classes(&[256], 2 * 256);
    let mut held = Vec::new();
    for _ in 0..8 {
        held.push(pool.acquire(128).seal());
    }

    // An unmarshal stage as the consumer side would host it.
    let unmarshal = Unmarshal::<u32>::new("unmarshal").at_node("inspect-demo");

    // The whole manifold behind one registry.
    inspect::register_registry_stats(&stats, "sessions", &sessions);
    inspect::register_link(&stats, "uplink", &uplink);
    inspect::register_saturation(&stats, "uplink-saturation", &probe);
    inspect::register_pool(&stats, "frame-pool", &pool);
    inspect::register_kernel(&stats, "kernel", &kernel);
    inspect::register_unmarshal(&stats, "unmarshal", &unmarshal.stats_handle());
    inspect::register_loop_stats(&stats, "congestion-loop", &loop_stats);
    inspect::register_process_globals(&stats);

    // The inspector channel itself, over its own sim transport.
    let control = SimTransport::new(&kernel, SimConfig::default());
    let control_acceptor = control.listen("inspect").expect("listen inspect");
    let addr = control_acceptor.local_addr();
    let server = InspectServer::spawn(control_acceptor, stats);

    Demo {
        kernel,
        server,
        addr,
        transport: control,
        _sessions: sessions,
        _viewer_ends: viewer_ends,
        _held: held,
    }
}

/// The CI gates: what a schema-valid, non-empty, manifold-covering
/// snapshot must contain.
///
/// `fetch` has already refused a snapshot of another schema version than
/// this client's, so the first gate pins this client's.
fn gates(snap: &StatsSnapshot) -> Vec<(&'static str, bool)> {
    let has = |s: &str| snap.sources.iter().any(|src| src.subsystem == s);
    vec![
        ("schema_version_1", SCHEMA_VERSION == 1),
        ("snapshot_nonempty", !snap.sources.is_empty()),
        ("covers_serve", has("serve")),
        ("covers_transport", has("transport")),
        ("covers_pool", has("pool")),
        ("covers_kernel", has("kernel")),
        ("covers_marshal", has("marshal")),
        ("covers_feedback", has("feedback")),
        ("covers_core", has("core")),
        (
            "sessions_populated",
            snap.value("sessions", "accepted_total").unwrap_or(0.0) >= 3.0
                && snap
                    .source("sessions")
                    .is_some_and(|s| !s.entities.is_empty()),
        ),
        (
            "uplink_pushed_back",
            snap.value("uplink", "dropped").unwrap_or(0.0) > 0.0,
        ),
        (
            "saturation_observed",
            snap.value("uplink-saturation", "saturation").unwrap_or(0.0) > 0.0,
        ),
        (
            "pool_pressured",
            snap.value("frame-pool", "misses").unwrap_or(0.0) > 0.0,
        ),
        (
            "feedback_loop_ran",
            snap.value("congestion-loop", "readings").unwrap_or(0.0) > 0.0,
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let watch = args.iter().any(|a| a == "--watch");
    let smoke = args.iter().any(|a| a == "--smoke");
    let tcp_addr = args
        .iter()
        .position(|a| a == "--tcp")
        .and_then(|i| args.get(i + 1))
        .cloned();

    if let Some(addr) = tcp_addr {
        // Attach to a live server; render once (or repeatedly).
        let transport = TcpTransport::new();
        let client = InspectClient::connect(&transport, &addr).expect("connect inspector");
        loop {
            let snap = client.fetch().expect("fetch snapshot");
            if json {
                println!("{}", inspect::to_json(&snap));
            } else {
                if watch {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", inspect::render_table(&snap));
            }
            if !watch {
                return;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    }

    let demo = self_hosted();
    let client = demo.client();

    if watch && !smoke {
        // A few refresh cycles of the live table — bounded, so the demo
        // terminates on its own.
        for _ in 0..5 {
            let snap = client.fetch().expect("fetch snapshot");
            print!("\x1b[2J\x1b[H{}", inspect::render_table(&snap));
            std::io::stdout().flush().ok();
            std::thread::sleep(Duration::from_millis(500));
        }
        demo.shutdown();
        return;
    }

    let snap = client.fetch().expect("fetch snapshot");
    if json {
        println!("{}", inspect::to_json(&snap));
    } else {
        print!("{}", inspect::render_table(&snap));
    }

    if smoke {
        let checks = gates(&snap);
        let failed: Vec<&str> = checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| *name)
            .collect();
        let gate_rows: Vec<String> = checks
            .iter()
            .map(|(name, ok)| format!("    \"{name}\": {ok}"))
            .collect();
        let report = format!(
            concat!(
                "{{\n  \"bench\": \"inspect\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"passed\": {},\n",
                "  \"gates\": {{\n{}\n  }},\n",
                "  \"snapshot\": {}\n}}\n"
            ),
            failed.is_empty(),
            gate_rows.join(",\n"),
            inspect::to_json(&snap)
        );
        let mut f = std::fs::File::create("BENCH_inspect.json").expect("create BENCH_inspect.json");
        f.write_all(report.as_bytes()).expect("write json");
        println!("wrote BENCH_inspect.json");
        if !failed.is_empty() {
            eprintln!("inspect smoke gates FAILED: {failed:?}");
            demo.shutdown();
            std::process::exit(1);
        }
        println!("inspect smoke gates passed ({} checks)", checks.len());
    }

    demo.shutdown();
}
